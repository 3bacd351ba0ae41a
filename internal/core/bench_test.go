package core

import (
	"fmt"
	"strconv"
	"testing"

	"pgssi/internal/mvcc"
)

// BenchmarkLockAcquireParallel isolates the SIREAD acquisition path —
// no engine, storage, or MVCC overhead — with parallel goroutines each
// running their own transaction over a shared Manager, at 1 partition
// versus the partitioned default. On multi-core hardware this is where
// the PredicateLockHashPartitionLock decomposition shows up directly;
// on fewer cores, compare mutex-contention profiles instead.
func BenchmarkLockAcquireParallel(b *testing.B) {
	for _, parts := range []int{1, 16} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			mv := mvcc.NewManager()
			mgr := NewManager(mv, Config{Partitions: parts})
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				x, _ := mgr.Begin(mv.Begin(), mv.TakeSnapshot, false, false)
				i := 0
				for pb.Next() {
					i++
					page := int64(i % 64)
					key := strconv.Itoa(i % 1024)
					if err := mgr.CheckRead(x, "t", page, key, nil, false); err != nil {
						b.Error(err)
						return
					}
				}
				mv.Abort(x.XID)
				mgr.Abort(x)
			})
		})
	}
}

// BenchmarkLifecycleBeginCommitParallel isolates the SSI lifecycle —
// Begin against the sharded commit log and the conflict-free commit fast
// path — with no engine, storage, or read overhead, the lifecycle
// analogue of BenchmarkLockAcquireParallel. Transactions have no edges,
// so commits should never touch the conflict-graph mutex.
func BenchmarkLifecycleBeginCommitParallel(b *testing.B) {
	mv := mvcc.NewManager()
	mgr := NewManager(mv, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			xid := mv.Begin()
			x, _ := mgr.Begin(xid, mv.TakeSnapshot, false, false)
			if err := mgr.Commit(x, func() mvcc.SeqNo { return mv.Commit(xid) }); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
