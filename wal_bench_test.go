package pgssi_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pgssi"
)

// BenchmarkGroupCommit measures the durable commit path under parallel
// committers for each fsync mode. The figure of merit for batch mode is
// commits/fsync: how many concurrent committers piggyback on a single
// group fsync. always pins it at ~1 (every commit pays its own sync),
// off removes syncs entirely and bounds the WAL's non-durability cost.
// Nightly CI archives this with -benchmem.
// BenchmarkRecovery measures OpenDir on a directory holding a fixed
// history of overwrites, with and without a checkpoint taken before the
// "crash". Without one, recovery replays the whole log and scales with
// history; with one, it loads the compact image plus a short suffix and
// stays flat however long the history grows — the tentpole claim of
// checkpointing. recovered/open reports how many records each reopen
// actually folded. Nightly CI archives this with -benchmem.
func BenchmarkRecovery(b *testing.B) {
	const commits, keys, suffix = 2000, 50, 20
	build := func(b *testing.B, checkpoint bool) string {
		dir := b.TempDir()
		db, err := pgssi.OpenDir(dir, pgssi.Config{FsyncMode: pgssi.FsyncOff, WALSegmentSize: 64 << 10})
		if err != nil {
			b.Fatal(err)
		}
		if err := db.CreateTable("t"); err != nil {
			b.Fatal(err)
		}
		put := func(i int) {
			err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead}, func(tx *pgssi.Tx) error {
				return tx.Put("t", fmt.Sprintf("k%04d", i%keys), []byte(fmt.Sprintf("v%08d", i)))
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < commits-suffix; i++ {
			put(i)
		}
		if checkpoint {
			if _, err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		for i := commits - suffix; i < commits; i++ {
			put(i)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	for _, ckpt := range []bool{false, true} {
		name := "nocheckpoint"
		if ckpt {
			name = "checkpoint"
		}
		b.Run(name, func(b *testing.B) {
			dir := build(b, ckpt)
			var recovered int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := pgssi.OpenDir(dir, pgssi.Config{})
				if err != nil {
					b.Fatal(err)
				}
				recovered = db.WALRecoveredRecords()
				db.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(recovered), "recovered/open")
		})
	}
}

func BenchmarkGroupCommit(b *testing.B) {
	modes := []struct {
		name string
		mode pgssi.FsyncMode
	}{
		{"always", pgssi.FsyncAlways},
		{"batch", pgssi.FsyncBatch},
		{"off", pgssi.FsyncOff},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			db, err := pgssi.OpenDir(b.TempDir(), pgssi.Config{FsyncMode: m.mode})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := db.CreateTable("t"); err != nil {
				b.Fatal(err)
			}
			var ctr atomic.Uint64
			val := []byte("group-commit-payload")
			// Group commit needs many committers in flight at once;
			// RunParallel's default (GOMAXPROCS goroutines) leaves batch
			// mode with nothing to batch on small machines.
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					id := ctr.Add(1)
					tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
					if err != nil {
						b.Error(err)
						return
					}
					if err := tx.Insert("t", fmt.Sprintf("k%016d", id), val); err != nil {
						b.Error(err)
						return
					}
					if err := tx.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			st := db.WALStats()
			if st.Fsyncs > 0 {
				b.ReportMetric(float64(b.N)/float64(st.Fsyncs), "commits/fsync")
			}
			b.ReportMetric(float64(st.Fsyncs), "fsyncs")
			b.ReportMetric(float64(st.BytesWritten)/float64(b.N), "walB/commit")
		})
	}
	// Batch mode with a fixed number of closed-loop committers. One has
	// nobody to wait for and must pay one sync and no more (ns/op close to
	// sync-µs); sixteen keep the flusher gathering. commits/sync counts
	// the per-batch data syncs alone (Fsyncs counts rotations' and the
	// directory's too), sync-µs is what one of them takes.
	for _, committers := range []int{1, 2, 16} {
		b.Run(fmt.Sprintf("batch/%d", committers), func(b *testing.B) {
			db, err := pgssi.OpenDir(b.TempDir(), pgssi.Config{FsyncMode: pgssi.FsyncBatch})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := db.CreateTable("t"); err != nil {
				b.Fatal(err)
			}
			var ctr atomic.Int64
			val := []byte("group-commit-payload")
			st0 := db.WALStats()
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < committers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for id := ctr.Add(1); id <= int64(b.N); id = ctr.Add(1) {
						err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
							return tx.Insert("t", fmt.Sprintf("k%016d", id), val)
						})
						if err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			st := db.WALStats()
			if syncs := (st.Batches - st.UnsyncedBatches) - (st0.Batches - st0.UnsyncedBatches); syncs > 0 {
				b.ReportMetric(float64(b.N)/float64(syncs), "commits/sync")
				b.ReportMetric(float64(st.SyncNanos-st0.SyncNanos)/1e3/float64(syncs), "sync-µs")
			}
		})
	}
}
