package server

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/mvcc"
	"pgssi/internal/wal"
	"pgssi/internal/wire"
)

// replicationSoak is the wall-clock budget for TestReplicationSoak. The
// PR gate runs the default; the nightly job raises it (see
// .github/workflows/nightly.yml).
var replicationSoak = flag.Duration("replication-soak", 1500*time.Millisecond,
	"duration of the replication soak's write workload")

// severableProxy is a TCP relay whose live connections can be cut while
// the listener keeps accepting — a network partition the replica must
// ride out by reconnecting.
type severableProxy struct {
	l      net.Listener
	target string
	refuse atomic.Bool // accepted connections are closed immediately
	mu     sync.Mutex
	conns  []net.Conn
}

func newSeverableProxy(t *testing.T, target string) *severableProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &severableProxy{l: l, target: target}
	go func() {
		for {
			in, err := l.Accept()
			if err != nil {
				return
			}
			if p.refuse.Load() {
				in.Close()
				continue
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, in, out)
			p.mu.Unlock()
			go func() { io.Copy(out, in); out.Close() }()
			go func() { io.Copy(in, out); in.Close() }()
		}
	}()
	return p
}

// sever cuts every live relayed connection; new dials still go through.
func (p *severableProxy) sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *severableProxy) Close() {
	p.l.Close()
	p.sever()
}

// TestReplicationSoak runs a primary under a write-skew-prone workload
// with two streaming replicas — one of which has its connection cut
// mid-run and must reconnect — and checks the two ISSUE invariants:
// serializable replica reads NEVER observe write skew (every read is on
// a safe snapshot and the pair invariant holds), and after the workload
// drains both replicas converge to exactly the primary's state.
//
// The workload is the classic two-account skew: each pair (aN, bN)
// starts at 100/100 and a writer may withdraw 150 from one side iff the
// pair's sum covers it. Under snapshot isolation two concurrent
// withdrawals both see sum 200 and drive the sum to -100; under SSI one
// of them aborts, so sum >= 0 is the no-write-skew oracle.
func TestReplicationSoak(t *testing.T) {
	const pairs = 8
	db := attachedDB(t, "acct")
	err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
		for i := 0; i < pairs; i++ {
			if err := tx.Insert("acct", fmt.Sprintf("a%d", i), []byte("100")); err != nil {
				return err
			}
			if err := tx.Insert("acct", fmt.Sprintf("b%d", i), []byte("100")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	srv, _ := startServer(t, db, Config{})
	defer srv.Shutdown()

	// Replica 1 streams straight from the server; replica 2 streams
	// through the severable proxy.
	rep1 := pgssi.NewReplica(&wire.ReplicaSource{Addr: srv.addr, DialTimeout: 5 * time.Second})
	defer rep1.Close()
	proxy := newSeverableProxy(t, srv.addr)
	defer proxy.Close()
	rep2 := pgssi.NewReplica(&wire.ReplicaSource{Addr: proxy.l.Addr().String(), DialTimeout: 5 * time.Second})
	defer rep2.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var skews atomic.Int64 // writer-observed: committed withdrawals that broke the invariant

	// Writers: withdraw-if-covered, refill when drained.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(pairs)
				ka, kb := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
				victim := ka
				if rng.Intn(2) == 0 {
					victim = kb
				}
				db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
					a, err := readInt(tx, ka)
					if err != nil {
						return err
					}
					b, err := readInt(tx, kb)
					if err != nil {
						return err
					}
					if a+b < 150 {
						// Drained: refill so the workload keeps contending.
						if err := tx.Put("acct", ka, []byte("100")); err != nil {
							return err
						}
						return tx.Put("acct", kb, []byte("100"))
					}
					cur := a
					if victim == kb {
						cur = b
					}
					return tx.Put("acct", victim, []byte(strconv.Itoa(cur-150)))
				})
			}
		}(int64(w))
	}

	// Replica readers: every serializable deferrable read must land on a
	// safe snapshot and must never observe a pair sum below zero.
	var reads [2]atomic.Int64
	readLoop := func(idx int, rep *pgssi.Replica) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true, WaitSafe: true})
			if err != nil {
				// The replica may be mid-reconnect; back off, never halt the loop.
				time.Sleep(time.Millisecond)
				continue
			}
			if !tx.OnSafeSnapshot() {
				skews.Add(1 << 32) // flag separately from sum violations
				tx.Rollback()
				continue
			}
			for i := 0; i < pairs; i++ {
				a, erra := readInt(tx, fmt.Sprintf("a%d", i))
				b, errb := readInt(tx, fmt.Sprintf("b%d", i))
				if erra != nil || errb != nil {
					continue
				}
				if a+b < 0 {
					skews.Add(1)
				}
			}
			tx.Rollback()
			reads[idx].Add(1)
		}
	}
	wg.Add(2)
	go readLoop(0, rep1)
	go readLoop(1, rep2)

	// Mid-run: cut replica 2's network and make sure it reconnects and
	// resumes applying.
	time.Sleep(*replicationSoak / 3)
	before, _ := rep2.AppliedRecords()
	proxy.sever()
	time.Sleep(*replicationSoak * 2 / 3)
	close(stop)
	wg.Wait()

	if n := skews.Load(); n != 0 {
		t.Fatalf("replica serializable reads observed %d invariant violations (write skew or unsafe snapshot)", n)
	}
	if reads[0].Load() == 0 || reads[1].Load() == 0 {
		t.Fatalf("replica read loops starved: %d / %d reads", reads[0].Load(), reads[1].Load())
	}
	if rep2.Err() != nil {
		t.Fatalf("replica 2 halted instead of reconnecting: %v", rep2.Err())
	}

	// Convergence: with the writers stopped, both replicas must reach
	// the primary's commit-sequence position and match its state row for
	// row. Convergence is judged by sequence position, not record count:
	// across a reconnect the boundary dedup means a replica's applied
	// COUNT need not equal the log length, but commits are delivered
	// exactly once, so reaching the primary's seq means all data applied.
	// (The last transaction to finish emitted a marker, so SafeSeq
	// reaches the same position.)
	want := uint64(db.CurrentSeq())
	for i, rep := range []*pgssi.Replica{rep1, rep2} {
		rep := rep
		waitFor(t, 10*time.Second, func() bool {
			return rep.AppliedSeq() == want && rep.SafeSeq() == want
		}, fmt.Sprintf("replica %d to converge to seq %d", i+1, want))
	}
	after, _ := rep2.AppliedRecords()
	if after <= before {
		t.Fatalf("replica 2 made no progress after the partition (%d -> %d records)", before, after)
	}

	wantRows := tableDump(t, func() (*pgssi.Tx, error) {
		return db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true})
	})
	for i, rep := range []*pgssi.Replica{rep1, rep2} {
		got := tableDump(t, func() (*pgssi.Tx, error) {
			return rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true, WaitSafe: true})
		})
		if len(got) != len(wantRows) {
			t.Fatalf("replica %d diverged: %d rows vs primary's %d", i+1, len(got), len(wantRows))
		}
		for k, v := range wantRows {
			if got[k] != v {
				t.Fatalf("replica %d diverged at %q: %q vs primary's %q", i+1, k, got[k], v)
			}
		}
	}
	t.Logf("soak: %d records at seq %d, reads %d/%d, primary rows %d",
		db.WALStats().Appends, want, reads[0].Load(), reads[1].Load(), len(wantRows))
}

// TestReplicationReseedAfterGC is the truncation edge of the soak: a
// streaming replica is partitioned, the primary checkpoints and GCs the
// WAL segments the replica still needs, and on reconnect the resume
// position falls below the GC floor. The primary must answer with the
// truncated-resume status (never a silent gap), and the replica must
// re-seed itself from a fetched checkpoint and converge row for row.
func TestReplicationReseedAfterGC(t *testing.T) {
	dir := t.TempDir()
	db, err := pgssi.OpenDir(dir, pgssi.Config{
		FsyncMode:      pgssi.FsyncBatch,
		WALSegmentSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("acct"); err != nil {
		t.Fatal(err)
	}
	put := func(key, val string) {
		t.Helper()
		err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead}, func(tx *pgssi.Tx) error {
			return tx.Put("acct", key, []byte(val))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		put(fmt.Sprintf("k%03d", i), "before-partition")
	}

	srv, _ := startServer(t, db, Config{})
	defer srv.Shutdown()
	proxy := newSeverableProxy(t, srv.addr)
	defer proxy.Close()

	rep := pgssi.NewReplica(&wire.ReplicaSource{Addr: proxy.l.Addr().String(), DialTimeout: 5 * time.Second})
	defer rep.Close()
	waitFor(t, 10*time.Second, func() bool {
		return rep.AppliedSeq() == uint64(db.CurrentSeq())
	}, "replica to catch up before the partition")

	// Partition the replica, then move the primary far enough that a
	// checkpoint GCs every segment holding the replica's resume position.
	proxy.refuse.Store(true)
	proxy.sever()
	behind := rep.AppliedSeq()
	for i := 0; i < 80; i++ {
		put(fmt.Sprintf("k%03d", i%60), "after-partition")
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.WALStats()
	if st.GCFloorSeq <= behind {
		t.Fatalf("GC floor %d did not pass the replica's position %d: the reseed path won't trigger", st.GCFloorSeq, behind)
	}

	// A direct resume below the floor must be refused loudly.
	direct := &wire.ReplicaSource{Addr: srv.addr, DialTimeout: 5 * time.Second}
	if _, _, err := direct.SubscribeFrom(mvcc.SeqNo(behind)); !errors.Is(err, wal.ErrSeqTruncated) {
		t.Fatalf("SubscribeFrom below the floor = %v, want wal.ErrSeqTruncated", err)
	}

	// Heal the network: the replica's next resume attempt sees the
	// truncation, fetches the checkpoint, and follows the live stream.
	proxy.refuse.Store(false)
	waitFor(t, 15*time.Second, func() bool {
		return rep.Err() == nil && rep.AppliedSeq() == uint64(db.CurrentSeq())
	}, "replica to re-seed from the checkpoint and converge")
	if rep.Err() != nil {
		t.Fatalf("replica halted instead of re-seeding: %v", rep.Err())
	}
	if rep.AppliedSeq() < st.CheckpointSeq {
		t.Fatalf("replica applied seq %d below the checkpoint %d it should have seeded from", rep.AppliedSeq(), st.CheckpointSeq)
	}

	// And it still follows live commits after the swap.
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("live%d", i), "after-reseed")
	}
	waitFor(t, 10*time.Second, func() bool {
		return rep.AppliedSeq() == uint64(db.CurrentSeq()) && rep.SafeSeq() == uint64(db.CurrentSeq())
	}, "replica to follow the live stream past the reseed")

	wantRows := tableDump(t, func() (*pgssi.Tx, error) {
		return db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true})
	})
	got := tableDump(t, func() (*pgssi.Tx, error) {
		return rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true, WaitSafe: true})
	})
	if len(got) != len(wantRows) {
		t.Fatalf("reseeded replica has %d rows, primary %d", len(got), len(wantRows))
	}
	for k, v := range wantRows {
		if got[k] != v {
			t.Fatalf("reseeded replica diverged at %q: %q vs primary's %q", k, got[k], v)
		}
	}
}

func readInt(tx *pgssi.Tx, key string) (int, error) {
	v, err := tx.Get("acct", key)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(string(v))
}

func tableDump(t *testing.T, begin func() (*pgssi.Tx, error)) map[string]string {
	t.Helper()
	tx, err := begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	out := make(map[string]string)
	if err := tx.Scan("acct", "", "", func(k string, v []byte) bool {
		out[k] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}
