package pgssi_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pgssi"
	"pgssi/internal/trace"
)

// Tests in this file drive the CSN commit-publication window with a
// deterministic interleaving harness, in the style of the read-vs-write
// window tests in interleaving_test.go. A commit (internal/mvcc) must
// assign its CSN and publish (xid → CSN) into the commit log as one
// atomic step for snapshotters; the fence is that both happen inside the
// commit-log shard's critical section, which every visibility lookup
// serializes behind. The pauser (interleaving_test.go), armed on the
// trace seam's CSNPublish point, parks a chosen committer immediately
// before the atomic step, so the test can prove the fence: a transaction
// snapshotting there sees the in-flight commit fully or not at all —
// here, not at all, for both keys the committer wrote, before AND after
// publication. The mutation table's "CSN assigned before publication"
// entry (mutants_test.go) assigns the CSN before the park, and the same
// reader then observes k1 from before the commit and k2 from after it —
// a fractured read no serial order explains, which fails the test.
//
// Both transactions run at RepeatableRead: snapshot atomicity is an
// MVCC-level contract, and at this level neither side takes SSI edge
// locks, so the parked committer cannot entangle the reader. (SSI would
// not mask the anomaly either — a torn read is a wr-dependency, which
// SIREAD tracking does not see.)

// csnWindowDB builds a two-row database and returns it with the pauser
// that traces it.
func csnWindowDB(t *testing.T) (*pgssi.DB, *pauser) {
	t.Helper()
	p := newPauser()
	db := pgssi.OpenWithHooks(pgssi.Config{}, pgssi.Hooks{Trace: p.trace})
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	seed, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, seed.Insert("t", "k1", []byte("old1")))
	mustExec(t, seed.Insert("t", "k2", []byte("old2")))
	mustExec(t, seed.Commit())
	return db, p
}

// parkCommitInWindow starts a transaction that updates both keys and
// parks its commit at the assignment→publication window. It returns a
// channel closed when the commit completes.
func parkCommitInWindow(t *testing.T, db *pgssi.DB, p *pauser) chan struct{} {
	t.Helper()
	w, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, w.Update("t", "k1", []byte("new1")))
	mustExec(t, w.Update("t", "k2", []byte("new2")))
	p.arm(trace.CSNPublish, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Commit(); err != nil {
			t.Errorf("writer commit: %v", err)
		}
	}()
	<-p.inWindow
	return done
}

func mustGetString(t *testing.T, tx *pgssi.Tx, key string) string {
	t.Helper()
	v, err := tx.Get("t", key)
	if err != nil {
		t.Fatalf("get %q: %v", key, err)
	}
	return string(v)
}

// TestCSNWindowFencedAllOrNothing: with the fence in place, a reader
// snapshotting inside the publication window includes the commit not at
// all — both keys read the old values, and re-reading after the commit
// publishes changes nothing, because the snapshot's CSN predates the
// commit's. A fresh snapshot then sees both new values.
func TestCSNWindowFencedAllOrNothing(t *testing.T) {
	db, p := csnWindowDB(t)
	done := parkCommitInWindow(t, db, p)

	r, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustGetString(t, r, "k1"); got != "old1" {
		t.Fatalf("in-window read of k1 = %q, want old1", got)
	}
	close(p.release)
	<-done
	// Same snapshot, after publication: still nothing of the commit.
	if got := mustGetString(t, r, "k2"); got != "old2" {
		t.Fatalf("fenced snapshot saw the commit partially: k2 = %q, want old2", got)
	}
	if got := mustGetString(t, r, "k1"); got != "old1" {
		t.Fatalf("fenced snapshot changed its mind: k1 = %q, want old1", got)
	}
	mustExec(t, r.Commit())

	r2, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	if err != nil {
		t.Fatal(err)
	}
	if g1, g2 := mustGetString(t, r2, "k1"), mustGetString(t, r2, "k2"); g1 != "new1" || g2 != "new2" {
		t.Fatalf("post-commit snapshot = {%q, %q}, want both new", g1, g2)
	}
	mustExec(t, r2.Commit())
}

// TestCommitLogBoundedWithoutSerializable: a process that never runs a
// serializable transaction still truncates its commit log — finishes
// below Serializable wake the reclaimer too — so with nobody calling
// Vacuum the log levels off where it used to hold every transaction
// run. (It levels off at whatever the workers commit between two turns
// of the background reclaimer: some 10k entries when it has a core to
// run on, 50k when three goroutines share one.)
func TestCommitLogBoundedWithoutSerializable(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	const (
		workers   = 2
		perWorker = 150_000
		bound     = workers * perWorker / 3
	)
	var wg sync.WaitGroup
	var largest atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", w)
			for i := 0; i < perWorker; i++ {
				err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead}, func(tx *pgssi.Tx) error {
					if _, err := tx.Get("t", key); err != nil && !errors.Is(err, pgssi.ErrNotFound) {
						return err
					}
					return tx.Put("t", key, []byte("v"))
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%1024 == 0 {
					if n := int64(db.CommitLogSize()); n > largest.Load() {
						largest.Store(n)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := int64(db.CommitLogSize()); n > largest.Load() {
		largest.Store(n)
	}
	if n := largest.Load(); n > bound {
		t.Fatalf("commit log reached %d entries over %d RepeatableRead transactions, want at most %d", n, workers*perWorker, bound)
	}
}

// TestVacuumTruncatesCommitLogWithoutSerializable: Vacuum truncates the
// commit log down to its own pin at any isolation level, whatever the
// background reclaimer (which works in batches, and lags) has left.
func TestVacuumTruncatesCommitLogWithoutSerializable(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, tx.Insert("t", fmt.Sprintf("k%03d", i), []byte("v")))
		mustExec(t, tx.Commit())
	}
	db.Vacuum()
	// Everything is finished, so Vacuum's pass at the horizon may drop
	// every entry; the bound leaves room for two.
	if after := db.CommitLogSize(); after > 2 {
		t.Fatalf("commit log holds %d entries after vacuum, want <= 2", after)
	}
	// The rows are all live and still readable through the truncated
	// region of the log.
	tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustGetString(t, tx, "k000"); got != "v" {
		t.Fatalf("k000 = %q after truncation, want v", got)
	}
	mustExec(t, tx.Commit())
}
