package pgssi_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/trace"
)

// Tests in this file drive the read-vs-write detection window with a
// deterministic interleaving harness. The engine's Serializable level
// computes a read's MVCC conflict-out set and inserts its SIREAD lock in
// separate steps; the per-page read latch (internal/storage/latch.go)
// makes the pair atomic with respect to writers of the same page. The
// trace seam's Read point fires exactly between the two steps, and a
// pauser armed on it parks a chosen reader there, so the tests prove the
// latch closes the window: the canonical write-skew interleaving cannot
// be scheduled (the writer blocks on the latch until the reader's SIREAD
// lock is registered), and exactly one transaction aborts with a
// serialization failure. Without the latch a writer would slip its
// CheckWrite probe into the window, both transactions would commit, and
// write skew would survive SERIALIZABLE — the §2.1.1 silent corruption.
// The mutation table (mutants_test.go) removes the latch from each read
// path and from the write path in turn, and requires these tests to fail.
//
// The absent-key/gap case has no such window — the index leaf gap lock
// is taken under the btree tree lock before the heap read, which holds
// no page latch at all.
//
// Subtests named latch-disabled=false or fencing-disabled=false keep the
// names they had when each fence could be switched off, so test IDs and
// archived results still compare.

// pauser is the one harness every interleaving test in this package
// parks a transaction with. It is a trace function (Hooks.Trace) that,
// once armed on a trace point and a predicate, parks the first event
// matching both: inWindow closes while the event's goroutine sits in the
// window, and release lets it go. Every other event passes through.
type pauser struct {
	armed    atomic.Pointer[pauseAt]
	inWindow chan struct{}
	release  chan struct{}
}

// pauseAt is what a pauser is armed with; a nil match takes any event at
// the point.
type pauseAt struct {
	point trace.Point
	match func(trace.Event) bool
}

func newPauser() *pauser {
	return &pauser{inWindow: make(chan struct{}), release: make(chan struct{})}
}

// arm makes the next event at point that satisfies match park. Arm once,
// before starting the goroutine that is to hit the window.
func (p *pauser) arm(point trace.Point, match func(trace.Event) bool) {
	p.armed.Store(&pauseAt{point: point, match: match})
}

func (p *pauser) trace(ev trace.Event) {
	at := p.armed.Load()
	if at == nil || ev.Point != at.point || (at.match != nil && !at.match(ev)) {
		return
	}
	if p.armed.CompareAndSwap(at, nil) {
		close(p.inWindow)
		<-p.release
	}
}

// ofKey matches the events of reads of key.
func ofKey(key string) func(trace.Event) bool {
	return func(ev trace.Event) bool { return ev.Key == key }
}

// ofXID matches the events of transaction xid.
func ofXID(xid uint64) func(trace.Event) bool {
	return func(ev trace.Event) bool { return ev.XID == xid }
}

// windowDB builds a two-row database, traced by p, whose rows land on
// distinct heap pages (64 filler rows push k2 onto the next page), so the
// latch held by a paused reader of k1 does not incidentally block reads
// of k2.
func windowDB(t *testing.T, p *pauser) *pgssi.DB {
	t.Helper()
	db := pgssi.OpenWithHooks(pgssi.Config{}, pgssi.Hooks{Trace: p.trace})
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	seed, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, seed.Insert("t", "k1", []byte("on")))
	for i := 0; i < 64; i++ {
		mustExec(t, seed.Insert("t", fmt.Sprintf("filler%02d", i), []byte("x")))
	}
	mustExec(t, seed.Insert("t", "k2", []byte("on")))
	mustExec(t, seed.Commit())
	return db
}

// readKey reads one key either through the point-read path (Get) or the
// index-scan path (Scan), the two paths whose SIREAD registration the
// latch must make atomic with the visibility check.
func readKey(tx *pgssi.Tx, key string, viaScan bool) ([]byte, error) {
	if !viaScan {
		return tx.Get("t", key)
	}
	var val []byte
	found := false
	err := tx.Scan("t", key, key+"\x00", func(_ string, v []byte) bool {
		val, found = v, true
		return true
	})
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, pgssi.ErrNotFound
	}
	return val, nil
}

// driveWindowWriteSkew drives the canonical write-skew interleaving
// with T1 parked in the detection window of its read of k1:
//
//	T1: read k1 … [window] …            … write k2, commit
//	T2:            read k2, write k1, commit
//
// T2 blocks on the page latch until T1's SIREAD lock is in the table.
// Returns the first error of each transaction.
func driveWindowWriteSkew(t *testing.T, db *pgssi.DB, p *pauser, viaScan bool) (err1, err2 error) {
	t.Helper()
	t1, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, err)
	t2, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, err)

	p.arm(trace.Read, ofKey("k1"))
	t2start := make(chan struct{})
	t2finished := make(chan struct{})
	t1finished := make(chan struct{})
	var t1err, t2err error

	go func() {
		defer close(t1finished)
		t1err = func() error {
			if _, err := readKey(t1, "k1", viaScan); err != nil {
				t1.Rollback()
				return err
			}
			// Keep the canonical order: T1 resumes its writes only
			// after T2 is done.
			<-t2finished
			if err := t1.Update("t", "k2", []byte("off")); err != nil {
				t1.Rollback()
				return err
			}
			return t1.Commit()
		}()
	}()

	go func() {
		defer close(t2finished)
		<-t2start
		t2err = func() error {
			if _, err := readKey(t2, "k2", viaScan); err != nil {
				t2.Rollback()
				return err
			}
			if err := t2.Update("t", "k1", []byte("off")); err != nil {
				t2.Rollback()
				return err
			}
			return t2.Commit()
		}()
	}()

	<-p.inWindow
	close(t2start)
	// The latch excludes the writer for as long as the reader holds the
	// page. (A false pass here would need T2 to finish; a slow scheduler
	// can only make the select take the safe timeout arm.)
	select {
	case <-t2finished:
		t.Fatal("writer committed while reader held the page latch")
	case <-time.After(50 * time.Millisecond):
	}
	close(p.release)
	<-t1finished
	<-t2finished
	return t1err, t2err
}

// onCount counts rows of value "on" among k1, k2.
func onCount(t *testing.T, db *pgssi.DB) int {
	t.Helper()
	check, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	mustExec(t, err)
	defer check.Rollback()
	n := 0
	for _, k := range []string{"k1", "k2"} {
		v, err := check.Get("t", k)
		if err != nil {
			t.Fatal(err)
		}
		if string(v) == "on" {
			n++
		}
	}
	return n
}

func TestDetectionWindowWriteSkew(t *testing.T) {
	// The Scan case runs through the streaming scan read path:
	// visibility and SIREAD registration for a whole heap page happen
	// under one shared latch, registration before the latch drops, so
	// the writer provably blocks until the batch's registration is in
	// the table.
	for _, via := range []struct {
		name    string
		viaScan bool
	}{{"Get", false}, {"Scan", true}} {
		t.Run(via.name, func(t *testing.T) {
			t.Run("latch-enabled-detects", func(t *testing.T) {
				err1, err2 := runWindowWriteSkewCheck(t, via.viaScan)
				if (err1 == nil) == (err2 == nil) {
					t.Fatalf("exactly one transaction should fail: err1=%v err2=%v", err1, err2)
				}
				failed := err1
				if failed == nil {
					failed = err2
				}
				if !pgssi.IsSerializationFailure(failed) {
					t.Fatalf("failure should be a serialization failure, got %v", failed)
				}
			})
		})
	}
}

// runWindowWriteSkewCheck runs the interleaving and verifies the final
// state matches the commit outcome: the invariant "at least one of k1,
// k2 is on" is broken exactly when both transactions committed.
func runWindowWriteSkewCheck(t *testing.T, viaScan bool) (err1, err2 error) {
	t.Helper()
	p := newPauser()
	db := windowDB(t, p)
	err1, err2 = driveWindowWriteSkew(t, db, p, viaScan)
	aborted := 0
	for _, e := range []error{err1, err2} {
		if e != nil {
			if !pgssi.IsSerializationFailure(e) {
				t.Fatalf("unexpected error: %v", e)
			}
			aborted++
		}
	}
	if n := onCount(t, db); (aborted == 0) != (n == 0) {
		t.Fatalf("final state inconsistent with outcome: %d aborts, %d rows on", aborted, n)
	}
	return err1, err2
}

// TestDetectionWindowWriterFirst is the opposite commit order: the
// writer's update and commit land entirely before the reader's
// visibility check, so the conflict is inferred from MVCC data (§5.2's
// "if the write happens first" case) and detection does not depend on
// the latch. Exactly one transaction must abort.
func TestDetectionWindowWriterFirst(t *testing.T) {
	for _, via := range []struct {
		name    string
		viaScan bool
	}{{"Get", false}, {"Scan", true}} {
		t.Run(via.name+"/latch-disabled=false", func(t *testing.T) {
			db := windowDB(t, newPauser())
			t1, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
			mustExec(t, err)
			t2, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
			mustExec(t, err)

			// T2 runs to completion first (T1's snapshot already
			// taken, so the transactions are concurrent).
			var err2 error
			if _, err := readKey(t2, "k2", via.viaScan); err != nil {
				t.Fatal(err)
			}
			if err := t2.Update("t", "k1", []byte("off")); err != nil {
				err2 = err
				t2.Rollback()
			} else {
				err2 = t2.Commit()
			}
			mustExec(t, err2)

			// T1's read of k1 now sees T2's committed, invisible
			// version: conflict out via MVCC.
			var err1 error
			if _, err := readKey(t1, "k1", via.viaScan); err != nil {
				err1 = err
				t1.Rollback()
			} else if err := t1.Update("t", "k2", []byte("off")); err != nil {
				err1 = err
				t1.Rollback()
			} else {
				err1 = t1.Commit()
			}
			if err1 == nil {
				t.Fatal("T1 must abort: T2 → T1 → T2 is a cycle with T2 committed")
			}
			if !pgssi.IsSerializationFailure(err1) {
				t.Fatalf("expected serialization failure, got %v", err1)
			}
			if n := onCount(t, db); n != 1 {
				t.Fatalf("invariant broken: %d rows on, want 1", n)
			}
		})
	}
}

// TestDetectionWindowGapInsert covers the absent-key/gap case: two
// transactions each probe a missing key and insert the other's key. The
// gap path has no detection window — the index leaf gap lock is taken
// under the btree tree lock before the heap read — so the antidependency
// cycle is caught with the reader paused in the same hook window, where
// it holds no page latch (there is no visible version) and the writer
// runs to completion.
func TestDetectionWindowGapInsert(t *testing.T) {
	t.Run("latch-disabled=false", func(t *testing.T) {
		p := newPauser()
		db := windowDB(t, p)
		t1, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
		mustExec(t, err)
		t2, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
		mustExec(t, err)

		p.arm(trace.Read, ofKey("g1"))
		t1finished := make(chan struct{})
		t2finished := make(chan struct{})
		var err1, err2 error
		go func() {
			defer close(t1finished)
			err1 = func() error {
				if _, err := t1.Get("t", "g1"); !errors.Is(err, pgssi.ErrNotFound) {
					return fmt.Errorf("gap probe: got %v, want ErrNotFound", err)
				}
				<-t2finished
				if err := t1.Insert("t", "g2", []byte("v")); err != nil {
					t1.Rollback()
					return err
				}
				return t1.Commit()
			}()
		}()

		<-p.inWindow
		// T2 commits entirely while T1 is paused after its gap
		// probe: the index gap lock T1 took before the pause is
		// what T2's CheckIndexInsert must find.
		go func() {
			defer close(t2finished)
			err2 = func() error {
				if _, err := t2.Get("t", "g2"); !errors.Is(err, pgssi.ErrNotFound) {
					return fmt.Errorf("gap probe: got %v, want ErrNotFound", err)
				}
				if err := t2.Insert("t", "g1", []byte("v")); err != nil {
					t2.Rollback()
					return err
				}
				return t2.Commit()
			}()
		}()
		<-t2finished
		close(p.release)
		<-t1finished

		if (err1 == nil) == (err2 == nil) {
			t.Fatalf("exactly one transaction should fail: err1=%v err2=%v", err1, err2)
		}
		failed := err1
		if failed == nil {
			failed = err2
		}
		if !pgssi.IsSerializationFailure(failed) {
			t.Fatalf("failure should be a serialization failure, got %v", failed)
		}
	})
}

// ---------------------------------------------------------------------------
// Lifecycle interleaving harness (PR 3).
//
// The lifecycle refactor decomposed the global SSI mutex: Begin registers
// through a sharded registry with a snapshot-ordering step, conflict-free
// commits run under only their own edge lock, and cleanup moved to an
// epoch reclaimer. Each narrowed critical section is falsifiable the same
// way the read latch is: the pauser parks a transaction inside the
// window at the trace seam's Begin or PreCommit point, and the tests
// prove the racing transaction blocks and the anomaly cannot be
// scheduled. The mutation table's "Commit unfenced" and "read-only Begin
// unfenced" entries (mutants_test.go) split each critical section at its
// trace point and require these tests to fail.

// TestLifecyclePreCommitWindowWriteSkew drives write skew against the
// pre-commit window: T1 passes its pre-commit serialization check and is
// parked before its commit-sequence assignment, while T2 builds the
// closing rw-antidependency cycle (T2 reads what T1 wrote, writes what
// T1 read) and commits, dooming T1.
//
//	T1: read k1, write k2, [check passes — window] … assign seq, finish
//	T2:                    read k2, write k1, commit (dooms T1)
//
// With fencing, the check and the assignment are one critical section
// (T1 holds its edge lock across the window, since it is conflict-free
// at check time), so T2's conflict flagging provably blocks until T1 is
// committed and exactly one transaction fails. Split, T1 would commit
// despite the doom and the write-skew anomaly would survive
// SERIALIZABLE.
func TestLifecyclePreCommitWindowWriteSkew(t *testing.T) {
	t.Run("fencing-blocks-and-detects", func(t *testing.T) {
		err1, err2, on := runLifecyclePreCommitWindow(t)
		if (err1 == nil) == (err2 == nil) {
			t.Fatalf("exactly one transaction should fail: err1=%v err2=%v", err1, err2)
		}
		failed := err1
		if failed == nil {
			failed = err2
		}
		if !pgssi.IsSerializationFailure(failed) {
			t.Fatalf("failure should be a serialization failure, got %v", failed)
		}
		if on != 1 {
			t.Fatalf("one transaction aborted: %d rows on, want 1", on)
		}
	})
}

func runLifecyclePreCommitWindow(t *testing.T) (err1, err2 error, on int) {
	t.Helper()
	p := newPauser()
	db := windowDB(t, p)
	t1, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, err)
	t2, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, err)

	if _, err := t1.Get("t", "k1"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Update("t", "k2", []byte("off")); err != nil {
		t.Fatal(err)
	}
	p.arm(trace.PreCommit, ofXID(t1.ID()))
	t1done := make(chan struct{})
	go func() {
		defer close(t1done)
		err1 = t1.Commit()
	}()
	<-p.inWindow

	t2done := make(chan struct{})
	go func() {
		defer close(t2done)
		err2 = func() error {
			if _, err := t2.Get("t", "k2"); err != nil {
				t2.Rollback()
				return err
			}
			if err := t2.Update("t", "k1", []byte("off")); err != nil {
				t2.Rollback()
				return err
			}
			return t2.Commit()
		}()
	}()

	// T1 holds its commit critical section across the window; T2's first
	// conflict against T1 (its read of k2 sees T1's uncommitted version)
	// must block on it.
	select {
	case <-t2done:
		t.Fatal("T2 finished while T1 held its commit critical section")
	case <-time.After(50 * time.Millisecond):
	}
	close(p.release)
	<-t1done
	<-t2done
	return err1, err2, onCount(t, db)
}

// TestLifecycleReadOnlyBeginWindow drives the §4.2 safe-snapshot
// bookkeeping against Begin's window between snapshot acquisition and
// safety-watcher registration. The schedule makes RO's snapshot
// genuinely unsafe: a read/write transaction X (with an rw-conflict out
// to T3, which committed before RO's snapshot) commits inside RO's
// begin window.
//
//	T3: write k1, commit (C1)                 [X → T3 flagged first]
//	X:  read k1 … write k2 …                  … commit (out-conflict C1)
//	RO:              snapshot [window] register-watchers, read k1, k2
//
// Begin holds the snapshot and the watcher scan in one critical
// section: X's commit provably blocks until RO is watching it, the
// verdict resolves to unsafe, and RO's subsequent read of k2 — a
// dangerous structure RO → X → T3 with T3 committed before RO's snapshot
// — correctly aborts RO. Were RO wrongly marked safe (it would drop SSI
// tracking entirely), it would silently observe the impossible state
// {k1 from T3, k2 pre-X}: RO must follow T3 (it saw T3's write), precede
// X (it missed X's write), yet X precedes T3 in every serial order (X
// read k1 before T3 changed it) — a cycle.
func TestLifecycleReadOnlyBeginWindow(t *testing.T) {
	t.Run("fencing-disabled=false", func(t *testing.T) {
		p := newPauser()
		db := windowDB(t, p)
		x, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
		mustExec(t, err)
		t3, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
		mustExec(t, err)

		// X reads k1, then T3 overwrites it and commits: X → T3.
		if _, err := x.Get("t", "k1"); err != nil {
			t.Fatal(err)
		}
		if err := t3.Update("t", "k1", []byte("t3")); err != nil {
			t.Fatal(err)
		}
		mustExec(t, t3.Commit())
		// X writes, so its commit matters for snapshot safety.
		if err := x.Update("t", "k2", []byte("x")); err != nil {
			t.Fatal(err)
		}

		// RO begins and parks in the lifecycle window.
		p.arm(trace.Begin, nil)
		var ro *pgssi.Tx
		roBegun := make(chan struct{})
		go func() {
			defer close(roBegun)
			var err error
			ro, err = db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable, ReadOnly: true})
			if err != nil {
				t.Error(err)
			}
		}()
		<-p.inWindow

		// X commits inside RO's begin window: RO's Begin holds the
		// critical section, so X's commit must block on it.
		xdone := make(chan struct{})
		var xerr error
		go func() {
			defer close(xdone)
			xerr = x.Commit()
		}()
		select {
		case <-xdone:
			t.Fatal("X committed while RO held its begin critical section")
		case <-time.After(50 * time.Millisecond):
		}
		close(p.release)
		<-roBegun
		<-xdone
		mustExec(t, xerr)

		_, err1 := ro.Get("t", "k1")
		// The verdict is unsafe, RO keeps full SSI tracking, and the
		// dangerous structure RO → X → T3 aborts RO when it tries to read
		// around X's write.
		if ro.OnSafeSnapshot() {
			t.Fatal("fenced begin must resolve the snapshot unsafe")
		}
		mustExec(t, err1)
		_, err2 := ro.Get("t", "k2")
		if err2 == nil {
			ro.Rollback()
			t.Fatal("RO's read of k2 must abort: RO → X → T3 with T3 committed before RO's snapshot")
		}
		if !pgssi.IsSerializationFailure(err2) {
			t.Fatalf("expected serialization failure, got %v", err2)
		}
		ro.Rollback()
	})
}
