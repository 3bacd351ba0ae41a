package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pgssi/internal/trace"
)

// Deterministic interleaving tests for the reclaim horizon — the epoch
// pin that keeps the background reclaimer from dropping committed state
// a transaction is still concurrent with. The trace seam parks a
// transaction inside Begin (Begin point) or a reclaim pass between its
// horizon computation and its critical section (ReclaimScan point); in
// both windows the pass must keep every committed transaction an active
// or starting snapshot could be concurrent with.

// beginPauser parks Begin of a chosen xid at the Begin trace point.
type beginPauser struct {
	xid      atomic.Uint64
	inWindow chan struct{}
	release  chan struct{}
}

func newBeginPauser() *beginPauser {
	return &beginPauser{inWindow: make(chan struct{}), release: make(chan struct{})}
}

func (p *beginPauser) trace(ev trace.Event) {
	if ev.Point == trace.Begin && p.xid.CompareAndSwap(ev.XID, 0) {
		close(p.inWindow)
		<-p.release
	}
}

// driveBeginWindowReclaim runs this schedule:
//
//	C: read k1, write k2, commit        [entirely inside X's window]
//	   … reclaim pass …                 [ditto]
//	X: begin … [window] … read k2 (MVCC conflict-out names C), write k1
//
// X's mvcc.Begin pinned the horizon before its SSI Begin parked, so the
// interesting question is what the reclaim pass inside the window did to
// C. Returns X, C, and whether C's SSI state was still present after the
// in-window reclaim pass.
func driveBeginWindowReclaim(t *testing.T, h *harness, p *beginPauser) (x, c *Xact, cSurvived bool) {
	t.Helper()
	xid := h.mv.Begin()
	p.xid.Store(uint64(xid))
	begun := make(chan struct{})
	go func() {
		defer close(begun)
		x, _ = h.mgr.Begin(xid, h.mv.TakeSnapshot, false, false)
	}()
	<-p.inWindow

	// C runs entirely inside X's begin window: the canonical write-skew
	// partner (reads k1, writes k2).
	c = h.begin(false)
	if err := h.read(c, "t", 1, "k1"); err != nil {
		t.Fatal(err)
	}
	if err := h.write(c, "t", 2, "k2"); err != nil {
		t.Fatal(err)
	}
	if err := h.commit(c); err != nil {
		t.Fatal(err)
	}
	// The reclaim pass races X's parked Begin.
	h.mgr.ReclaimNow()
	cSurvived = h.mgr.HoldsLock(c, TupleTarget("t", 1, "k1"))
	owner, _ := h.mv.Attached(c.XID)
	if tracked := owner == c; tracked != cSurvived {
		t.Fatalf("commit log and lock table disagree about C: attached=%v, lock held=%v", tracked, cSurvived)
	}

	close(p.release)
	<-begun
	return x, c, cSurvived
}

func TestLifecycleBeginEpochPinsReclaim(t *testing.T) {
	p := newBeginPauser()
	h := newHarness(t, Config{Trace: p.trace})
	seedKeys(t, h)

	x, c, cSurvived := driveBeginWindowReclaim(t, h, p)
	// Fenced Begin registered X with a snapshot bound before parking:
	// the bound predates C's commit, so the reclaimer must keep C.
	if !cSurvived {
		t.Fatal("reclaim pass dropped a committed transaction while a registered Begin was parked before its snapshot")
	}
	// The fenced order takes X's snapshot after the park, so X is NOT
	// concurrent with C (its snapshot sees C's commit) and a later
	// reclaim pass may now drop C — the pin is released, not leaked.
	if x.SnapshotSeq < c.CommitSeq {
		t.Fatalf("fenced Begin's snapshot (%d) must postdate the in-window commit (%d)", x.SnapshotSeq, c.CommitSeq)
	}
	h.abort(x)
	h.mgr.ReclaimNow()
	if n := h.mgr.TrackedXacts(); n != 0 {
		t.Fatalf("epoch pin leaked: %d transactions still tracked after quiesce", n)
	}
}

// reclaimPauser parks the first reclaim pass that reaches the
// ReclaimScan trace point once armed.
type reclaimPauser struct {
	armed    atomic.Bool
	inWindow chan struct{}
	release  chan struct{}
}

func (p *reclaimPauser) trace(ev trace.Event) {
	if ev.Point == trace.ReclaimScan && p.armed.CompareAndSwap(true, false) {
		close(p.inWindow)
		<-p.release
	}
}

// TestLifecycleReclaimPassStaleHorizon parks a reclaim pass after it has
// computed its horizon on an idle system and runs a write skew while it
// waits:
//
//	pass: horizon (nobody active) … [parked] ……………………… drop what is at or below it
//	C:                  begin, read k1, write k2, commit
//	W:                  begin,   read k2 ………………………………………… write k1, commit
//
// W → C is flagged when C writes k2. C → W needs C's SIREAD lock on k1
// when W writes it, after the pass has resumed. A horizon that is not
// bounded by the commit sequence current when it was computed lets the
// pass drop C — committed after the horizon was computed, while W is
// still concurrent with it — and W commits the cycle.
func TestLifecycleReclaimPassStaleHorizon(t *testing.T) {
	p := &reclaimPauser{inWindow: make(chan struct{}), release: make(chan struct{})}
	h := newHarness(t, Config{Trace: p.trace})
	seedKeys(t, h)

	p.armed.Store(true)
	passDone := make(chan struct{})
	go func() {
		defer close(passDone)
		h.mgr.ReclaimNow()
	}()
	<-p.inWindow

	c := h.begin(false)
	w := h.begin(false)
	if err := h.read(c, "t", 1, "k1"); err != nil {
		t.Fatal(err)
	}
	if err := h.read(w, "t", 2, "k2"); err != nil {
		t.Fatal(err)
	}
	if err := h.write(c, "t", 2, "k2"); err != nil {
		t.Fatal(err)
	}
	if err := h.commit(c); err != nil {
		t.Fatal(err)
	}
	close(p.release)
	<-passDone

	cKept := h.mgr.HoldsLock(c, TupleTarget("t", 1, "k1"))
	err := h.write(w, "t", 1, "k1")
	if err == nil {
		err = h.commit(w)
	} else {
		h.abort(w)
	}
	if !errors.Is(err, ErrSerializationFailure) {
		t.Fatalf("W closed the cycle C → W → C and got %v, want a serialization failure (C's SIREAD lock on k1 kept by the pass: %v)", err, cKept)
	}
}

// seedKeys gives the harness manager a committed baseline transaction so
// xids and commit seqs start above zero.
func seedKeys(t *testing.T, h *harness) {
	t.Helper()
	seed := h.begin(false)
	if err := h.write(seed, "t", 1, "seed"); err != nil {
		t.Fatal(err)
	}
	if err := h.commit(seed); err != nil {
		t.Fatal(err)
	}
	h.mgr.ReclaimNow()
}

// TestLifecycleIdleCommitDrainsReclaimer pins the quiescent-commit wake:
// a commit that leaves no transaction active must trigger a background
// reclaim on its own — without it, bursts shorter than the reclaim
// batch would retain their transactions and SIREAD locks until the next
// unrelated activity (or forever).
func TestLifecycleIdleCommitDrainsReclaimer(t *testing.T) {
	h := newHarness(t, Config{})
	x := h.begin(false)
	if err := h.read(x, "t", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := h.write(x, "t", 1, "b"); err != nil {
		t.Fatal(err)
	}
	if err := h.commit(x); err != nil {
		t.Fatal(err)
	}
	// Deliberately no ReclaimNow: the background pass must drain.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if h.mgr.TrackedXacts() == 0 && h.mgr.LockCount() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("background reclaimer never drained an idle manager: %d tracked, %d locks",
		h.mgr.TrackedXacts(), h.mgr.LockCount())
}
