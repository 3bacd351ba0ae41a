package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pgssi/internal/mvcc"
	"pgssi/internal/trace"
)

// Deterministic interleaving tests for Begin's snapshot-ordering step —
// the epoch pin that keeps the background reclaimer from dropping
// committed state a starting transaction is still concurrent with. The
// trace seam's Begin point parks a transaction inside Begin; with fencing the
// transaction is already registered with a conservative snapshot bound
// when it parks, so a reclaim pass in the window must keep every
// committed transaction it could be concurrent with. With
// DisableLifecycleFencing the naive order (snapshot first, registration
// last) is restored and the same schedule reclaims the committed
// write-skew partner prematurely: both rw-antidependency edges are
// lost, both transactions commit, and the cycle is admitted.

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

// driveBeginWindowReclaim runs the schedule common to both tests below:
//
//	C: read k1, write k2, commit        [entirely inside X's window]
//	   … reclaim pass …                 [ditto]
//	X: begin … [window] … read k2 (MVCC conflict-out names C), write k1
//
// X's snapshot predates C's commit on the ablated path (snapshot taken
// before the park) and is taken under a registered bound on the fenced
// path, so in both modes the interesting question is what the reclaim
// pass inside the window did to C. Returns X, C, and whether C's SSI
// state was still present after the in-window reclaim pass.
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
	if _, tracked := h.mgr.lookupXact(c.XID); tracked != cSurvived {
		t.Fatalf("registry and lock table disagree about C: tracked=%v, lock held=%v", tracked, cSurvived)
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

func TestLifecycleBeginWindowPrematureReclaim(t *testing.T) {
	p := newBeginPauser()
	h := newHarness(t, Config{Trace: p.trace, DisableLifecycleFencing: true})
	seedKeys(t, h)

	x, c, cSurvived := driveBeginWindowReclaim(t, h, p)
	// The ablated Begin took its snapshot before parking and registered
	// nothing: the reclaim pass saw no active snapshot and dropped C —
	// premature reclamation, X's snapshot is still concurrent with C.
	if cSurvived {
		t.Fatal("ablated Begin still pinned the reclaim horizon; the window did not reopen")
	}
	if x.SnapshotSeq >= c.CommitSeq {
		t.Fatalf("ablation lost the race shape: X's snapshot (%d) should predate C's commit (%d)", x.SnapshotSeq, c.CommitSeq)
	}
	// X completes the write-skew cycle: its read of k2 sees C's write
	// as an MVCC conflict-out, and its write of k1 probes C's SIREAD
	// lock. Both edges land in reclaimed state and are lost, so X
	// commits — the anomaly C → X → C survives SERIALIZABLE.
	if err := h.mgr.CheckRead(x, "t", 2, "k2", []mvcc.TxID{c.XID}, false); err != nil {
		t.Fatalf("conflict-out against the reclaimed C should be silently dropped, got %v", err)
	}
	if err := h.write(x, "t", 1, "k1"); err != nil {
		t.Fatalf("write check against C's reclaimed SIREAD lock should find nothing, got %v", err)
	}
	if err := h.commit(x); err != nil {
		t.Fatalf("the ablation should let X commit and admit the write-skew cycle, got %v", err)
	}

	// Control: the identical conflict pattern against a still-tracked
	// committed transaction is caught (the edges, not the checker,
	// were lost above).
	h2 := newHarness(t, Config{})
	seedKeys(t, h2)
	x2 := h2.begin(false)
	c2 := h2.begin(false)
	if err := h2.read(c2, "t", 1, "k1"); err != nil {
		t.Fatal(err)
	}
	if err := h2.write(c2, "t", 2, "k2"); err != nil {
		t.Fatal(err)
	}
	if err := h2.commit(c2); err != nil {
		t.Fatal(err)
	}
	err := h2.mgr.CheckRead(x2, "t", 2, "k2", []mvcc.TxID{c2.XID}, false)
	if err == nil {
		err = h2.write(x2, "t", 1, "k1")
	}
	if err == nil {
		err = h2.commit(x2)
	}
	if !errors.Is(err, ErrSerializationFailure) {
		t.Fatalf("control: the same cycle with C tracked must abort X, got %v", err)
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
