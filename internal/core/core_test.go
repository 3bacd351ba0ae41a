package core

import (
	"errors"
	"testing"

	"pgssi/internal/mvcc"
)

// harness wires a core.Manager to an mvcc.Manager with convenience
// helpers mirroring the engine's call sequences.
type harness struct {
	t   *testing.T
	mv  *mvcc.Manager
	mgr *Manager
}

func newHarness(t *testing.T, cfg Config) *harness {
	mv := mvcc.NewManager()
	return &harness{t: t, mv: mv, mgr: NewManager(mv, cfg)}
}

func (h *harness) begin(readOnly bool) *Xact {
	xid := h.mv.Begin()
	x, _ := h.mgr.Begin(xid, h.mv.TakeSnapshot, readOnly, false)
	return x
}

func (h *harness) commit(x *Xact) error {
	err := h.mgr.Commit(x, func() mvcc.SeqNo { return h.mv.Commit(x.XID) })
	if err != nil {
		h.mv.Abort(x.XID)
		h.mgr.Abort(x)
	}
	return err
}

func (h *harness) abort(x *Xact) {
	h.mv.Abort(x.XID)
	h.mgr.Abort(x)
}

// read simulates reading key on (rel, page) with the given MVCC conflicts.
func (h *harness) read(x *Xact, rel string, page int64, key string, conflicts ...mvcc.TxID) error {
	return h.mgr.CheckRead(x, rel, page, key, conflicts, false)
}

// write simulates writing key whose old version lives on (rel, page).
func (h *harness) write(x *Xact, rel string, page int64, key string) error {
	return h.mgr.CheckWrite(x, rel, page, key)
}

func TestSIREADLockAcquireAndConflict(t *testing.T) {
	h := newHarness(t, Config{})
	r := h.begin(false)
	w := h.begin(false)
	if err := h.read(r, "t", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if !h.mgr.HoldsLock(r, TupleTarget("t", 1, "a")) {
		t.Fatal("reader must hold tuple SIREAD lock")
	}
	if err := h.write(w, "t", 1, "a"); err != nil {
		t.Fatal(err)
	}
	// Single antidependency: both commit fine.
	if err := h.commit(w); err != nil {
		t.Fatal(err)
	}
	if err := h.commit(r); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSkewPivotDoomedAtT3Commit(t *testing.T) {
	h := newHarness(t, Config{})
	t1 := h.begin(false)
	t2 := h.begin(false)
	// t1 reads a and b; t2 reads a and b.
	for _, x := range []*Xact{t1, t2} {
		if err := h.read(x, "t", 1, "a"); err != nil {
			t.Fatal(err)
		}
		if err := h.read(x, "t", 1, "b"); err != nil {
			t.Fatal(err)
		}
	}
	// t1 writes a (edge t2 → t1); t2 writes b (edge t1 → t2).
	if err := h.write(t1, "t", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := h.write(t2, "t", 1, "b"); err != nil {
		t.Fatal(err)
	}
	// First committer wins; the other must fail.
	if err := h.commit(t1); err != nil {
		t.Fatalf("first commit should succeed: %v", err)
	}
	if err := h.commit(t2); !errors.Is(err, ErrSerializationFailure) {
		t.Fatalf("second commit must fail with serialization failure, got %v", err)
	}
}

func TestTwoCycleDetectedWhenEdgeArrivesAfterCommit(t *testing.T) {
	// Regression for the strict-inequality bug found by the
	// randomized history checker: T_b commits with only an incoming
	// edge, then the closing edge T_b → T_a arrives while T_a is
	// active. T1 == T3 == T_b, which must not be dismissed as
	// "T1 committed before T3".
	h := newHarness(t, Config{})
	ta := h.begin(false)
	tb := h.begin(false)
	if err := h.read(ta, "t", 1, "k1"); err != nil {
		t.Fatal(err)
	}
	if err := h.read(tb, "t", 1, "k2"); err != nil {
		t.Fatal(err)
	}
	// tb writes k1 → edge ta → tb.
	if err := h.write(tb, "t", 1, "k1"); err != nil {
		t.Fatal(err)
	}
	if err := h.commit(tb); err != nil {
		t.Fatal(err)
	}
	// ta writes k2 → edge tb → ta, closing the 2-cycle. ta must fail
	// here or at commit.
	err := h.write(ta, "t", 1, "k2")
	if err == nil {
		err = h.commit(ta)
	}
	if !errors.Is(err, ErrSerializationFailure) {
		t.Fatalf("2-cycle must abort ta, got %v", err)
	}
}

func TestCommitOrderingAvoidsFalsePositive(t *testing.T) {
	// Dangerous structure T1 → T2 → T3 where T1 commits before T3:
	// with the commit-ordering optimization nobody aborts (the cycle
	// cannot close); with it disabled, someone does.
	// When T1 also writes, §4.1's "finished without writing" clause no
	// longer clears it, and commit ordering alone must.
	run := func(disable, t1Writes bool) int {
		h := newHarness(t, Config{DisableCommitOrderingOpt: disable})
		t1 := h.begin(false)
		t2 := h.begin(false)
		t3 := h.begin(false)
		failures := 0
		step := func(err error) {
			if errors.Is(err, ErrSerializationFailure) {
				failures++
			} else if err != nil {
				t.Fatal(err)
			}
		}
		step(h.read(t1, "t", 1, "a")) // T1 reads a
		if t1Writes {
			step(h.write(t1, "t", 1, "c")) // T1 writes c, read by nobody
		}
		step(h.read(t2, "t", 1, "b"))  // T2 reads b
		step(h.write(t2, "t", 1, "a")) // edge T1 → T2
		step(h.write(t3, "t", 1, "b")) // edge T2 → T3
		step(h.commit(t1))             // T1 commits first
		step(h.commit(t3))             // then T3
		step(h.commit(t2))             // pivot last
		return failures
	}
	for _, t1Writes := range []bool{false, true} {
		if n := run(false, t1Writes); n != 0 {
			t.Fatalf("T1 writes %v: commit ordering should clear this structure, got %d failures", t1Writes, n)
		}
		if n := run(true, t1Writes); n == 0 {
			t.Fatalf("T1 writes %v: basic SSI should abort on this structure", t1Writes)
		}
	}
}

func TestTuplePromotionToPage(t *testing.T) {
	h := newHarness(t, Config{PromoteTupleToPage: 3})
	x := h.begin(false)
	for i := 0; i < 5; i++ {
		key := string(rune('a' + i))
		if err := h.read(x, "t", 7, key); err != nil {
			t.Fatal(err)
		}
	}
	if !h.mgr.HoldsLock(x, PageTarget("t", 7)) {
		t.Fatal("tuple locks should have been promoted to a page lock")
	}
	if h.mgr.HoldsLock(x, TupleTarget("t", 7, "a")) {
		t.Fatal("tuple locks should be gone after promotion")
	}
	// A write on any tuple of that page still conflicts.
	w := h.begin(false)
	if err := h.write(w, "t", 7, "zz"); err != nil {
		t.Fatal(err)
	}
	if err := h.commit(w); err != nil {
		t.Fatal(err)
	}
	// x now has an out-conflict; the page lock did its job if a
	// dangerous structure check can see the edge. Simplest probe: x
	// writing something read by a third txn and committing after w
	// forms the pivot.
	h.abort(x)
}

func TestPagePromotionToRelation(t *testing.T) {
	h := newHarness(t, Config{PromotePageToRel: 2})
	x := h.begin(false)
	for p := int64(1); p <= 4; p++ {
		h.mgr.AcquirePageLock(x, "t", p)
	}
	if !h.mgr.HoldsLock(x, RelationTarget("t")) {
		t.Fatal("page locks should have been promoted to a relation lock")
	}
	w := h.begin(false)
	if err := h.write(w, "t", 99, "anything"); err != nil {
		t.Fatal(err)
	}
	h.mgr.mu.Lock()
	_, hasEdge := x.outConflicts[w]
	h.mgr.mu.Unlock()
	if !hasEdge {
		t.Fatal("relation lock must catch writes anywhere in the relation")
	}
	h.abort(x)
	h.abort(w)
}

func TestCapacityBoundTriggersPromotion(t *testing.T) {
	h := newHarness(t, Config{MaxPredicateLocks: 10, PromoteTupleToPage: 1 << 20, PromotePageToRel: 1 << 20})
	x := h.begin(false)
	for i := 0; i < 100; i++ {
		if err := h.read(x, "t", int64(i), string(rune(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.mgr.LockCount(); got > 11 {
		t.Fatalf("lock table exceeded its bound: %d", got)
	}
	if !h.mgr.HoldsLock(x, RelationTarget("t")) {
		t.Fatal("capacity pressure should consolidate to a relation lock")
	}
	st := h.mgr.Stats()
	if st.CapacityPromotions == 0 {
		t.Fatal("expected capacity promotions to be counted")
	}
	h.abort(x)
}

func TestPageSplitPropagatesLocks(t *testing.T) {
	h := newHarness(t, Config{})
	x := h.begin(false)
	h.mgr.AcquirePageLock(x, "idx", 1)
	h.mgr.PageSplit("idx", 1, 2)
	if !h.mgr.HoldsLock(x, PageTarget("idx", 2)) {
		t.Fatal("split must copy page locks to the right sibling")
	}
	h.abort(x)
}

func TestDropOwnTupleLock(t *testing.T) {
	h := newHarness(t, Config{})
	x := h.begin(false)
	if err := h.read(x, "t", 1, "a"); err != nil {
		t.Fatal(err)
	}
	h.mgr.DropOwnTupleLock(x, "t", 1, "a")
	if h.mgr.HoldsLock(x, TupleTarget("t", 1, "a")) {
		t.Fatal("lock should be dropped")
	}
	h.abort(x)
}

func TestSafeSnapshotImmediateWhenNoWriters(t *testing.T) {
	h := newHarness(t, Config{})
	ro := h.begin(true)
	if !h.mgr.SafeVerdict(ro) {
		t.Fatal("snapshot with no concurrent read/write transactions is immediately safe")
	}
	if !ro.Safe() {
		t.Fatal("transaction should be marked safe")
	}
	// Safe transactions take no locks.
	if err := h.read(ro, "t", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if h.mgr.HoldsLock(ro, TupleTarget("t", 1, "a")) {
		t.Fatal("safe transaction must not take SIREAD locks")
	}
	if err := h.commit(ro); err != nil {
		t.Fatal(err)
	}
}

func TestSafeSnapshotAfterConcurrentWritersFinish(t *testing.T) {
	h := newHarness(t, Config{})
	w := h.begin(false)
	ro := h.begin(true)
	if h.mgr.VerdictKnown(ro) {
		t.Fatal("verdict must be pending while a writer is active")
	}
	// Reads before the verdict still take locks.
	if err := h.read(ro, "t", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if !h.mgr.HoldsLock(ro, TupleTarget("t", 1, "a")) {
		t.Fatal("locks are kept until the snapshot is known safe")
	}
	if err := h.commit(w); err != nil {
		t.Fatal(err)
	}
	if !h.mgr.SafeVerdict(ro) {
		t.Fatal("snapshot should be safe: the writer committed without a conflict out to a pre-snapshot commit")
	}
	if h.mgr.HoldsLock(ro, TupleTarget("t", 1, "a")) {
		t.Fatal("locks must be dropped once the snapshot is safe")
	}
	if err := h.commit(ro); err != nil {
		t.Fatal(err)
	}
}

func TestUnsafeSnapshotDetected(t *testing.T) {
	h := newHarness(t, Config{})
	// t3 commits first; t2 (concurrent with ro) then develops a
	// conflict out to t3 and commits → ro's snapshot is unsafe.
	t3 := h.begin(false)
	t2 := h.begin(false)
	if err := h.read(t2, "t", 1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := h.write(t3, "t", 1, "x"); err != nil { // edge t2 → t3
		t.Fatal(err)
	}
	if err := h.commit(t3); err != nil {
		t.Fatal(err)
	}
	// t2 must itself write: only a read/write transaction can be the
	// pivot of a dangerous structure involving the read-only snapshot.
	if err := h.write(t2, "t", 5, "w"); err != nil {
		t.Fatal(err)
	}
	ro := h.begin(true) // snapshot taken after t3's commit, t2 active
	if err := h.commit(t2); err != nil {
		t.Fatal(err)
	}
	if h.mgr.SafeVerdict(ro) {
		t.Fatal("snapshot must be unsafe: t2 committed with a conflict out to t3, which committed before ro's snapshot")
	}
	if err := h.commit(ro); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyWithoutWritesTreatedAsReadOnlyAtCommit(t *testing.T) {
	h := newHarness(t, Config{})
	x := h.begin(false)
	if x.ReadOnly() {
		t.Fatal("active undeclared transaction is not known read-only")
	}
	if err := h.commit(x); err != nil {
		t.Fatal(err)
	}
	if !x.ReadOnly() {
		t.Fatal("committed without writes: read-only by §4.1's definition")
	}
}

func TestSummarizationPreservesConflictInDetection(t *testing.T) {
	// §6.2 case 1: a committed transaction's SIREAD lock must survive
	// summarization (via the dummy transaction) so that
	// T_committed → T_active → T3 structures are still caught.
	h := newHarness(t, Config{MaxCommittedXacts: 1})
	r := h.begin(false)
	if err := h.read(r, "t", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := h.write(r, "t", 1, "r-own"); err != nil { // make it read/write
		t.Fatal(err)
	}
	// Keep an old transaction open so committed state cannot be
	// cleaned, forcing summarization when capacity (1) is exceeded.
	pin := h.begin(false)
	if err := h.commit(r); err != nil {
		t.Fatal(err)
	}
	filler := h.begin(false)
	if err := h.write(filler, "t", 9, "junk"); err != nil {
		t.Fatal(err)
	}
	if err := h.commit(filler); err != nil {
		t.Fatal(err)
	}
	if h.mgr.Stats().Summarized == 0 {
		t.Fatal("expected the oldest committed transaction to be summarized")
	}
	// An active transaction writing what r read must pick up a
	// summary conflict in.
	w := h.begin(false)
	if err := h.write(w, "t", 1, "a"); err != nil {
		t.Fatal(err)
	}
	h.mgr.mu.Lock()
	si := w.summaryConflictIn
	h.mgr.mu.Unlock()
	if !si {
		t.Fatal("write to a summarized transaction's read set must set summaryConflictIn")
	}
	// Now give w a conflict out to a committed transaction → pivot
	// with summary-in must fail at commit.
	r2 := h.begin(false)
	if err := h.read(r2, "t", 5, "z"); err != nil {
		t.Fatal(err)
	}
	if err := h.write(w, "t", 5, "z"); err != nil { // r2 → w
		t.Fatal(err)
	}
	_ = r2
	// w is now T2 with summary conflict in (T1 committed) and we
	// close T2 → T3 by having w read something a new committed txn
	// wrote... simpler: commit w before anything else — no T3, no
	// failure expected.
	if err := h.commit(w); err != nil {
		t.Fatalf("no dangerous structure yet: %v", err)
	}
	h.abort(pin)
	h.abort(r2)
}

func TestSummaryConflictOutViaMVCCLookup(t *testing.T) {
	// §6.2 case 2: an active transaction reading a version created by
	// a summarized committed transaction must learn about the writer's
	// earliest out-conflict commit from the summary table.
	h := newHarness(t, Config{MaxCommittedXacts: 1})
	pin := h.begin(false) // prevents cleanup, forces summarization

	// tw is a read/write transaction with a conflict out to tc, which
	// commits first: tw is a committed pivot-half.
	tc := h.begin(false)
	tw := h.begin(false)
	if err := h.read(tw, "t", 2, "c"); err != nil {
		t.Fatal(err)
	}
	if err := h.write(tc, "t", 2, "c"); err != nil { // tw → tc
		t.Fatal(err)
	}
	if err := h.commit(tc); err != nil {
		t.Fatal(err)
	}
	if err := h.write(tw, "t", 3, "w"); err != nil {
		t.Fatal(err)
	}
	if err := h.commit(tw); err != nil {
		t.Fatal(err)
	}
	// Force summarization of tw (and possibly tc).
	for i := 0; i < 3; i++ {
		f := h.begin(false)
		if err := h.write(f, "junk", int64(i), "x"); err != nil {
			t.Fatal(err)
		}
		if err := h.commit(f); err != nil {
			t.Fatal(err)
		}
	}
	if h.mgr.SummaryTableSize() == 0 {
		t.Fatal("expected summarized transactions in the summary table")
	}
	// A new reader whose snapshot predates nothing reads tw's version
	// via MVCC: engine reports conflict-out to tw.XID. Since tw had a
	// conflict out to tc (committed before the reader's... actually
	// committed long ago), the structure reader → tw → tc has T3 = tc
	// committed before both — dangerous only if the reader is not
	// read-only-cleared. The reader here is read/write, so it must be
	// doomed immediately (tw committed: abort T1 = caller).
	rd := h.begin(false)
	err := h.mgr.CheckRead(rd, "t", 3, "w", []mvcc.TxID{tw.XID}, false)
	if !errors.Is(err, ErrSerializationFailure) {
		t.Fatalf("summarized pivot structure must doom the reader, got %v", err)
	}
	h.abort(rd)
	h.abort(pin)
}

// TestSummaryLeavesWithCommitLog: a summarized transaction's §6.2
// integer lives in its commit-log record, so it is kept exactly while a
// concurrent reader could ask for it and forgotten with the record. One
// read/write transaction pins the horizon while 20 000 writers commit
// past MaxCommittedXacts 64: every summarized one keeps its summary. Once
// the pin is released, a reclaim pass truncates the whole log and the
// summaries with it. (A summary map beside the log kept 19 936 entries
// after the log had emptied.)
func TestSummaryLeavesWithCommitLog(t *testing.T) {
	const writers = 20000
	h := newHarness(t, Config{MaxCommittedXacts: 64})
	pin := h.begin(false)
	for i := range writers {
		w := h.begin(false)
		if err := h.write(w, "t", int64(i), "k"); err != nil {
			t.Fatal(err)
		}
		if err := h.commit(w); err != nil {
			t.Fatal(err)
		}
	}
	summarized := h.mgr.Stats().Summarized
	if summarized < writers-64 {
		t.Fatalf("%d of %d writers summarized behind the pin, want at least %d", summarized, writers, writers-64)
	}
	if n := h.mgr.SummaryTableSize(); int64(n) != summarized {
		t.Fatalf("%d summaries kept while the horizon is pinned, want %d (one per summarized writer)", n, summarized)
	}
	h.abort(pin)
	h.mgr.ReclaimNow()
	if n := h.mv.LogSize(); n != 0 {
		t.Fatalf("commit log holds %d entries after the pin left and a reclaim pass, want 0", n)
	}
	if n := h.mgr.SummaryTableSize(); n != 0 {
		t.Fatalf("%d summaries outlive the commit log, want 0", n)
	}
}

func TestSummarizedReadOnlyLeavesItsWriters(t *testing.T) {
	// A read-only transaction that commits while a writer it watches
	// (§4.2) still runs is retained like any committed transaction.
	// Once summarized (§6.2) it must leave the writer's watch set, or
	// one long writer holds every reader that ran beside it.
	const readers, budget = 5000, 64
	h := newHarness(t, Config{MaxCommittedXacts: budget})
	w := h.begin(false)
	for i := range readers {
		ro := h.begin(true)
		if err := h.read(ro, "t", int64(i), "k"); err != nil {
			t.Fatal(err)
		}
		if err := h.commit(ro); err != nil {
			t.Fatal(err)
		}
	}
	h.mgr.ReclaimNow()
	w.edgeMu.Lock()
	watching := len(w.watchingROs)
	w.edgeMu.Unlock()
	if watching > budget+4 {
		t.Fatalf("the running writer is watched by %d committed readers, want at most %d (MaxCommittedXacts %d retained, the rest summarized)", watching, budget+4, budget)
	}
	if err := h.commit(w); err != nil {
		t.Fatal(err)
	}
}

func TestCleanupReleasesCommittedState(t *testing.T) {
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
	// No other transaction is active: a reclaim pass (cleanup is
	// deferred to the epoch reclaimer) must remove all trace of it.
	h.mgr.ReclaimNow()
	if n := h.mgr.TrackedXacts(); n != 0 {
		t.Fatalf("tracked xacts = %d, want 0 after cleanup", n)
	}
	if n := h.mgr.LockCount(); n != 0 {
		t.Fatalf("lock count = %d, want 0 after cleanup", n)
	}
}

func TestPreparedTransactionCannotBeVictim(t *testing.T) {
	// §7.1: Tactive → Tprepared → Tcommitted must abort Tactive, the
	// only abortable party — the case where safe retry cannot be
	// guaranteed.
	h := newHarness(t, Config{})
	t1 := h.begin(false) // the active reader
	t2 := h.begin(false) // will prepare (the pivot)
	t3 := h.begin(false)

	// t2 writes "a" while still active.
	if err := h.write(t2, "t", 2, "a"); err != nil {
		t.Fatal(err)
	}
	// Build t2 → t3 and commit t3 first.
	if err := h.read(t2, "t", 1, "b"); err != nil {
		t.Fatal(err)
	}
	if err := h.write(t3, "t", 1, "b"); err != nil { // t2 → t3
		t.Fatal(err)
	}
	if err := h.commit(t3); err != nil {
		t.Fatal(err)
	}
	// t2 prepares: its pre-commit check passes (no in-conflict yet,
	// and it did not commit before t3 — but with no T1 there is no
	// dangerous structure).
	if _, err := h.mgr.Prepare(t2); err != nil {
		t.Fatal(err)
	}
	// t1 reads the old version of "a" (t2's write is invisible): the
	// MVCC conflict-out creates t1 → t2, completing a dangerous
	// structure whose pivot is prepared. t1 must be doomed.
	err := h.mgr.CheckRead(t1, "t", 2, "a", []mvcc.TxID{t2.XID}, false)
	if !errors.Is(err, ErrSerializationFailure) {
		t.Fatalf("active reader must be doomed when the pivot is prepared, got %v", err)
	}
	h.abort(t1)
	if err := h.mgr.CommitPrepared(t2, func() mvcc.SeqNo { return h.mv.Commit(t2.XID) }); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverPreparedIsConservative(t *testing.T) {
	h := newHarness(t, Config{})
	x := h.begin(false)
	if err := h.read(x, "t", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := h.write(x, "t", 1, "b"); err != nil {
		t.Fatal(err)
	}
	st, err := h.mgr.Prepare(x)
	if err != nil {
		t.Fatal(err)
	}
	// Crash: rebuild from persisted state.
	h.mgr.Abort(x)
	rx := h.mgr.RecoverPrepared(st, 0)
	if !rx.Prepared() {
		t.Fatal("recovered transaction must be prepared")
	}
	// Its SIREAD locks are back.
	if !h.mgr.HoldsLock(rx, TupleTarget("t", 1, "a")) {
		t.Fatal("recovered transaction must hold its persisted locks")
	}
	// Conservative flags: any new conflict in against it (making it a
	// pivot with assumed conflict out) dooms the other party.
	r := h.begin(false)
	if err := h.read(r, "t", 9, "q"); err != nil {
		t.Fatal(err)
	}
	// Simulate rx writing q is impossible post-crash; instead check
	// that a reader of rx's (assumed) writes is doomed: reading a
	// version created by rx flags reader → rx with rx's conservative
	// out-conflict (seq 1, committed before everything).
	err = h.mgr.CheckRead(r, "t", 1, "b", []mvcc.TxID{rx.XID}, false)
	if !errors.Is(err, ErrSerializationFailure) {
		t.Fatalf("conservative recovery must doom the reader, got %v", err)
	}
	h.abort(r)
	if err := h.mgr.CommitPrepared(rx, func() mvcc.SeqNo { return h.mv.Commit(rx.XID) }); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	h := newHarness(t, Config{})
	x := h.begin(false)
	if err := h.read(x, "t", 1, "a"); err != nil {
		t.Fatal(err)
	}
	st := h.mgr.Stats()
	if st.LocksAcquired == 0 || st.LocksPeak == 0 {
		t.Fatalf("lock stats not counted: %+v", st)
	}
	// LockCount counts the table itself; the LocksCurrent gauge must
	// agree with it (guards against counter drift).
	if got, want := h.mgr.LockCount(), int(st.LocksCurrent); got != want {
		t.Fatalf("lock table count %d disagrees with LocksCurrent gauge %d", got, want)
	}
	h.abort(x)
	if h.mgr.LockCount() != 0 {
		t.Fatal("abort must release locks")
	}
	if cur := h.mgr.Stats().LocksCurrent; cur != 0 {
		t.Fatalf("LocksCurrent gauge = %d after abort, want 0", cur)
	}
}
