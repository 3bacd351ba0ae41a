package core

import (
	"cmp"
	"math"
	"slices"

	"pgssi/internal/mvcc"
	"pgssi/internal/trace"
)

// This file implements rw-antidependency flagging (§5.2, §5.3) and the
// one dangerous-structure rule every check applies. A structure
// T1 → T2 → T3 of rw-antidependencies (T1 may be T3: a 2-cycle) forces
// an abort only if T3 commits first: before T2 and before T1
// (§3.3.1's commit ordering), and, when T1 is read-only, before T1 took
// its snapshot (§4.1, Theorem 3). dangerousLocked applies that test to
// one T1, and checkPivotLocked to every T1 of a pivot T2. The victim of
// a dangerous structure (chooseVictimLocked) is the pivot, whose retry
// no longer overlaps the committed T3 (§5.4); if the pivot has prepared
// or committed, an abortable T1 other than T3, for which safe retry
// cannot be guaranteed (§7.1); failing that, T3 itself if it has not
// committed.
//
// The rule is applied where a structure can complete:
//   - onConflictDetectedLocked, a new edge r → w: structure (a) has r as
//     T1 and w as the pivot, structure (b) has r as the pivot and a
//     committed or prepared w as T3;
//   - conflictWithSummarizedWriterLocked, an edge to a summarized
//     writer (§6.2), and checkTargetWriteLocked's summarized reader;
//   - preCommitCheckLocked (lifecycle.go), with the committing
//     transaction as T3 and as the pivot.
//
// basicSSICheckLocked and the pre-commit check's basic-SSI branch are
// the ablation without commit ordering (Cahill's original rule), kept
// as the reference the optimized rule is measured against.

// notYetCommitted stands for the commit sequence number of a T3 that
// has not committed yet: it is committing now or it has prepared. It
// lies above every commit sequence number, so T3 commits after every
// committed T1 and T2 and after every T1's snapshot.
const notYetCommitted mvcc.SeqNo = math.MaxUint64

// CheckRead processes a read by x. conflictOut is the MVCC-derived list
// of concurrent writer transaction IDs supplied by the storage layer
// (creators of invisible newer versions and concurrent deleters); each is
// an rw-antidependency x → writer (the "write happens first" case of
// §5.2). If ownWrite is true, x already holds the tuple write lock and no
// SIREAD lock is needed. Returns ErrSerializationFailure if x was doomed
// or becomes the victim of a dangerous structure discovered here.
//
// The engine computes conflictOut during the MVCC read and inserts the
// SIREAD lock here, in separate calls; what makes the pair atomic with
// respect to CheckWrite is that both run under the storage layer's
// per-page read latch (storage/latch.go), the analogue of the buffer
// page lock PostgreSQL holds across the visibility check and the
// predicate-lock insertion. Callers on the heap read path must invoke
// CheckRead from inside storage.Table.Read's callback; CheckWrite is
// correspondingly invoked from the Update/Delete check callback, after
// the xmax stamp and under the same latch, so a writer can never probe
// the lock table in a window where a concurrent reader's lock is
// missing and its version stamp is not yet visible.
func (m *Manager) CheckRead(x *Xact, rel string, page int64, key string, conflictOut []mvcc.TxID, ownWrite bool) error {
	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	if x.safe.Load() {
		// Safe snapshot: plain snapshot isolation, no tracking (§4.2).
		return nil
	}
	if len(conflictOut) == 0 {
		// Hot path: a read with no MVCC conflicts only touches the
		// partitioned lock table, never the conflict graph, so the
		// global SSI mutex is not needed. A doom set concurrently is
		// picked up at the next conflict-bearing operation or at the
		// pre-commit check, which runs under the mutex.
		if !ownWrite && key != "" {
			m.acquire(x, TupleTarget(rel, page, key))
		}
		if x.doomed.Load() {
			return ErrSerializationFailure
		}
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	for _, w := range conflictOut {
		if err := m.flagConflictOutLocked(x, w); err != nil {
			return err
		}
	}
	if !ownWrite && key != "" {
		m.acquire(x, TupleTarget(rel, page, key))
	}
	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	return nil
}

// CheckScanConflicts processes the MVCC conflict-out set of a scan that
// already acquired its page or relation locks separately.
func (m *Manager) CheckScanConflicts(x *Xact, conflictOut []mvcc.TxID) error {
	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	if x.safe.Load() || len(conflictOut) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	for _, w := range conflictOut {
		if err := m.flagConflictOutLocked(x, w); err != nil {
			return err
		}
	}
	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	return nil
}

// flagConflictOutLocked records the rw-antidependency x → writerXID,
// where the writer's version was invisible to x's snapshot. The writer
// may be active, committed-and-tracked, summarized, or not serializable
// at all (ran at a weaker level), each handled per §5.2/§6.2.
func (m *Manager) flagConflictOutLocked(x *Xact, writer mvcc.TxID) error {
	if writer == x.XID {
		return nil
	}
	owner, wCommit := m.mvcc.Attached(writer)
	switch w := owner.(type) {
	case *Xact:
		return m.onConflictDetectedLocked(x, w, x)
	case summary:
		// The writer was summarized (§6.2 second case): we know only
		// its commit seq and the earliest commit among its
		// out-conflicts.
		return m.conflictWithSummarizedWriterLocked(x, wCommit, mvcc.SeqNo(w))
	}
	// Writer is not (or no longer) a tracked serializable transaction.
	// If it was serializable it has been fully cleaned up, which only
	// happens once no active transaction is concurrent with it — so it
	// cannot be part of a dangerous structure involving x. If it ran
	// at a weaker isolation level it is outside SSI's scope.
	return nil
}

// conflictWithSummarizedWriterLocked handles x → W where W is a
// summarized committed transaction with commit seq wCommit and earliest
// out-conflict commit seq outSeq (zero if none).
func (m *Manager) conflictWithSummarizedWriterLocked(x *Xact, wCommit, outSeq mvcc.SeqNo) error {
	// Track x's earliest committed out-conflict.
	if x.earliestOutConflictCommit == 0 || wCommit < x.earliestOutConflictCommit {
		x.earliestOutConflictCommit = wCommit
	}
	m.stats.ConflictsFlagged++
	// Structure (a): x (T1) → W (T2, committed) → T3 committed at
	// outSeq. W is summarized, so there is no pivot to doom.
	if outSeq != 0 && m.dangerousLocked(x, wCommit, outSeq) {
		if err := m.chooseVictimLocked(nil, x, nil, x); err != nil {
			return err
		}
	}
	// Structure (b): T1 ∈ x.inConflicts → x (T2) → W (T3, committed).
	return m.checkPivotLocked(x, wCommit, nil, x)
}

// onConflictDetectedLocked records the edge r → w between two tracked
// transactions and runs the detection-time dangerous-structure checks —
// the analogue of PostgreSQL's OnConflictDetected. caller is the
// transaction performing the operation (r for reads, w for writes), so
// errors can be delivered to the right party.
//
// Both endpoints' edge locks are held for the whole call (permitted:
// the caller holds m.mu; see the ordering rule in partition.go). That
// is what fences conflict flagging against the edge-lock commit fast
// path: a conflict-free endpoint racing its own commit either commits
// first — then its committed flag and CommitSeq are visible here and
// the committed-transaction rules apply, exactly as if the flagging had
// serialized after the commit on a global mutex — or the edge is
// inserted first and the endpoint's eligibility check sees it and takes
// the slow path through the full pre-commit check.
//
//ssi:holds core.ssi
func (m *Manager) onConflictDetectedLocked(r, w, caller *Xact) error {
	if r == w {
		return nil
	}
	r.edgeMu.Lock()
	w.edgeMu.Lock()
	defer func() {
		w.edgeMu.Unlock()
		r.edgeMu.Unlock()
	}()
	if r.safe.Load() || r.aborted || w.aborted {
		return nil
	}
	if _, dup := r.outConflicts[w]; !dup {
		if r.outConflicts == nil {
			r.outConflicts = make(map[*Xact]struct{})
		}
		if w.inConflicts == nil {
			w.inConflicts = make(map[*Xact]struct{})
		}
		r.outConflicts[w] = struct{}{}
		w.inConflicts[r] = struct{}{}
		m.stats.ConflictsFlagged++
	}
	if w.committed && (r.earliestOutConflictCommit == 0 || w.CommitSeq < r.earliestOutConflictCommit) {
		r.earliestOutConflictCommit = w.CommitSeq
	}

	if m.cfg.DisableCommitOrderingOpt {
		// Ablation A1 reproduces Cahill's basic SSI: any transaction
		// with both an incoming and an outgoing rw-antidependency is
		// aborted as soon as the second edge appears, without
		// considering commit order.
		return m.basicSSICheckLocked(r, w, caller)
	}

	// Structure (a): r = T1, w = T2 (pivot), T3 = w's earliest
	// committed out-conflict.
	if s3 := w.earliestOutConflictCommit; s3 != 0 && m.dangerousLocked(r, w.CommitSeq, s3) {
		if err := m.chooseVictimLocked(w, r, nil, caller); err != nil {
			return err
		}
	}

	// Structure (b): T1 ∈ r.inConflicts, r = T2 (pivot), w = T3. Only
	// dangerous once T3 commits; if w is still active the pre-commit
	// check on w will catch it. A prepared w will commit, and before
	// the pivot and every T1 that has not committed.
	switch {
	case w.committed:
		return m.checkPivotLocked(r, w.CommitSeq, w, caller)
	case w.prepared:
		return m.checkPivotLocked(r, notYetCommitted, w, caller)
	}
	return nil
}

// basicSSICheckLocked implements the original SSI abort rule (no commit
// ordering): whichever of r, w has both conflict directions is aborted,
// preferring the pivot itself, then the other party if the pivot cannot
// be aborted.
func (m *Manager) basicSSICheckLocked(r, w, caller *Xact) error {
	pair := [2]*Xact{w, r}
	for i, p := range pair {
		hasIn := len(p.inConflicts) > 0 || p.summaryConflictIn
		hasOut := len(p.outConflicts) > 0 || p.earliestOutConflictCommit != 0
		if !hasIn || !hasOut {
			continue
		}
		victim := p
		if victim.committed || victim.prepared {
			victim = pair[1-i]
		}
		if victim.committed || victim.prepared {
			continue
		}
		if err := m.doomLocked(victim, caller); err != nil {
			return err
		}
	}
	return nil
}

// dangerousLocked reports whether T1 = t1 leaves a structure
// t1 → T2 → T3 dangerous, where T2 committed at t2Commit (0 while it
// runs) and T3 at s3 (notYetCommitted if it has not committed).
//
//ssi:holds core.ssi
func (m *Manager) dangerousLocked(t1 *Xact, t2Commit, s3 mvcc.SeqNo) bool {
	if !m.cfg.DisableCommitOrderingOpt {
		// §3.3.1: T3 must commit before T2 and before T1. Strict for
		// T1: T1 may be the same transaction as T3 (2-cycles), in
		// which case it did not commit "before" T3.
		if t2Commit != 0 && s3 > t2Commit {
			return false
		}
		if t1.committed && s3 > t1.CommitSeq {
			return false
		}
	}
	// Theorem 3: a read-only T1 is a false positive unless T3
	// committed before T1 took its snapshot.
	if !m.cfg.DisableReadOnlyOpt && t1.ReadOnly() && s3 > t1.SnapshotSeq {
		return false
	}
	return true
}

// checkPivotLocked checks pivot = T2 against a T3 that committed at s3
// (notYetCommitted if it is committing now or has prepared). t3 is T3
// itself, nil if it was summarized. The structure is dangerous if a
// summarized transaction had a conflict in to the pivot (T1's identity
// is lost, so conservatively, §6.2) or some T1 in pivot.inConflicts
// passes dangerousLocked; then chooseVictimLocked picks the victim.
//
//ssi:holds core.ssi
func (m *Manager) checkPivotLocked(pivot *Xact, s3 mvcc.SeqNo, t3, caller *Xact) error {
	if pivot.committed || pivot.aborted || pivot.doomed.Load() {
		// A committed pivot with a dangerous structure is handled at
		// its own pre-commit check or at detection time; nothing to
		// do here.
		return nil
	}
	danger := pivot.summaryConflictIn
	if !danger {
		for t1 := range pivot.inConflicts {
			if m.dangerousLocked(t1, 0, s3) {
				danger = true
				break
			}
		}
	}
	if !danger {
		return nil
	}
	return m.chooseVictimLocked(pivot, nil, t3, caller)
}

// chooseVictimLocked dooms the victim of a dangerous structure
// t1 → pivot → t3 (§5.4, §7.1): the pivot if it can abort; else an
// abortable T1 — t1 itself when the caller names it, otherwise the one
// of pivot.inConflicts, other than t3, with the lowest xid; else t3 if it
// can abort. A nil argument is a transaction that was summarized or is
// not named. caller receives ErrSerializationFailure if it is the victim.
//
//ssi:holds core.ssi
func (m *Manager) chooseVictimLocked(pivot, t1, t3, caller *Xact) error {
	switch {
	case pivot.abortable():
		return m.doomLocked(pivot, caller)
	case t1 != nil:
		if t1.abortable() {
			return m.doomLocked(t1, caller)
		}
	case pivot != nil:
		// The first in xid order, so that the victim does not depend
		// on map order.
		var first *Xact
		for c := range pivot.inConflicts {
			if c != t3 && c.abortable() && (first == nil || c.XID < first.XID) {
				first = c
			}
		}
		if first != nil {
			return m.doomLocked(first, caller)
		}
	}
	if t3.abortable() {
		return m.doomLocked(t3, caller)
	}
	return nil
}

// inXIDOrder returns the transactions of set in xid order, in scratch
// storage the next call reuses: the caller clears it when done, so that
// it keeps no transaction alive. Caller holds m.mu.
func (m *Manager) inXIDOrder(set map[*Xact]struct{}) []*Xact {
	s := m.byXID[:0]
	for x := range set {
		s = append(s, x)
	}
	slices.SortFunc(s, func(a, b *Xact) int { return cmp.Compare(a.XID, b.XID) })
	m.byXID = s
	return s
}

// abortable reports whether x can still be chosen as a victim: it
// exists, has not committed, and has not prepared (§7.1).
func (x *Xact) abortable() bool {
	return x != nil && !x.committed && !x.prepared
}

// doomLocked marks victim for abort. If the victim is the transaction
// whose operation triggered the check, the error is returned so the
// operation fails immediately; otherwise the victim discovers its fate at
// its next operation or commit.
func (m *Manager) doomLocked(victim, caller *Xact) error {
	if victim.committed {
		return nil
	}
	if !victim.doomed.Load() {
		victim.doomed.Store(true)
		m.stats.DangerousAborts++
		if victim == caller {
			m.stats.SelfAborts++
		} else {
			m.stats.VictimAborts++
		}
	}
	if victim == caller {
		return ErrSerializationFailure
	}
	return nil
}

// CheckWrite processes a write by x to the tuple key whose superseded
// version lives on (rel, page) — PostgreSQL's
// CheckForSerializableConflictIn. It searches for SIREAD locks held by
// other transactions at tuple, page, and relation granularity, in that
// order (finest to coarsest, §5.2.1), flagging holder → x
// rw-antidependencies. Inserts pass page < 0 and check only the relation
// level here; their phantom conflicts are found via index-page checks in
// CheckIndexInsert.
//
// A write nobody else has read takes no global mutex: the targets are
// first probed under their partition mutexes alone, as CheckRead's hot
// path acquires, and only a probe that finds a holder other than x
// takes m.mu and runs the full check (partition.go has the argument
// that the mutex-free "nobody" is as good as one taken under m.mu).
func (m *Manager) CheckWrite(x *Xact, rel string, page int64, key string) error {
	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	// Written without m.mu: x's own goroutine is the only writer, and
	// every other reader looks only once x has committed or aborted
	// (ReadOnly), which happens after this on x's goroutine.
	x.wrote = true
	// Check finest to coarsest (tuple, page, relation). Combined with
	// promotion inserting the coarser lock before removing the finer
	// ones, this guarantees a reader concurrently promoting its locks
	// is seen at one granularity or another (see partition.go).
	var buf [3]Target
	targets := buf[:0]
	if page >= 0 {
		if key != "" {
			targets = append(targets, TupleTarget(rel, page, key))
		}
		targets = append(targets, PageTarget(rel, page))
	}
	targets = append(targets, RelationTarget(rel))
	if !m.othersHoldAny(x, targets) {
		if x.doomed.Load() {
			return ErrSerializationFailure
		}
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	for _, t := range targets {
		if err := m.checkTargetWriteLocked(x, t); err != nil {
			return err
		}
	}
	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	return nil
}

// othersHoldAny reports whether a transaction other than x holds a
// SIREAD lock on any of targets, probing them in order, each under its
// partition mutex alone. It fires the trace seam's WriteProbe point
// before each probe.
func (m *Manager) othersHoldAny(x *Xact, targets []Target) bool {
	for _, t := range targets {
		if f := m.cfg.Trace; f != nil {
			f(trace.Event{Point: trace.WriteProbe, XID: uint64(x.XID), Seq: uint64(t.Level), Table: t.Rel, Key: t.Key})
		}
		p, h := m.locate(t)
		p.mu.Lock()
		hs := p.locks.holders(h, t)
		other := hs.hasOther(x)
		p.mu.Unlock()
		if other {
			return true
		}
	}
	return false
}

// CheckIndexInsert processes the insertion of an index entry on leaf page
// of index idx: any SIREAD gap lock on that page or on the whole index
// flags a reader → x conflict (phantom detection).
func (m *Manager) CheckIndexInsert(x *Xact, idx string, page int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	x.wrote = true
	// Finest to coarsest, as in CheckWrite.
	if err := m.checkTargetWriteLocked(x, PageTarget(idx, page)); err != nil {
		return err
	}
	if err := m.checkTargetWriteLocked(x, RelationTarget(idx)); err != nil {
		return err
	}
	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	return nil
}

// checkTargetWriteLocked flags reader → x for every SIREAD holder of t:
// CheckWrite's full check, run once its mutex-free probe found a holder.
// Caller holds m.mu, which pins every holder's SIREAD locks (abort,
// reclamation, and summarization all require m.mu, so no holder leaves
// the table between the snapshot below and the flagging; a holder may
// commit on the edge-lock fast path, which keeps its locks and is
// fenced by onConflictDetectedLocked's edge-pair locking). The
// partition mutex is held only while snapshotting the holder set, since
// flagging can itself mutate the lock table via dooms.
func (m *Manager) checkTargetWriteLocked(x *Xact, t Target) error {
	p, h := m.locate(t)
	p.mu.Lock()
	hs := p.locks.holders(h, t)
	var buf [4]*Xact
	readers := hs.appendOthers(buf[:0], x)
	p.mu.Unlock()
	for _, r := range readers {
		if r == m.oldCommitted {
			// A summarized committed transaction read this object
			// (§6.2 first case): x gains a conflict in from an
			// unknown committed transaction.
			if !x.summaryConflictIn {
				x.summaryConflictIn = true
				m.stats.ConflictsFlagged++
			}
			// This may complete a dangerous structure
			// T_committed → x → T3 if x already has a committed
			// out-conflict.
			if s3 := x.earliestOutConflictCommit; s3 != 0 {
				if err := m.checkPivotLocked(x, s3, nil, x); err != nil {
					return err
				}
			}
			continue
		}
		if err := m.onConflictDetectedLocked(r, x, x); err != nil {
			return err
		}
	}
	return nil
}
