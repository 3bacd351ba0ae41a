package core

import (
	"pgssi/internal/mvcc"
	"pgssi/internal/trace"
)

// This file implements rw-antidependency flagging and dangerous-structure
// detection (§5.2, §5.3), including the commit-ordering optimization
// (§3.3.1), the read-only snapshot ordering rule (Theorem 3), and the
// safe-retry victim selection rules (§5.4).

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
	// outSeq. Dangerous if T3 committed first.
	if outSeq != 0 {
		if m.dangerousLocked(x, wCommit, outSeq) {
			// T2 committed: the only abortable party is x (rule 3).
			return m.doomLocked(x, x)
		}
	}
	// Structure (b): T1 ∈ x.inConflicts → x (T2) → W (T3, committed).
	if err := m.checkPivotLocked(x, wCommit, x); err != nil {
		return err
	}
	return nil
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
	// committed out-conflict. Dangerous only if T3 committed first
	// (before both r's and w's commits) and, when r is read-only, T3
	// committed before r's snapshot (Theorem 3).
	if s3 := w.earliestOutConflictCommit; s3 != 0 {
		ok := true
		if w.committed && s3 > w.CommitSeq {
			ok = false // T2 committed before T3: not first
		}
		// Note the strict comparison: in a length-2 cycle T1 and T3
		// are the same transaction (s3 == r.CommitSeq), and "T1
		// committed before T3" must then be false.
		if ok && r.committed && s3 > r.CommitSeq {
			ok = false // T1 committed before T3
		}
		if ok && m.readOnlySafeLocked(r, s3) {
			ok = false
		}
		if ok {
			// Victim per §5.4: prefer the pivot T2; if it cannot
			// be aborted, T1.
			if !w.committed && !w.prepared {
				return m.doomLocked(w, caller)
			}
			if !r.committed && !r.prepared {
				return m.doomLocked(r, caller)
			}
			// Both unabortable with T3 committed first should be
			// impossible at detection time (one of them is
			// executing the operation that created the edge).
		}
	}

	// Structure (b): T1 ∈ r.inConflicts, r = T2 (pivot), w = T3. Only
	// dangerous once T3 commits; if w is still active the pre-commit
	// check on w will catch it. Prepared w is treated as
	// committed-first conservatively (it can no longer abort).
	if w.committed {
		if err := m.checkPivotLocked(r, w.CommitSeq, caller); err != nil {
			return err
		}
	} else if w.prepared {
		if err := m.checkPivotPreparedT3Locked(r, caller); err != nil {
			return err
		}
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

// dangerousLocked applies the commit-ordering and read-only filters to a
// candidate structure T1 = t1, T2 committed at t2Commit (0 if active),
// T3 committed at s3. It reports whether the structure requires an abort.
func (m *Manager) dangerousLocked(t1 *Xact, t2Commit, s3 mvcc.SeqNo) bool {
	if !m.cfg.DisableCommitOrderingOpt {
		if t2Commit != 0 && s3 > t2Commit {
			return false
		}
		// Strict: T1 may be the same transaction as T3 (2-cycles),
		// in which case it did not commit "before" T3.
		if t1.committed && s3 > t1.CommitSeq {
			return false
		}
	}
	return !m.readOnlySafeLocked(t1, s3)
}

// readOnlySafeLocked applies the read-only snapshot ordering rule of
// §4.1: a dangerous structure whose T1 is read-only is a false positive
// unless T3 committed before T1 took its snapshot.
func (m *Manager) readOnlySafeLocked(t1 *Xact, t3Commit mvcc.SeqNo) bool {
	if m.cfg.DisableReadOnlyOpt {
		return false
	}
	if !t1.ReadOnly() {
		return false
	}
	return t3Commit > t1.SnapshotSeq
}

// checkPivotLocked checks pivot = T2 against a newly committed (or
// discovered-committed) T3 with commit seq s3, scanning T1 candidates in
// pivot.inConflicts plus the summarized-conflict-in flag. If a dangerous
// structure is confirmed, the pivot is doomed (safe-retry rule 2); caller
// receives the error if it is the victim.
func (m *Manager) checkPivotLocked(pivot *Xact, s3 mvcc.SeqNo, caller *Xact) error {
	if pivot.committed || pivot.aborted || pivot.doomed.Load() {
		// A committed pivot with a dangerous structure is handled at
		// its own pre-commit check or at detection time; nothing to
		// do here.
		return nil
	}
	danger := false
	if pivot.summaryConflictIn {
		// T1 identity lost: conservatively dangerous (§6.2).
		danger = true
	}
	if !danger {
		for t1 := range pivot.inConflicts {
			if t1 == pivot {
				continue
			}
			if !m.cfg.DisableCommitOrderingOpt && t1.committed && t1.CommitSeq < s3 {
				continue // T1 committed strictly before T3: safe
			}
			if m.readOnlySafeLocked(t1, s3) {
				continue
			}
			danger = true
			break
		}
	}
	if !danger {
		return nil
	}
	if !pivot.prepared {
		return m.doomLocked(pivot, caller)
	}
	// The pivot has prepared and cannot abort (§7.1): abort an active
	// T1 instead; safe retry cannot be guaranteed.
	for t1 := range pivot.inConflicts {
		if !t1.committed && !t1.prepared {
			return m.doomLocked(t1, caller)
		}
	}
	return nil
}

// checkPivotPreparedT3Locked handles the case where T3 has prepared but
// not yet committed. Since a prepared transaction is guaranteed to
// commit, and the pivot and T1 candidates have not committed, T3 will be
// the first to commit: treat the structure as dangerous now.
func (m *Manager) checkPivotPreparedT3Locked(pivot *Xact, caller *Xact) error {
	if pivot.committed || pivot.aborted || pivot.doomed.Load() {
		return nil
	}
	danger := pivot.summaryConflictIn
	if !danger {
		for t1 := range pivot.inConflicts {
			if t1 == pivot {
				continue
			}
			if t1.committed {
				continue // committed before T3's future commit
			}
			// A read-only T1 took its snapshot before T3's future
			// commit, so Theorem 3 clears it.
			if !m.cfg.DisableReadOnlyOpt && t1.ReadOnly() {
				continue
			}
			danger = true
			break
		}
	}
	if !danger {
		return nil
	}
	if !pivot.prepared {
		return m.doomLocked(pivot, caller)
	}
	for t1 := range pivot.inConflicts {
		if !t1.committed && !t1.prepared {
			return m.doomLocked(t1, caller)
		}
	}
	return nil
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
				if err := m.checkPivotLocked(x, s3, x); err != nil {
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
