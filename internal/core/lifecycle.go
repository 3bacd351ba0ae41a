package core

import (
	"pgssi/internal/mvcc"
	"pgssi/internal/trace"
)

// This file implements the transaction lifecycle: the pre-commit
// serialization-failure check (§5.4), commit processing with safe-snapshot
// resolution (§4.2), and abort processing. Cleanup of committed
// transactions (§6.1) and summarization (§6.2) live in reclaim.go.
//
// A transaction's SSI state lives in its internal/mvcc commit-log record,
// the one table keyed by xid: a read/write Begin attaches its Xact there,
// where conflict flagging turns the xid the storage layer stamped on a
// version into its writer (flagConflictOutLocked) and the read-only
// safety scan finds the running writers (registerROWatchesLocked).
// The Xact stays attached while the transaction runs and, once it
// commits, for as long as the retire queue holds it: until reclamation
// detaches it or summarization replaces it with a summary. Commit-log
// truncation forgets all of it at the horizon (mvcc.AutoTruncate), which
// is sound: a record is truncated only once its commit is visible to
// every present and future snapshot, so no reader can find that writer's
// version invisible and ask about it. A transaction declared read-only
// never writes and attaches nothing, and one that aborts detaches at
// once: its versions are void (§5.3).

// summary is what summarization (§6.2) leaves in a committed
// transaction's commit-log record in place of its Xact: the commit
// sequence number of the earliest transaction it had a conflict out to,
// zero if none.
type summary mvcc.SeqNo

// attachXact attaches x to its commit-log record and counts it in
// rwActive until it finishes (finishXact). Both are no-ops for a
// transaction declared read-only, as is dropXact.
func (m *Manager) attachXact(x *Xact) {
	if x.declaredRO {
		return
	}
	m.rwActive.Add(1)
	m.mvcc.Attach(x.XID, x)
}

// finishXact uncounts x from rwActive once it has committed or aborted,
// and detaches it if it aborted.
func (m *Manager) finishXact(x *Xact) {
	if x.declaredRO {
		return
	}
	m.rwActive.Add(-1)
	if x.aborted {
		m.dropXact(x)
	}
}

// dropXact detaches x from its commit-log record. A fast-path committer
// can retire after a reclaim pass has truncated its record; then there
// is nothing to detach.
func (m *Manager) dropXact(x *Xact) {
	if !x.declaredRO {
		m.mvcc.Attach(x.XID, nil)
	}
}

// Commit atomically performs the pre-commit serialization check and, if
// it passes, commits the transaction: commitFn is invoked inside the
// commit critical section to assign the commit sequence number
// (typically mvcc.Commit). If the check fails, ErrSerializationFailure
// is returned, no commit happens, and the caller must abort the
// transaction.
//
// Performing the check and the commit in one critical section prevents a
// window in which a new conflict could form against a transaction that
// already passed its check, mirroring PostgreSQL's use of
// SerializableXactHashLock around both. The critical section is chosen
// by what the transaction accumulated:
//
//   - A transaction with no conflict edges, no summary flags, and no
//     safety watchers commits under only its own edge lock. Conflict
//     flaggers take the edge locks of both endpoints before mutating
//     edge state, so they either complete before the eligibility check
//     here (the commit then takes the slow path) or observe the
//     transaction already committed and apply the committed-transaction
//     rules. The linearization point is the edge-lock critical section.
//   - Anything else serializes on the conflict-graph mutex, where the
//     full dangerous-structure check runs.
//
// Cleanup and summarization are NOT part of either critical section any
// more; they are deferred to the epoch reclaimer (reclaim.go).
func (m *Manager) Commit(x *Xact, commitFn func() mvcc.SeqNo) error {
	x.edgeMu.Lock()
	if m.fastCommitEligibleLocked(x) {
		m.trace(trace.PreCommit, x.XID)
		seq := commitFn()
		x.markCommittedLocked(seq)
		x.edgeMu.Unlock()
		m.finishCommitFast(x)
		return nil
	}
	x.edgeMu.Unlock()

	m.mu.Lock()
	if err := m.preCommitCheckLocked(x); err != nil {
		m.mu.Unlock()
		return err
	}
	m.trace(trace.PreCommit, x.XID)
	seq := commitFn()
	n := m.finishCommitLocked(x, seq)
	m.mu.Unlock()
	m.afterCommit(n)
	return nil
}

// fastCommitEligibleLocked reports whether x can commit on the edge-lock
// fast path: nothing about it can participate in a dangerous structure
// or a safe-snapshot verdict, so its pre-commit check is trivially
// empty. Caller holds x.edgeMu. Any state that would make this false is
// only set while holding x.edgeMu (by conflict flaggers, the read-only
// safety scan, or summarization), so the answer cannot be invalidated
// between this check and the commit transition in the same critical
// section. Dooms reach a transaction only through edges, so the map
// checks subsume the doomed check; it is kept as a cheap backstop.
func (m *Manager) fastCommitEligibleLocked(x *Xact) bool {
	return len(x.inConflicts) == 0 && len(x.outConflicts) == 0 &&
		!x.summaryConflictIn && x.earliestOutConflictCommit == 0 &&
		len(x.watchingROs) == 0 && len(x.possibleUnsafe) == 0 &&
		x.safeCh == nil && !x.prepared && !x.aborted &&
		!x.safe.Load() && !x.doomed.Load()
}

// finishCommitFast completes a fast-path commit after the edge-lock
// critical section: lock-set freeze, retire-queue insertion, and
// finishXact.
func (m *Manager) finishCommitFast(x *Xact) {
	x.lockMu.Lock()
	x.lockingDone = true
	x.lockMu.Unlock()
	if x.wrote {
		m.roSweepValid.Store(false)
	}
	n := m.retire(x)
	m.finishXact(x)
	m.afterCommit(n)
}

// preCommitCheckLocked is PreCommit_CheckForSerializationFailure: it
// looks for dangerous structures in which the committing transaction is
// T3 (committing first, so the pivot must be doomed — §5.4 rule 1/2) or
// the pivot itself (self-abort, rule 2/3 fallback). Caller holds m.mu.
func (m *Manager) preCommitCheckLocked(x *Xact) error {
	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	if x.safe.Load() {
		return nil
	}

	// Case 1: x is T3 for every pivot P with P → x. x has not
	// committed, so it would be the first of the structure to commit.
	// The pivots are taken in xid order: x may doom itself and stop
	// part-way, and which pivots were doomed by then must not depend on
	// map order.
	pivots := m.inXIDOrder(x.inConflicts)
	defer clear(pivots)
	for _, pivot := range pivots {
		if err := m.checkPivotLocked(pivot, notYetCommitted, x, x); err != nil {
			return err
		}
	}

	// Case 2: x is the pivot, with a conflict in and a committed (or
	// prepared) conflict out.
	if len(x.inConflicts) > 0 || x.summaryConflictIn {
		if s3 := x.earliestOutConflictCommit; s3 != 0 {
			if err := m.checkPivotLocked(x, s3, nil, x); err != nil {
				return err
			}
		}
		for t3 := range x.outConflicts {
			if t3.prepared && !t3.committed {
				if err := m.checkPivotLocked(x, notYetCommitted, t3, x); err != nil {
					return err
				}
				break
			}
		}
		if m.cfg.DisableCommitOrderingOpt && len(x.outConflicts) > 0 {
			// Basic SSI: both flags set is enough to abort.
			return m.doomLocked(x, x)
		}
	}

	if x.doomed.Load() {
		return ErrSerializationFailure
	}
	return nil
}

// finishCommitLocked marks x committed with sequence number seq,
// propagates the out-conflict commit info to its readers, resolves
// safe-snapshot watchers, and retires x for the epoch reclaimer. It
// returns the retire-queue length for the caller's pressure policy.
// Caller holds m.mu but no edge locks.
func (m *Manager) finishCommitLocked(x *Xact, seq mvcc.SeqNo) int {
	x.edgeMu.Lock()
	x.markCommittedLocked(seq)
	x.edgeMu.Unlock()
	// A committed transaction keeps its SIREAD locks until cleanup but
	// must not grow its lock set.
	x.lockMu.Lock()
	x.lockingDone = true
	x.lockMu.Unlock()
	if x.wrote {
		m.roSweepValid.Store(false)
	}

	// Every reader r with r → x now has a committed out-conflict;
	// record the earliest such commit (§6.1).
	for r := range x.inConflicts {
		r.edgeMu.Lock()
		if r.earliestOutConflictCommit == 0 || seq < r.earliestOutConflictCommit {
			r.earliestOutConflictCommit = seq
		}
		r.edgeMu.Unlock()
	}

	// Resolve read-only snapshot safety (§4.2): x's fate is now known
	// to every read-only transaction that was watching it.
	var unsafeAt mvcc.SeqNo
	if x.wrote {
		unsafeAt = x.earliestOutConflictCommit
	}
	m.releaseWatchersLocked(x, unsafeAt)

	// Retire for the epoch reclaimer; x stays attached (conflict lookups
	// must still find a writer) until reclaimed or summarized.
	n := m.retire(x)
	m.finishXact(x)
	return n
}

// Abort releases all SSI state for x. The engine calls it after marking
// the transaction aborted in the MVCC layer (or when a serialization
// failure dooms it).
func (m *Manager) Abort(x *Xact) {
	m.mu.Lock()
	if x.aborted {
		m.mu.Unlock()
		return
	}
	x.edgeMu.Lock()
	x.aborted = true
	x.prepared = false
	x.edgeMu.Unlock()
	if !x.committed {
		m.finishXact(x)
	}
	m.releaseLocksLocked(x)
	// §5.3: conflicts involving an aborted transaction can be removed.
	m.dropEdgesLocked(x)
	// Detach safe-snapshot bookkeeping.
	m.unwatchLocked(x)
	m.releaseWatchersLocked(x, 0)
	if !x.unsafe && !x.safe.Load() {
		// Unblock any deferrable waiter; verdict is moot.
		x.unsafe = true
		if x.safeCh != nil {
			close(x.safeCh)
		}
	}
	m.mu.Unlock()
	// An abort can be what advances the reclamation horizon (the
	// aborted transaction may have pinned the oldest epoch).
	m.retireMu.Lock()
	hasRetired := len(m.retired) > 0
	m.retireMu.Unlock()
	if hasRetired {
		m.wakeReclaimer()
	}
}

// dropCommittedBatchLocked fully releases a batch of committed
// transactions' state once no active snapshot can observe them,
// sweeping each lock-table partition at most once for all the victims'
// SIREAD locks (a per-transaction release takes a partition mutex per
// lock, which contends with the mutex-free acquire path — see the
// batch-path rules in partition.go). Caller holds m.mu (the reclaimer);
// the edge locks are taken per endpoint.
func (m *Manager) dropCommittedBatchLocked(cs []*Xact) {
	if len(cs) == 0 {
		return
	}
	for _, c := range cs {
		m.collectLocksLocked(c)
	}
	m.flushRemovalsLocked()
	for _, c := range cs {
		m.dropEdgesLocked(c)
		m.dropXact(c)
	}
}

// dropEdgesLocked removes a finished transaction's conflict edges from
// both endpoints. Caller holds m.mu; the edge locks are taken per
// endpoint.
func (m *Manager) dropEdgesLocked(c *Xact) {
	for w := range c.outConflicts {
		w.edgeMu.Lock()
		delete(w.inConflicts, c)
		w.edgeMu.Unlock()
	}
	for r := range c.inConflicts {
		r.edgeMu.Lock()
		delete(r.outConflicts, c)
		r.edgeMu.Unlock()
	}
	c.edgeMu.Lock()
	c.outConflicts = nil
	c.inConflicts = nil
	c.edgeMu.Unlock()
}

// summarizeLocked consolidates a committed transaction (popped from the
// retire queue by summarizeOnPressure) into the dummy OldCommitted
// transaction (§6.2): its SIREAD locks move to the dummy (tagged with
// its commit seq), its earliest out-conflict commit replaces it in its
// commit-log record, and its graph edges are replaced by summary flags
// on the survivors. Caller holds m.mu.
func (m *Manager) summarizeLocked(c *Xact) {
	m.stats.Summarized++

	// A record truncated before c retired needs no summary: no active
	// reader can find c's versions invisible.
	m.mvcc.Attach(c.XID, summary(c.earliestOutConflictCommit))

	// A read-only c still watching running writers leaves them: its
	// locks move to the dummy below, so a verdict on its snapshot
	// could only count a stat, and each writer would otherwise hold c
	// until it finished.
	m.unwatchLocked(c)

	// Reassign SIREAD locks to the dummy transaction, inserting the
	// dummy's lock before removing c's so concurrent write checks never
	// see the target momentarily unheld.
	c.lockMu.Lock()
	c.lockingDone = true
	for _, e := range c.locks.ents {
		if e.held {
			m.insertDummyLockLocked(e.t, c.CommitSeq)
			m.dropHolder(c, e.t)
		}
	}
	c.locks.reset()
	c.lockMu.Unlock()

	// Readers of c keep their recorded earliestOutConflictCommit;
	// writers conflicting with c gain the summary-conflict-in flag.
	for r := range c.inConflicts {
		r.edgeMu.Lock()
		delete(r.outConflicts, c)
		r.edgeMu.Unlock()
	}
	for w := range c.outConflicts {
		w.edgeMu.Lock()
		delete(w.inConflicts, c)
		if !w.committed && !w.aborted {
			w.summaryConflictIn = true
		}
		w.edgeMu.Unlock()
	}
	c.edgeMu.Lock()
	c.outConflicts = nil
	c.inConflicts = nil
	c.edgeMu.Unlock()
}
