package core

import (
	"pgssi/internal/mvcc"
	"pgssi/internal/trace"
)

// This file implements the transaction lifecycle: the pre-commit
// serialization-failure check (§5.4), commit processing with safe-snapshot
// resolution (§4.2), and abort processing. Cleanup of committed
// transactions (§6.1) and summarization (§6.2) live in reclaim.go.

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
// critical section: lock-set freeze, retire-queue insertion, and the
// registry (finishXact).
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

	// Case 1: x is T3 for some pivot P with P → x. If P has not
	// committed, x would be the first of the structure to commit;
	// abort P now unless a T1 committed before x clears it.
	for pivot := range x.inConflicts {
		if pivot.committed || pivot.aborted || pivot.doomed.Load() {
			continue
		}
		danger := pivot.summaryConflictIn
		if !danger {
			for t1 := range pivot.inConflicts {
				if t1 == x {
					// Two-transaction cycle x → P → x
					// (write skew): always dangerous.
					danger = true
					break
				}
				if !m.cfg.DisableCommitOrderingOpt && t1.committed {
					// T1 committed before T3 (= x, still
					// committing): structure cleared.
					continue
				}
				if !m.cfg.DisableReadOnlyOpt && t1.ReadOnly() && !t1.committed {
					// Active read-only T1 took its snapshot
					// before x commits, so T3 cannot have
					// committed before T1's snapshot.
					continue
				}
				if !m.cfg.DisableReadOnlyOpt && t1.ReadOnly() && t1.committed {
					// Committed read-only T1: dangerous only
					// if x committed before its snapshot —
					// impossible, x is committing now.
					continue
				}
				danger = true
				break
			}
		}
		if !danger {
			continue
		}
		if !pivot.prepared {
			// Doom the pivot (safe-retry rule 2): when retried it
			// will not be concurrent with the committed x.
			if err := m.doomVictimLocked(pivot, x); err != nil {
				return err
			}
			continue
		}
		// Pivot prepared (§7.1): cannot abort it. Abort an active T1
		// if any, else abort x itself.
		aborted := false
		for t1 := range pivot.inConflicts {
			if t1 != x && !t1.committed && !t1.prepared {
				if err := m.doomVictimLocked(t1, x); err != nil {
					return err
				}
				aborted = true
				break
			}
		}
		if !aborted {
			return m.doomVictimLocked(x, x)
		}
	}

	// Case 2: x is the pivot, with a conflict in and a committed (or
	// prepared) conflict out.
	if len(x.inConflicts) > 0 || x.summaryConflictIn {
		if s3 := x.earliestOutConflictCommit; s3 != 0 {
			if err := m.checkPivotLocked(x, s3, x); err != nil {
				return err
			}
		}
		for t3 := range x.outConflicts {
			if t3.prepared && !t3.committed {
				if err := m.checkPivotPreparedT3Locked(x, x); err != nil {
					return err
				}
				break
			}
		}
		if m.cfg.DisableCommitOrderingOpt && len(x.outConflicts) > 0 {
			// Basic SSI: both flags set is enough to abort.
			return m.doomVictimLocked(x, x)
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
	for ro := range x.watchingROs {
		ro.edgeMu.Lock()
		delete(ro.possibleUnsafe, x)
		undecided := len(ro.possibleUnsafe) == 0 && !ro.unsafe && !ro.safe.Load()
		ro.edgeMu.Unlock()
		if x.wrote && x.earliestOutConflictCommit != 0 && x.earliestOutConflictCommit <= ro.SnapshotSeq {
			// x committed with an rw-conflict out to a transaction
			// that committed before ro's snapshot: unsafe.
			m.markUnsafeLocked(ro)
			continue
		}
		if undecided {
			m.markSafeLocked(ro)
		}
	}
	x.edgeMu.Lock()
	x.watchingROs = nil
	x.edgeMu.Unlock()

	// Retire for the epoch reclaimer; a transaction that wrote stays in
	// the registry (conflict lookups and the read-only safety scan must
	// still find it) until reclaimed or summarized.
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
	for w := range x.outConflicts {
		w.edgeMu.Lock()
		delete(w.inConflicts, x)
		w.edgeMu.Unlock()
	}
	for r := range x.inConflicts {
		r.edgeMu.Lock()
		delete(r.outConflicts, x)
		r.edgeMu.Unlock()
	}
	x.edgeMu.Lock()
	x.outConflicts = nil
	x.inConflicts = nil
	x.edgeMu.Unlock()
	// Detach safe-snapshot bookkeeping.
	for rw := range x.possibleUnsafe {
		rw.edgeMu.Lock()
		delete(rw.watchingROs, x)
		rw.edgeMu.Unlock()
	}
	x.edgeMu.Lock()
	x.possibleUnsafe = nil
	x.edgeMu.Unlock()
	for ro := range x.watchingROs {
		ro.edgeMu.Lock()
		delete(ro.possibleUnsafe, x)
		undecided := len(ro.possibleUnsafe) == 0 && !ro.unsafe && !ro.safe.Load()
		ro.edgeMu.Unlock()
		if undecided {
			m.markSafeLocked(ro)
		}
	}
	x.edgeMu.Lock()
	x.watchingROs = nil
	x.edgeMu.Unlock()
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
// its commit seq), its earliest out-conflict commit is recorded in the
// summary table, and its graph edges are replaced by summary flags on
// the survivors. Caller holds m.mu.
func (m *Manager) summarizeLocked(c *Xact) {
	m.stats.Summarized++

	// The summary table: xid → commit seq of the earliest transaction
	// c had a conflict out to (zero if none).
	m.summary[c.XID] = c.earliestOutConflictCommit

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
	m.dropXact(c)
}

// doomVictimLocked dooms victim, falling back per the safe-retry rules if
// the victim cannot be aborted. caller receives ErrSerializationFailure
// when it is the chosen victim.
func (m *Manager) doomVictimLocked(victim, caller *Xact) error {
	if victim.committed || victim.prepared {
		if caller != victim && !caller.committed && !caller.prepared {
			return m.doomLocked(caller, caller)
		}
		return nil
	}
	return m.doomLocked(victim, caller)
}
