package core

import (
	"errors"

	"pgssi/internal/mvcc"
)

// Two-phase commit support (§7.1). PREPARE runs the pre-commit
// serialization check (a prepared transaction can no longer be aborted,
// so the check must happen before preparing) and produces a durable
// record of the transaction's SIREAD locks. After a crash, recovered
// prepared transactions are conservatively assumed to have
// rw-antidependencies both in and out, because the dependency graph
// itself is not persisted.

// ErrNotPrepared is returned when finishing a transaction that was never
// prepared.
var ErrNotPrepared = errors.New("core: transaction is not prepared")

// PreparedState is the durable SSI state of a prepared transaction: the
// lock targets it holds. It is what PostgreSQL writes to the two-phase
// state file.
type PreparedState struct {
	XID   mvcc.TxID
	Locks []Target
}

// Prepare runs the pre-commit serialization-failure check and, if it
// passes, marks x prepared and returns the state to persist. A prepared
// transaction's SIREAD locks remain active and new conflicts against it
// can still be flagged, but it can no longer be chosen as an abort victim.
func (m *Manager) Prepare(x *Xact) (PreparedState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.preCommitCheckLocked(x); err != nil {
		return PreparedState{}, err
	}
	// The prepared flag is read by conflict flaggers under the edge
	// lock (it disqualifies the commit fast path and changes victim
	// selection), so it is written under it too.
	x.edgeMu.Lock()
	x.prepared = true
	x.edgeMu.Unlock()
	x.lockMu.Lock()
	st := PreparedState{XID: x.XID}
	for _, e := range x.locks.ents {
		if e.held {
			st.Locks = append(st.Locks, e.t)
		}
	}
	x.lockMu.Unlock()
	return st, nil
}

// CommitPrepared commits a prepared transaction. commitFn assigns the
// commit sequence number under the SSI mutex. Unlike Commit, no
// serialization check runs here: it already ran at Prepare, and a
// prepared transaction is guaranteed to be committable.
func (m *Manager) CommitPrepared(x *Xact, commitFn func() mvcc.SeqNo) error {
	m.mu.Lock()
	if !x.prepared {
		m.mu.Unlock()
		return ErrNotPrepared
	}
	seq := commitFn()
	n := m.finishCommitLocked(x, seq)
	m.mu.Unlock()
	m.afterCommit(n)
	return nil
}

// AbortPrepared rolls back a prepared transaction (ROLLBACK PREPARED is
// a user decision; SSI itself never aborts a prepared transaction).
func (m *Manager) AbortPrepared(x *Xact) error {
	m.mu.Lock()
	prepared := x.prepared
	m.mu.Unlock()
	if !prepared {
		return ErrNotPrepared
	}
	m.Abort(x)
	return nil
}

// RecoverPrepared reconstitutes a prepared transaction after a crash from
// its persisted state. Because the rw-antidependency graph is not
// persisted, the recovered transaction is conservatively assumed to have
// conflicts both in and out (§7.1): summaryConflictIn is set, and its
// earliest out-conflict commit is set to the most pessimistic value so
// any future in-conflict completes a dangerous structure.
func (m *Manager) RecoverPrepared(st PreparedState, snapshotSeq mvcc.SeqNo) *Xact {
	m.mu.Lock()
	defer m.mu.Unlock()
	x := &Xact{
		XID:         st.XID,
		SnapshotSeq: snapshotSeq,
		wrote:       true,
		prepared:    true,
	}
	x.summaryConflictIn = true
	x.earliestOutConflictCommit = 1
	m.attachXact(x)
	x.lockMu.Lock()
	for _, t := range st.Locks {
		m.insertLockXLocked(x, t)
	}
	x.lockMu.Unlock()
	return x
}

// Prepared reports whether x is in the prepared state.
func (x *Xact) Prepared() bool { return x.prepared }
