package core

import (
	"math"
	"sync"

	"pgssi/internal/mvcc"
)

// This file implements the sharded active-transaction registry that
// replaced the global xact map guarded by Manager.mu. Begin registers a
// transaction by locking only the shard its xid hashes to, so starting a
// transaction does not serialize on commits or on other begins.
//
// The registry also defines the reclamation epoch used by the background
// reclaimer (reclaim.go). Every transaction publishes a snapshot *bound*
// — a monotone lower bound on its snapshot's commit-sequence number —
// into an atomic BEFORE it becomes visible in a shard, and refines it to
// the exact snapshot sequence once the snapshot is taken. The reclaimer
// computes the horizon as the minimum bound over all registered active
// transactions; because registration precedes the snapshot (Begin's
// snapshot-ordering step), a transaction that is between registration
// and snapshot acquisition is already visible with a conservative bound,
// and committed state it could still observe is never reclaimed. The
// DisableLifecycleFencing ablation inverts that order and makes the
// premature reclamation reproducible (see lifecycle_test harnesses).

// xactShard is one shard of the registry.
type xactShard struct {
	mu sync.Mutex //ssi:lock level=30 name=core.xactShard
	// tracked maps xid → transaction for every transaction the SSI layer
	// still knows about: active, prepared, or committed-awaiting-reclaim.
	tracked map[mvcc.TxID]*Xact
	// active is the subset of tracked that has neither committed nor
	// aborted (prepared transactions are active).
	active map[*Xact]struct{}
}

func newXactShards(n int) []xactShard {
	shards := make([]xactShard, n)
	for i := range shards {
		shards[i].tracked = make(map[mvcc.TxID]*Xact)
		shards[i].active = make(map[*Xact]struct{})
	}
	return shards
}

func (m *Manager) xshard(xid mvcc.TxID) *xactShard {
	return &m.xshards[uint64(xid)&m.xshardMask]
}

// registerXact publishes x in the registry (tracked and active). The
// caller must have stored x's snapshot bound first: from the moment this
// returns, the reclaimer may read it.
func (m *Manager) registerXact(x *Xact) {
	s := m.xshard(x.XID)
	s.mu.Lock()
	s.tracked[x.XID] = x
	s.active[x] = struct{}{}
	s.mu.Unlock()
	m.activeCount.Add(1)
}

// deactivateXact removes x from the active set but keeps it tracked
// (committed transactions stay visible to conflict lookups until the
// reclaimer or summarization drops them).
func (m *Manager) deactivateXact(x *Xact) {
	s := m.xshard(x.XID)
	s.mu.Lock()
	_, wasActive := s.active[x]
	delete(s.active, x)
	s.mu.Unlock()
	if wasActive {
		m.activeCount.Add(-1)
	}
}

// dropXact removes x from the registry entirely.
func (m *Manager) dropXact(x *Xact) {
	s := m.xshard(x.XID)
	s.mu.Lock()
	_, wasActive := s.active[x]
	delete(s.active, x)
	delete(s.tracked, x.XID)
	s.mu.Unlock()
	if wasActive {
		m.activeCount.Add(-1)
	}
}

// lookupXact returns the tracked transaction with the given xid.
func (m *Manager) lookupXact(xid mvcc.TxID) (*Xact, bool) {
	s := m.xshard(xid)
	s.mu.Lock()
	x, ok := s.tracked[xid]
	s.mu.Unlock()
	return x, ok
}

// SnapshotSeq returns the snapshot CSN of the tracked transaction xid (a
// lower bound on it while the transaction is still inside Begin).
// Exposed for tests.
func (m *Manager) SnapshotSeq(xid mvcc.TxID) (mvcc.SeqNo, bool) {
	x, ok := m.lookupXact(xid)
	if !ok {
		return 0, false
	}
	return mvcc.SeqNo(x.snapshotBound.Load()), true
}

// activeXacts snapshots the active set, one shard at a time. The result
// can be stale the moment it returns; callers (the read-only safety scan
// and the reclaimer) tolerate that by construction — see the bound
// protocol above and the retire-before-deactivate ordering in
// lifecycle.go.
func (m *Manager) activeXacts() []*Xact {
	var out []*Xact
	for i := range m.xshards {
		s := &m.xshards[i]
		s.mu.Lock()
		for x := range s.active {
			out = append(out, x)
		}
		s.mu.Unlock()
	}
	return out
}

// epochHorizon computes the reclamation horizon: the minimum snapshot
// bound over all active transactions (MaxUint64 if none), whether every
// active transaction is declared read-only, and the active count.
// Committed state with CommitSeq <= the horizon cannot be observed by
// any present or future transaction: present actives have published
// bounds <= their snapshots, and any transaction registered after this
// scan takes its snapshot after registering, hence at or above the
// commit sequence current at scan time.
func (m *Manager) epochHorizon() (minSeq mvcc.SeqNo, allRO bool, nActive int) {
	minSeq = mvcc.SeqNo(math.MaxUint64)
	allRO = true
	for i := range m.xshards {
		s := &m.xshards[i]
		s.mu.Lock()
		for x := range s.active {
			nActive++
			if b := mvcc.SeqNo(x.snapshotBound.Load()); b < minSeq {
				minSeq = b
			}
			if !x.declaredRO {
				allRO = false
			}
		}
		s.mu.Unlock()
	}
	return minSeq, allRO, nActive
}

// TrackedXacts returns the number of transactions currently tracked
// (active + committed-awaiting-reclaim). Exposed for memory-bound tests;
// run ReclaimNow first to get a post-quiescence count.
func (m *Manager) TrackedXacts() int {
	n := 0
	for i := range m.xshards {
		s := &m.xshards[i]
		s.mu.Lock()
		n += len(s.tracked)
		s.mu.Unlock()
	}
	return n
}
