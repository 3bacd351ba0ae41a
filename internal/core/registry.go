package core

import (
	"sync"

	"pgssi/internal/mvcc"
)

// This file implements the sharded registry of the transactions a heap
// version can name, which replaced the global xact map guarded by
// Manager.mu. Begin registers a transaction by locking only the shard its
// xid hashes to, so starting a transaction does not serialize on commits
// or on other begins. Conflict edges need the registry to turn the xid
// the MVCC layer stamped on a version into its writer's *Xact; the
// read-only safety scan (registerROWatchesLocked) walks it. So it holds
// every active transaction that may write and every committed one that
// did, until the reclaimer or summarization drops it. A transaction
// declared read-only never writes (the engine rejects it with
// ErrReadOnlyTx) and is never registered; one that commits having
// written nothing leaves at its commit. Neither can decide a read-only
// snapshot's safety, and keeping them out keeps the scan as short as the
// set of writers the horizon still holds.
//
// The registry answers no horizon question. Which committed state may be
// reclaimed is decided by internal/mvcc's one oldest-snapshot function
// (mvcc.Manager.OldestSnapshot): the engine's mvcc.Begin pins it before
// the SSI Begin runs, so a transaction holds the horizon from before it
// is registered here until after it has finished.

// xactShard is one shard of the registry.
type xactShard struct {
	mu sync.Mutex //ssi:lock level=30 name=core.xactShard
	// tracked maps xid → transaction for every registered transaction:
	// active or prepared and not declared read-only, or committed with
	// writes and awaiting reclaim.
	tracked map[mvcc.TxID]*Xact
}

func newXactShards(n int) []xactShard {
	shards := make([]xactShard, n)
	for i := range shards {
		shards[i].tracked = make(map[mvcc.TxID]*Xact)
	}
	return shards
}

func (m *Manager) xshard(xid mvcc.TxID) *xactShard {
	return &m.xshards[uint64(xid)&m.xshardMask]
}

// registerXact publishes x in the registry and counts it in rwActive
// until it finishes (finishXact). Both are no-ops for a transaction
// declared read-only, as is dropXact.
func (m *Manager) registerXact(x *Xact) {
	if x.declaredRO {
		return
	}
	m.rwActive.Add(1)
	s := m.xshard(x.XID)
	s.mu.Lock()
	s.tracked[x.XID] = x
	s.mu.Unlock()
}

// finishXact uncounts x from rwActive once it has committed or aborted,
// and unregisters it unless it committed with writes: an aborted
// transaction's versions are void (§5.3), and no version names a
// write-free one.
func (m *Manager) finishXact(x *Xact) {
	if x.declaredRO {
		return
	}
	m.rwActive.Add(-1)
	if x.aborted || !x.wrote {
		m.dropXact(x)
	}
}

// dropXact removes x from the registry.
func (m *Manager) dropXact(x *Xact) {
	if x.declaredRO {
		return
	}
	s := m.xshard(x.XID)
	s.mu.Lock()
	delete(s.tracked, x.XID)
	s.mu.Unlock()
}

// lookupXact returns the tracked transaction with the given xid.
func (m *Manager) lookupXact(xid mvcc.TxID) (*Xact, bool) {
	s := m.xshard(xid)
	s.mu.Lock()
	x, ok := s.tracked[xid]
	s.mu.Unlock()
	return x, ok
}

// TrackedXacts returns the number of transactions currently registered.
// Exposed for memory-bound tests; run ReclaimNow first to get a
// post-quiescence count.
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
