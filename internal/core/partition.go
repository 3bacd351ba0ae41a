package core

import (
	"sync"

	"pgssi/internal/mvcc"
)

// This file implements the hash-partitioned SIREAD lock table, the
// analogue of PostgreSQL's PredicateLockHashPartitionLock array. The
// table is sharded by Target into Config.Partitions shards, each with
// its own mutex, so lock acquisition and release — the hottest path in
// the system, taken once per tuple read — do not serialize on the
// global SSI mutex.
//
// Lock ordering (deadlock freedom and correctness rule):
//
//  0. Storage-layer locks (internal/storage): a per-page read latch
//     and a row lock (storage/latch.go has their order). The engine's
//     read and write paths enter this package while holding a page
//     latch (never a row lock) — the
//     latch is what makes a read's {visibility check, SIREAD insert}
//     and a write's {xmax stamp, CheckWrite probe} atomic units — so
//     every lock below nests strictly inside the storage locks. No
//     code path in this package may call into internal/storage or
//     otherwise acquire a storage lock.
//  1. Manager.mu — the conflict-graph mutex: rw-antidependency
//     flagging, dangerous-structure traversal, the pre-commit check of
//     edge-bearing transactions, read-only safety registration and
//     resolution, the summary table, and reclamation/summarization of
//     committed state. (Begin and conflict-free commits do NOT take
//     it; see levels 2a–2c.)
//  2a. xactShard.mu — one shard of the active-transaction registry
//     (registry.go). Begin takes only this; mu-holders take shards one
//     at a time for lookups and scans.
//  2b. Xact.edgeMu — one transaction's edge lock, guarding its
//     conflict-edge and safety-watch maps and its lifecycle flags
//     against the commit fast path. A thread holding Manager.mu may
//     hold several edge locks at once, in any order (mu serializes all
//     multi-holders); a thread NOT holding Manager.mu may hold at most
//     ONE — its own transaction's, on the conflict-free commit fast
//     path. That single-lock discipline is what makes pair ordering
//     unnecessary.
//  2c. Manager.retireMu — the epoch reclaimer's retire queue
//     (reclaim.go). Leaf with respect to 2a/2b: never held together
//     with a shard or edge lock. (Whole reclaim passes additionally
//     serialize on reclaimer.passMu, which sits ABOVE Manager.mu and
//     is only ever taken with no other lock held.)
//  3. Xact.lockMu — one transaction's own lock bookkeeping (its lock
//     set and granularity-promotion counters).
//  4. lockPartition.mu — one shard of the target → holders table and
//     of the summarized dummy transaction's lock tags.
//
// A thread may acquire these only outer-to-inner, holds at most one
// Xact.lockMu and at most one partition mutex at a time, and never
// acquires an outer lock while holding an inner one. The level-2 locks
// are mutually unordered; a thread holds locks from at most one of 2a,
// 2b, 2c at a time (the read-only safety scan collects candidates from
// the shards and the retire queue first, releasing them, and only then
// takes edge locks). The mvcc.Manager's locks (entered via snapFn /
// commitFn callbacks and via fate lookups) are leaves that may be taken
// from under mu or an edge lock: a commit-log shard RWMutex (one at a
// time; CSN assignment and commit-log publication share one shard
// critical section, so a fate lookup can at worst block momentarily on
// a mid-publication commit), the truncation mutex, and — legacy
// snapshot mode only — the mvcc global mutex.
// Cross-partition operations (PageSplit, PromoteRelationLocks,
// summarization, reclamation) serialize through Manager.mu and then
// visit partitions one at a time, so they need no ordering among
// partition mutexes.
//
// Reclamation epochs: committed transactions are not cleaned up inside
// commit any more. A transaction pins the epoch of its snapshot in the
// registry before taking it (Begin's snapshot-ordering step); commits
// retire into Manager.retired; and the background reclaimer drops a
// retired transaction's SIREAD locks and edges only once every pinned
// epoch has passed its commit sequence (reclaim.go). The lock table
// consequences: a holder found in a partition may be committed (locks
// outlive commit until the horizon passes, as §5.2 requires), and
// dummy-lock expiry uses the same horizon.
//
// Snapshot-vs-reclaimer epoch rule for the MVCC commit log: the same
// reclaimer pass also truncates the commit log (mvcc.AutoTruncate), but
// against mvcc's OWN horizon — the minimum begin-time published CSN
// over all active MVCC transactions at every isolation level, not this
// package's registry horizon, which covers only serializable
// transactions. A committed xid is truncated only once every present or
// future snapshot resolves it visible; snapshots not pinned by an
// active MVCC transaction (DB.Vacuum's horizon) must create one for the
// duration of use. Aborted xids survive truncation as tombstones until
// the heap is vacuumed clean of them (mvcc.DropAbortedBelow).
//
// Two invariants keep conflict detection correct without a global
// lock-table mutex (§5.2.1 with concurrent granularity promotion):
//
//   - Promotion inserts the coarser lock BEFORE removing the finer
//     locks it replaces, so at every instant at least one granularity
//     covering the read is present in the table.
//   - Writers check granularities finest to coarsest (tuple, page,
//     relation; see CheckWrite). Together with the previous invariant,
//     any interleaving of a write check with a concurrent promotion
//     sees the lock at one level or another: if the finer lock is
//     already gone, the coarser one was inserted before the writer
//     reached that coarser level.
//
// Batch paths (PR 5). The page-grained scan read path batches SIREAD
// acquisition (AcquireTupleLockBatch) and the reclaimer batches release
// (flushRemovalsLocked); both follow the same outer-to-inner order with
// two refinements:
//
//   - A lock batch NEVER spans heap pages. The engine's scan takes the
//     rows it walks in runs that share a heap page (storage.Reader; a
//     row's page never changes) and registers one run's tuples per
//     call, from inside that page's shared read latch — so the PR 2
//     atomicity unit {visibility check, SIREAD registration} stays per
//     page, and the level-0 rule (storage latch outside all core locks)
//     is unchanged. Within a batch, x.lockMu is taken ONCE, promotion
//     is decided once and first (a batch over the tuple→page threshold
//     is one page-lock insert: locks.go has the rule), and otherwise
//     the surviving inserts take each partition mutex at most once —
//     still one partition mutex at a time, so the ordering argument is
//     unaffected.
//   - Batched release defers the partition-side holder removal: a
//     reclaim pass freezes each victim's lock set under its lockMu
//     (setting lockingDone and clearing x.locks), then sweeps each
//     partition once for the whole batch. In the window between the
//     two steps the lock table transiently contains holders whose own
//     lock set is already empty. That desync is invisible: the entire
//     pass holds Manager.mu, and every reader of another transaction's
//     holder entries — CheckWrite's probes, PageSplit,
//     PromoteRelationLocks, summarization — also requires Manager.mu,
//     while mutex-free paths (acquire, DropOwnTupleLock) touch only
//     their own transaction's entries.
//
// Finished-transaction insert audit (PR 5): insertLockXLocked has no
// lockingDone guard, and PageSplit / PromoteRelationLocks call it for
// holders that may already be committed — deliberately, since a
// committed transaction's SIREAD locks must follow page splits until
// reclamation (§5.2). This cannot leak a lock past release: every
// release path (Abort, markSafeLocked, the reclaimer's drop, the §6.1
// read-only sweep, and summarization) runs under Manager.mu, and
// PageSplit / PromoteRelationLocks hold Manager.mu across {holder-set
// snapshot, insert} — so either the release ran first (the transaction
// is no longer a holder anywhere and receives nothing) or the insert
// lands first and the release, which drains x.locks in the same
// critical-section regime, removes it. Mutex-free acquire paths are
// fenced per-transaction instead: lockingDone is set and checked under
// x.lockMu. The quiesce regression test
// TestPageSplitQuiesceAccounting pins the LockCount == LocksCurrent
// consequence.

// lockPartition is one shard of the SIREAD lock table. Its mutex is
// the innermost of the package's annotated locks — the acquisition
// order is machine-checked by ssilint against the canonical level
// table in docs/invariants.md.
type lockPartition struct {
	mu sync.Mutex //ssi:lock level=50 name=core.partition
	// locks maps target → holders, for targets hashing to this shard.
	locks map[Target]map[*Xact]struct{}
	// dummySeqs records, per target held by the summarized dummy
	// transaction, the latest commit sequence number of any absorbed
	// holder, for cleanup (§6.2).
	dummySeqs map[Target]mvcc.SeqNo
}

func newLockPartitions(n int) []lockPartition {
	parts := make([]lockPartition, n)
	for i := range parts {
		parts[i].locks = make(map[Target]map[*Xact]struct{})
		parts[i].dummySeqs = make(map[Target]mvcc.SeqNo)
	}
	return parts
}

// partitionIndex returns the index of the shard responsible for t, by
// FNV-1a hash of the full target tag (relation, level, page, key).
func (m *Manager) partitionIndex(t Target) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(t.Rel); i++ {
		h ^= uint64(t.Rel[i])
		h *= prime64
	}
	h ^= uint64(uint8(t.Level))
	h *= prime64
	h ^= uint64(t.Page)
	h *= prime64
	for i := 0; i < len(t.Key); i++ {
		h ^= uint64(t.Key[i])
		h *= prime64
	}
	return h & m.partMask
}

// partition returns the shard responsible for t.
func (m *Manager) partition(t Target) *lockPartition {
	return &m.parts[m.partitionIndex(t)]
}

// bumpLocksCurrent adjusts the live-lock gauge and maintains the peak.
func (m *Manager) bumpLocksCurrent(delta int64) {
	cur := m.locksCurrent.Add(delta)
	if delta <= 0 {
		return
	}
	for {
		peak := m.locksPeak.Load()
		if cur <= peak || m.locksPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// insertDummyLockLocked records a SIREAD lock held by the summarized
// dummy transaction, remembering the latest commit seq of any holder so
// the lock can eventually be cleaned up (§6.2). Caller holds m.mu
// (dummy locks are only created by lifecycle and structural operations,
// which all serialize through the SSI mutex).
func (m *Manager) insertDummyLockLocked(t Target, seq mvcc.SeqNo) {
	p := m.partition(t)
	p.mu.Lock()
	defer p.mu.Unlock()
	holders := p.locks[t]
	if holders == nil {
		holders = make(map[*Xact]struct{})
		p.locks[t] = holders
	}
	if _, ok := holders[m.oldCommitted]; !ok {
		holders[m.oldCommitted] = struct{}{}
		m.bumpLocksCurrent(1)
	}
	if seq > p.dummySeqs[t] {
		p.dummySeqs[t] = seq
	}
}

// removeDummyLockLocked removes the dummy transaction's lock on t.
// Caller holds m.mu.
func (m *Manager) removeDummyLockLocked(t Target) {
	p := m.partition(t)
	p.mu.Lock()
	defer p.mu.Unlock()
	m.removeDummyPartLocked(p, t)
}

// removeDummyPartLocked removes the dummy transaction's lock on t,
// which must hash to p. Caller holds m.mu and p.mu.
func (m *Manager) removeDummyPartLocked(p *lockPartition, t Target) {
	if _, ok := p.dummySeqs[t]; !ok {
		return
	}
	delete(p.dummySeqs, t)
	if holders, ok := p.locks[t]; ok {
		if _, held := holders[m.oldCommitted]; held {
			delete(holders, m.oldCommitted)
			m.locksCurrent.Add(-1)
		}
		if len(holders) == 0 {
			delete(p.locks, t)
		}
	}
}

// expireDummyLocksLocked drops every dummy lock whose absorbed holders
// all committed at or before minSeq (§6.1). Caller holds m.mu.
func (m *Manager) expireDummyLocksLocked(minSeq mvcc.SeqNo) {
	for i := range m.parts {
		p := &m.parts[i]
		p.mu.Lock()
		for t, seq := range p.dummySeqs {
			if seq <= minSeq {
				m.removeDummyPartLocked(p, t)
			}
		}
		p.mu.Unlock()
	}
}
