package core

import (
	"math/bits"
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
// Layout. Each lock is recorded twice, kept in sync under the holder's
// Xact.lockMu: in the table, where a partition's open-addressing table
// (holderTable, keyed by the target hash that picked the partition)
// maps a target to its holder set (holderSet: the first holder inline, a
// map only once a second holder arrives), and in the holder's own lock
// set (lockSet, lockset.go: target → held mark plus the §5.2.1
// promotion counters, its first entries inline in the Xact, linear
// probing while small and a map index past that). Neither form
// allocates for a point transaction's locks: the partition tables are
// long-lived and grow only to the table's peak.
//
// Lock ordering (deadlock freedom and correctness rule):
//
//  0. Storage-layer locks (internal/storage): the heap page latch
//     (storage/latch.go). The engine's read and write paths enter this
//     package while holding a page latch — the
//     latch is what makes a read's {visibility check, SIREAD insert}
//     and a write's {xmax stamp, CheckWrite probe} atomic units — so
//     every lock below nests strictly inside the storage locks. No
//     code path in this package may call into internal/storage or
//     otherwise acquire a storage lock.
//  1. Manager.mu — the conflict-graph mutex: rw-antidependency
//     flagging, dangerous-structure traversal, the pre-commit check of
//     edge-bearing transactions, read-only safety registration and
//     resolution, and reclamation/summarization of committed state.
//     (Begin, conflict-free commits and writes nobody else read do NOT
//     take it; see levels 2a–2b and the write probe below.)
//  2a. Xact.edgeMu — one transaction's edge lock, guarding its
//     conflict-edge and safety-watch maps and its lifecycle flags
//     against the commit fast path. A thread holding Manager.mu may
//     hold several edge locks at once, in any order (mu serializes all
//     multi-holders); a thread NOT holding Manager.mu may hold at most
//     ONE — its own transaction's, on the conflict-free commit fast
//     path. That single-lock discipline is what makes pair ordering
//     unnecessary.
//  2b. Manager.retireMu — the epoch reclaimer's retire queue
//     (reclaim.go). Leaf with respect to 2a: never held together with
//     an edge lock. (Whole reclaim passes additionally serialize on
//     reclaimer.passMu, which sits ABOVE Manager.mu and is only ever
//     taken with no other lock held.)
//  3. Xact.lockMu — one transaction's own lock bookkeeping (its lock
//     set and granularity-promotion counters).
//  4. lockPartition.mu — one shard of the target → holders table and
//     of the summarized dummy transaction's lock tags.
//
// A thread may acquire these only outer-to-inner, holds at most one
// Xact.lockMu and at most one partition mutex at a time, and never
// acquires an outer lock while holding an inner one. The level-2 locks
// are mutually unordered; a thread holds locks from at most one of 2a
// and 2b at a time. The mvcc.Manager's locks (entered via snapFn /
// commitFn callbacks, fate lookups, and the attach, lookup and scan of
// each transaction's SSI state in its commit-log record) are leaves that
// may be taken from under mu or an edge lock: a commit-log shard RWMutex
// (one at a time; CSN assignment and commit-log publication share one
// shard critical section, so a fate lookup can at worst block
// momentarily on a mid-publication commit) and the truncation mutex. The
// read-only safety scan collects the running transactions from the
// commit-log shards first, releasing them, and only then takes edge
// locks.
// Cross-partition operations (PageSplit, PromoteRelationLocks,
// summarization, reclamation) serialize through Manager.mu and then
// visit partitions one at a time, so they need no ordering among
// partition mutexes.
//
// Reclamation epochs: committed transactions are not cleaned up inside
// commit any more. A transaction pins the epoch of its snapshot from its
// mvcc.Begin, before the SSI Begin takes the snapshot; commits retire
// into Manager.retired; and the background reclaimer drops a retired
// transaction's SIREAD locks and edges only once the horizon — the
// minimum pinned epoch, mvcc.Manager.OldestSnapshot — has passed its
// commit sequence (reclaim.go). The lock table consequences: a holder
// found in a partition may be committed (locks outlive commit until the
// horizon passes, as §5.2 requires), and dummy-lock expiry uses the same
// horizon. So does the commit-log truncation the same pass runs
// (mvcc.AutoTruncate): a committed xid is truncated only once every
// present or future snapshot resolves it visible. An aborted xid never
// waits for it: mvcc.Abort forgets it once its writes are undone.
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
// The mutex-free write probe. CheckWrite first probes its tuple, page
// and relation targets, finest first, under each partition mutex alone
// (no Manager.mu), and takes Manager.mu for the full check only when a
// probe finds a holder other than the writer. A "nobody" answer is as
// good as one taken under Manager.mu, because every way a holder can
// leave a target is one of these:
//
//   - Released outright: Abort (an aborted reader's edges are void,
//     §5.3), markSafeLocked (a reader on a safe snapshot is in no
//     dangerous structure, §4.2), the reclaimer's drop and dummy expiry
//     (the horizon passed the holder's commit, so nothing active is
//     concurrent with it and no rw-antidependency to a present or future
//     writer can exist), and the §6.1 sweep (reclaim.go: it strips only
//     transactions retired before its recheck of the count of active
//     read/write transactions, so any writer concurrent with one of them
//     either is counted there and stops the sweep, or probed before the
//     sweep, or begins after it and is not concurrent). None of these needs the
//     writer to wait for Manager.mu.
//   - Moved: promotion (mutex-free, under the holder's lockMu),
//     PromoteRelationLocks and summarization into the dummy transaction
//     (both under Manager.mu) all insert the destination lock — the same
//     target for summarization, a coarser one otherwise — before they
//     remove the source. A writer that probes the source's target
//     before the removal finds the source; one that probes it after
//     finds the destination there (summarization) or, probing finest
//     first, reaches the coarser destination later still, after its
//     insert. So the probe sees the lock at one place or the other,
//     exactly as for promotion above.
//   - PageSplit only ever adds locks, on index pages.
//
// The writer holds its row's heap page latch exclusively across the
// probe, so a reader of that row cannot register a new lock on it
// meanwhile (the level-0 atomicity unit). The storage is pinned by
// TestLockStorageMatchesReferenceModel, the argument by the root
// package's TestDetectionWindowMutexFreeWriteProbe (a reader's
// promotion and a summarization racing a parked writer's probe).
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
//     holder entries that acts on them — CheckWrite's full check,
//     PageSplit, PromoteRelationLocks, summarization — also requires
//     Manager.mu, while mutex-free paths (acquire, DropOwnTupleLock)
//     touch only their own transaction's entries. CheckWrite's
//     mutex-free probe may see such a holder; all it does with one is
//     take Manager.mu and look again, after the flush.
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
	// A target is present iff its holder set is non-empty.
	locks holderTable
	// dummySeqs records, per target held by the summarized dummy
	// transaction, the latest commit sequence number of any absorbed
	// holder, for cleanup (§6.2).
	dummySeqs map[Target]mvcc.SeqNo
}

// holderSet is the set of transactions holding a SIREAD lock on one
// target. Its first holder is kept inline, so the common target — read
// by one transaction at a time — costs its slot in the partition's table
// and nothing else; a map is made only when a second holder arrives, and
// is kept (empty or not) for as long as the target is locked, so a hot
// target does not remake it as holders come and go. first is nil only in
// an empty set, and more never contains first.
type holderSet struct {
	first *Xact
	more  map[*Xact]struct{}
}

// add inserts x, reporting false if x already held the target.
func (h *holderSet) add(x *Xact) bool {
	if h.first == nil {
		h.first = x
		return true
	}
	if h.first == x {
		return false
	}
	if _, dup := h.more[x]; dup {
		return false
	}
	if h.more == nil {
		h.more = make(map[*Xact]struct{})
	}
	h.more[x] = struct{}{}
	return true
}

// remove deletes x, reporting whether it was a holder. Removing the
// inline holder moves a spilled one inline.
func (h *holderSet) remove(x *Xact) bool {
	if h.first != x {
		if _, ok := h.more[x]; !ok {
			return false
		}
		delete(h.more, x)
		return true
	}
	h.first = nil
	for y := range h.more {
		h.first = y
		delete(h.more, y)
		break
	}
	return true
}

// empty reports whether no transaction holds the target.
func (h *holderSet) empty() bool { return h.first == nil }

// len returns the number of holders.
func (h *holderSet) len() int {
	if h.first == nil {
		return 0
	}
	return 1 + len(h.more)
}

// hasOther reports whether a transaction other than x holds the target.
func (h *holderSet) hasOther(x *Xact) bool {
	return h.first != nil && (h.first != x || len(h.more) > 0)
}

// appendOthers appends every holder but skip to dst.
func (h *holderSet) appendOthers(dst []*Xact, skip *Xact) []*Xact {
	if h.first != nil && h.first != skip {
		dst = append(dst, h.first)
	}
	for y := range h.more {
		if y != skip {
			dst = append(dst, y)
		}
	}
	return dst
}

// holderTable is one partition's target → holder-set table: open
// addressing with linear probing over a power-of-two array of slots,
// keyed by the target's hash — the one that chose the partition, so a
// lock operation hashes its target once — and kept at most 3/4 full.
// Deletion shifts the following run back instead of leaving a
// tombstone, so lock churn, which inserts and deletes targets
// continuously, never lengthens a probe. The table grows and never
// shrinks, as a Go map does. Guarded by the partition mutex.
type holderTable struct {
	slots []holderSlot
	used  int
	shift uint8 // 64 - log2(len(slots))
}

// holderSlot is one slot of a holderTable; it is free iff its holder set
// is empty.
type holderSlot struct {
	h  uint64
	t  Target
	hs holderSet
}

// minHolderSlots is a holderTable's first size.
const minHolderSlots = 16

// home is the slot a target with hash h probes first: the top bits of
// h times 2^64/φ. The partition was picked with h's low bits, and FNV's
// high bits barely depend on a key's last bytes, so neither is used
// directly.
func (tb *holderTable) home(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> tb.shift)
}

// find returns the slot holding t, which hashes to h, or -1.
func (tb *holderTable) find(h uint64, t *Target) int {
	if tb.used == 0 {
		return -1
	}
	mask := len(tb.slots) - 1
	for i := tb.home(h); ; i = (i + 1) & mask {
		s := &tb.slots[i]
		if s.hs.empty() {
			return -1
		}
		if s.h == h && sameTarget(&s.t, t) {
			return i
		}
	}
}

// holders returns t's holder set (empty if t is not locked). The set's
// spilled map is shared with the table: read it under the partition
// mutex only.
func (tb *holderTable) holders(h uint64, t Target) holderSet {
	if i := tb.find(h, &t); i >= 0 {
		return tb.slots[i].hs
	}
	return holderSet{}
}

// add inserts (t, x), reporting whether x was not yet a holder.
func (tb *holderTable) add(h uint64, t Target, x *Xact) bool {
	if 4*(tb.used+1) > 3*len(tb.slots) {
		tb.grow()
	}
	mask := len(tb.slots) - 1
	for i := tb.home(h); ; i = (i + 1) & mask {
		s := &tb.slots[i]
		if s.hs.empty() {
			*s = holderSlot{h: h, t: t, hs: holderSet{first: x}}
			tb.used++
			return true
		}
		if s.h == h && sameTarget(&s.t, &t) {
			return s.hs.add(x)
		}
	}
}

// remove deletes (t, x), reporting whether x was a holder; a target left
// without holders leaves the table.
func (tb *holderTable) remove(h uint64, t Target, x *Xact) bool {
	i := tb.find(h, &t)
	if i < 0 || !tb.slots[i].hs.remove(x) {
		return false
	}
	if !tb.slots[i].hs.empty() {
		return true
	}
	// Backward-shift deletion: walk the run after the hole and move
	// back every entry whose home is not between the hole and its slot,
	// so every entry stays reachable from its home without a tombstone.
	mask := len(tb.slots) - 1
	for j := (i + 1) & mask; !tb.slots[j].hs.empty(); j = (j + 1) & mask {
		if (j-tb.home(tb.slots[j].h))&mask >= (j-i)&mask {
			tb.slots[i] = tb.slots[j]
			i = j
		}
	}
	tb.slots[i] = holderSlot{}
	tb.used--
	return true
}

// grow doubles the table (or makes its first slots) and re-inserts
// every entry.
func (tb *holderTable) grow() {
	old := tb.slots
	tb.slots = make([]holderSlot, max(2*len(old), minHolderSlots))
	tb.shift = uint8(64 - bits.TrailingZeros(uint(len(tb.slots))))
	mask := len(tb.slots) - 1
	for k := range old {
		if s := &old[k]; !s.hs.empty() {
			i := tb.home(s.h)
			for !tb.slots[i].hs.empty() {
				i = (i + 1) & mask
			}
			tb.slots[i] = *s
		}
	}
}

// len returns the number of (target, holder) pairs in the table.
func (tb *holderTable) len() int {
	n := 0
	for i := range tb.slots {
		n += tb.slots[i].hs.len()
	}
	return n
}

func newLockPartitions(n int) []lockPartition {
	parts := make([]lockPartition, n)
	for i := range parts {
		parts[i].dummySeqs = make(map[Target]mvcc.SeqNo)
	}
	return parts
}

// targetHash is the FNV-1a hash of the full target tag (relation,
// level, page, key): its low bits pick the partition, its high bits the
// slot in the partition's table.
func targetHash(t Target) uint64 {
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
	return h
}

// locate returns the shard responsible for t and t's hash.
func (m *Manager) locate(t Target) (*lockPartition, uint64) {
	h := targetHash(t)
	return &m.parts[h&m.partMask], h
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
	p, h := m.locate(t)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.locks.add(h, t, m.oldCommitted) {
		m.bumpLocksCurrent(1)
	}
	if old, ok := p.dummySeqs[t]; seq > old {
		if !ok {
			m.dummyTargets++
		}
		p.dummySeqs[t] = seq
	}
}

// removeDummyLockLocked removes the dummy transaction's lock on t.
// Caller holds m.mu.
func (m *Manager) removeDummyLockLocked(t Target) {
	p, _ := m.locate(t)
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
	m.dummyTargets--
	if p.locks.remove(targetHash(t), t, m.oldCommitted) {
		m.locksCurrent.Add(-1)
	}
}

// expireDummyLocksLocked drops every dummy lock whose absorbed holders
// all committed at or before minSeq (§6.1). With no dummy lock anywhere
// — the state unless summarization has run — it visits no partition.
// Caller holds m.mu.
func (m *Manager) expireDummyLocksLocked(minSeq mvcc.SeqNo) {
	if m.dummyTargets == 0 {
		return
	}
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
