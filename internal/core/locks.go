package core

import (
	"pgssi/internal/mvcc"
)

// This file implements the SSI lock manager of §5.2.1: SIREAD-only locks
// at relation / page / tuple granularity, with promotion to coarser
// granularities both for per-transaction thresholds and for global
// capacity. The lock table itself is sharded into hash partitions (see
// partition.go for the layout and the lock-ordering rules); the
// acquisition and release paths below run without the global SSI mutex,
// taking only the owning transaction's lockMu and one partition mutex
// at a time.

// AcquireTupleLock records a SIREAD lock for x on the tuple identified by
// key, whose read version lives on (rel, page).
func (m *Manager) AcquireTupleLock(x *Xact, rel string, page int64, key string) {
	m.acquire(x, TupleTarget(rel, page, key))
}

// AcquirePageLock records a SIREAD lock on a heap or index page. Index
// range scans lock the leaf pages they traverse, which is what detects
// phantoms (§5.2.1).
func (m *Manager) AcquirePageLock(x *Xact, rel string, page int64) {
	m.acquire(x, PageTarget(rel, page))
}

// AcquireRelationLock records a relation-granularity SIREAD lock, used
// for sequential scans and as the fallback for index types without
// predicate-lock support (§7.4).
func (m *Manager) AcquireRelationLock(x *Xact, rel string) {
	m.acquire(x, RelationTarget(rel))
}

// acquire adds a SIREAD lock for x on t without touching the global SSI
// mutex. Callers may hold m.mu (the batch and conflict paths do); the
// ordering mu → lockMu → partition mutex permits that.
func (m *Manager) acquire(x *Xact, t Target) {
	if x.safe.Load() {
		// Safe-snapshot transactions take no SIREAD locks (§4.2).
		return
	}
	x.lockMu.Lock()
	defer x.lockMu.Unlock()
	m.acquireXLocked(x, t)
}

// acquireXLocked adds a SIREAD lock, skipping it if a coarser lock
// already covers the target, and promoting granularity when thresholds
// or the global capacity are exceeded. Caller holds x.lockMu.
func (m *Manager) acquireXLocked(x *Xact, t Target) {
	if x.lockingDone {
		// The transaction finished, was summarized, or moved onto a
		// safe snapshot: its lock set must not grow again.
		return
	}
	if m.coveredXLocked(x, t) {
		return
	}
	if x.locks.holds(t) {
		return
	}
	// Enforce the global capacity bound by consolidating this
	// transaction's locks on the relation into a relation lock. The
	// gauge is read without any table-wide lock, so brief overshoot by
	// a few entries under concurrency is possible and acceptable.
	if int(m.locksCurrent.Load()) >= m.cfg.MaxPredicateLocks && t.Level != LevelRelation {
		m.capacityPromotions.Add(1)
		m.promoteToRelationXLocked(x, t.Rel)
		return
	}
	m.insertLockXLocked(x, t)

	switch t.Level {
	case LevelTuple:
		if int(x.locks.bump(PageTarget(t.Rel, t.Page), 1)) > m.cfg.PromoteTupleToPage {
			m.tuplePromotions.Add(1)
			m.promoteToPageXLocked(x, t.Rel, t.Page)
		}
	case LevelPage:
		if int(x.locks.bump(RelationTarget(t.Rel), 1)) > m.cfg.PromotePageToRel {
			m.pagePromotions.Add(1)
			m.promoteToRelationXLocked(x, t.Rel)
		}
	}
}

// coveredXLocked reports whether x already holds a coarser lock covering
// t. Caller holds x.lockMu.
func (m *Manager) coveredXLocked(x *Xact, t Target) bool {
	if t.Level == LevelRelation {
		return false
	}
	return x.locks.holds(RelationTarget(t.Rel)) ||
		t.Level == LevelTuple && x.locks.holds(PageTarget(t.Rel, t.Page))
}

// AcquireTupleLockBatch records SIREAD locks for x on a batch of tuples
// that share one heap page — the coverage of calling AcquireTupleLock per
// key, but O(1) in lock-path acquisitions where the per-row path is
// O(rows): x.lockMu is taken once for the whole batch and promotion is
// decided once, first.
//
// The batch rule: a batch of more than PromoteTupleToPage keys is a page
// lock, whatever x already holds on the page. That is what the per-key
// path arrives at — every key either is already tuple-locked by x on
// this page, and then counted in the page's tuple counter, or is
// inserted and counted, so after the last of more than
// PromoteTupleToPage distinct keys the count is over the threshold and
// the tuple locks are consolidated — so len(keys) alone decides, and no
// Target is built and no lock-set probe made per key for a batch that
// promotes. (The engine passes duplicate-free key sets. A batch inflated
// by duplicates past the threshold takes the page lock where the per-key
// path would not yet: coarser, never less covered, and the gauge stays
// exact.) A scan of a table loaded in key order meets whole pages
// (storage: a row keeps its page), so its batches are this case and cost
// one page-lock insert each. A smaller batch runs the covered/dup checks against x's own lock set,
// crosses the threshold or not with what x holds already, and otherwise
// inserts the survivors with each partition mutex taken at most once;
// its working storage is x's and is reused.
//
// A batch must never span heap pages: the engine calls this from inside
// the page's shared read latch (storage.Reader), which is what keeps the
// PR 2 {visibility, registration} atomicity per page (see partition.go).
//
// It returns relCovered=true when x holds (or, via promotion, just
// acquired) a relation-granularity lock on rel. Lock sets only ever
// coarsen, so a scan can cache that answer and skip the remaining
// pages' batches entirely. The error is ErrSerializationFailure iff x
// has been doomed.
func (m *Manager) AcquireTupleLockBatch(x *Xact, rel string, page int64, keys []string) (relCovered bool, err error) {
	if x.doomed.Load() {
		return false, ErrSerializationFailure
	}
	if x.safe.Load() {
		// Safe-snapshot transactions take no SIREAD locks (§4.2).
		return false, nil
	}
	x.lockMu.Lock()
	relCovered = m.acquireTupleBatchXLocked(x, rel, page, keys)
	x.lockMu.Unlock()
	if x.doomed.Load() {
		return relCovered, ErrSerializationFailure
	}
	return relCovered, nil
}

// acquireTupleBatchXLocked is AcquireTupleLockBatch's critical section.
// Caller holds x.lockMu.
func (m *Manager) acquireTupleBatchXLocked(x *Xact, rel string, page int64, keys []string) (relCovered bool) {
	if x.lockingDone {
		return false
	}
	if x.locks.holds(RelationTarget(rel)) {
		return true
	}
	pk := PageTarget(rel, page)
	if x.locks.holds(pk) {
		return false
	}
	promotes := len(keys) > m.cfg.PromoteTupleToPage
	targets := x.batchTargets[:0]
	if !promotes {
		// Survivors: keys not already tuple-locked by x.
		for _, k := range keys {
			t := TupleTarget(rel, page, k)
			if !x.locks.holds(t) {
				targets = append(targets, t)
			}
		}
		x.batchTargets = targets
		if len(targets) == 0 {
			return false
		}
		promotes = int(x.locks.count(pk))+len(targets) > m.cfg.PromoteTupleToPage
	}
	// Global capacity bound, batch-wise: same trigger as the per-row
	// path (gauge already at the bound), with the same tolerance for
	// brief overshoot under concurrency.
	if int(m.locksCurrent.Load()) >= m.cfg.MaxPredicateLocks {
		m.capacityPromotions.Add(1)
		m.promoteToRelationXLocked(x, rel)
		return true
	}
	// Tuple→page threshold, applied once for the batch: take the page
	// lock directly instead of inserting tuple locks that promotion would
	// immediately remove. Coverage is identical (the page lock covers
	// every tuple in the batch).
	if promotes {
		m.tuplePromotions.Add(1)
		m.promoteToPageXLocked(x, rel, page)
		return x.locks.holds(RelationTarget(rel))
	}
	// Insert the survivors partition by partition: each partition mutex
	// is taken at most once, still one at a time (ordering rule
	// unchanged). parts[i] is targets[i]'s partition until it is inserted.
	const inserted = ^uint64(0)
	parts := x.batchParts[:0]
	for _, t := range targets {
		parts = append(parts, targetHash(t)&m.partMask)
	}
	x.batchParts = parts
	// n counts actual holder-set insertions, not batch entries: a key
	// duplicated within one batch hashes to the same target and must
	// move the gauge once (the engine passes dup-free key sets, but the
	// accounting must not depend on that).
	n := 0
	for i, pi := range parts {
		if pi == inserted {
			continue
		}
		p := &m.parts[pi]
		p.mu.Lock()
		for j := i; j < len(parts); j++ {
			if parts[j] != pi {
				continue
			}
			parts[j] = inserted
			if p.locks.add(targetHash(targets[j]), targets[j], x) {
				n++
			}
		}
		p.mu.Unlock()
	}
	for _, t := range targets {
		x.locks.hold(t)
	}
	m.locksAcquired.Add(int64(n))
	m.bumpLocksCurrent(int64(n))
	if n > 0 {
		x.locks.bump(pk, int32(n))
	}
	return false
}

// insertLockXLocked adds (t, x) to the lock table and x's lock set,
// reporting whether a new lock was inserted (false on dup). Caller
// holds x.lockMu; the partition mutex is taken here.
func (m *Manager) insertLockXLocked(x *Xact, t Target) bool {
	// x.locks and the partition's holder set are kept in sync under
	// x.lockMu, so the transaction's own set doubles as the dup check.
	if !x.locks.hold(t) {
		return false
	}
	p, h := m.locate(t)
	p.mu.Lock()
	p.locks.add(h, t, x)
	p.mu.Unlock()
	m.locksAcquired.Add(1)
	m.bumpLocksCurrent(1)
	return true
}

// removeLockXLocked removes (t, x) from the lock table and x's lock set.
// Caller holds x.lockMu.
func (m *Manager) removeLockXLocked(x *Xact, t Target) {
	if x.locks.unhold(t) {
		m.dropHolder(x, t)
	}
}

// dropHolder removes x from t's holder set in the lock table, leaving
// x's own lock set to the caller. Caller holds x.lockMu or m.mu.
func (m *Manager) dropHolder(x *Xact, t Target) {
	p, h := m.locate(t)
	p.mu.Lock()
	p.locks.remove(h, t, x)
	p.mu.Unlock()
	m.locksCurrent.Add(-1)
}

// promoteToPageXLocked replaces x's tuple locks on (rel, page) with a
// single page lock. The page lock is inserted BEFORE the tuple locks are
// removed so that a concurrent writer, which checks granularities finest
// to coarsest, can never observe a window with no covering lock (see
// partition.go). The page's counter counts every tuple lock x acquired
// on the page (it is not decremented when one is dropped; only a
// recovered prepared transaction holds uncounted ones, and it acquires
// nothing), so zero means there is none to remove and the walk over x's
// whole lock set is skipped — the common case of a scan meeting a page
// for the first time. Caller holds x.lockMu.
func (m *Manager) promoteToPageXLocked(x *Xact, rel string, page int64) {
	pk := PageTarget(rel, page)
	m.insertLockXLocked(x, pk)
	if x.locks.count(pk) > 0 {
		for i := range x.locks.ents {
			e := &x.locks.ents[i]
			if e.held && e.t.Level == LevelTuple && e.t.Page == page && e.t.Rel == rel {
				e.held = false
				m.dropHolder(x, e.t)
			}
		}
		x.locks.clearCount(pk)
		x.locks.compact()
	}
	if int(x.locks.bump(RelationTarget(rel), 1)) > m.cfg.PromotePageToRel {
		m.promoteToRelationXLocked(x, rel)
	}
}

// promoteToRelationXLocked replaces all of x's locks on rel with a single
// relation lock, inserting the coarse lock before removing the fine ones
// (same no-uncovered-window invariant as promoteToPageXLocked), and
// clears the relation's page counter and the tuple counter of every page
// it held a tuple lock on. Caller holds x.lockMu.
func (m *Manager) promoteToRelationXLocked(x *Xact, rel string) {
	rt := RelationTarget(rel)
	m.insertLockXLocked(x, rt)
	for i := range x.locks.ents {
		e := &x.locks.ents[i]
		if e.held && e.t.Level != LevelRelation && e.t.Rel == rel {
			e.held = false
			m.dropHolder(x, e.t)
			if e.t.Level == LevelTuple {
				x.locks.clearCount(PageTarget(rel, e.t.Page))
			}
		}
	}
	x.locks.clearCount(rt)
	x.locks.compact()
}

// removal is one (target, holder) pair queued for batched deletion from
// the lock table (see flushRemovalsLocked).
type removal struct {
	t Target
	h uint64 // t's hash
	x *Xact
}

// collectLocksLocked freezes x's lock set — setting lockingDone and
// clearing the per-transaction bookkeeping — and queues its (target, x)
// pairs, by partition, into m.rec.byPart for a later
// flushRemovalsLocked. Until the flush, the lock table transiently
// holds entries for a transaction whose own set is empty; caller must
// hold m.mu across collect+flush, which makes the desync unobservable
// to everything but CheckWrite's mutex-free probe, which only ever
// answers "take m.mu and look again" for it (see the batch-path rules
// in partition.go).
func (m *Manager) collectLocksLocked(x *Xact) {
	x.lockMu.Lock()
	x.lockingDone = true
	byPart := m.rec.byPart
	for i := range x.locks.ents {
		if e := &x.locks.ents[i]; e.held {
			h := targetHash(e.t)
			byPart[h&m.partMask] = append(byPart[h&m.partMask], removal{e.t, h, x})
		}
	}
	x.locks.reset()
	x.batchTargets, x.batchParts = nil, nil
	x.lockMu.Unlock()
}

// flushRemovalsLocked deletes the queued (target, holder) pairs from
// the lock table, taking each partition mutex exactly once for the
// whole batch — the release-side mirror of AcquireTupleLockBatch's
// insert grouping — and empties the queue for the next batch. Caller
// holds m.mu.
func (m *Manager) flushRemovalsLocked() {
	for i, rs := range m.rec.byPart {
		if len(rs) == 0 {
			continue
		}
		p := &m.parts[i]
		p.mu.Lock()
		for _, r := range rs {
			if p.locks.remove(r.h, r.t, r.x) {
				m.locksCurrent.Add(-1)
			}
		}
		p.mu.Unlock()
		// Keep the queue's storage for the next batch, holding no
		// target or transaction alive, unless one outsized batch grew it.
		clear(rs)
		if cap(rs) > maxKeptRemovals {
			rs = nil
		}
		m.rec.byPart[i] = rs[:0]
	}
}

// maxKeptRemovals bounds the per-partition removal queue a flush keeps
// for reuse.
const maxKeptRemovals = 1024

// releaseLocksLocked removes every SIREAD lock x holds and bars new
// acquisitions, sweeping each lock-table partition at most once.
// Caller holds m.mu; x.lockMu is taken here.
func (m *Manager) releaseLocksLocked(x *Xact) {
	m.collectLocksLocked(x)
	m.flushRemovalsLocked()
}

// DropOwnTupleLock implements the optimization of §7.3: a transaction may
// drop its SIREAD lock on a tuple it subsequently writes, because the
// tuple write lock (the in-progress xmax) outlives it. The engine must
// not call this inside a subtransaction, where a savepoint rollback could
// release the write lock and leave the read unprotected.
func (m *Manager) DropOwnTupleLock(x *Xact, rel string, page int64, key string) {
	x.lockMu.Lock()
	defer x.lockMu.Unlock()
	m.removeLockXLocked(x, TupleTarget(rel, page, key))
}

// PageSplit propagates SIREAD locks held on a split index leaf page to
// the new right sibling, the analogue of PredicateLockPageSplit. Without
// this, entries moved to the new page would escape their gap locks. The
// left and right pages may hash to different partitions; the operation
// serializes through m.mu (so no holder can be cleaned up mid-copy) and
// visits one partition at a time.
func (m *Manager) PageSplit(rel string, left, right int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	lt := PageTarget(rel, left)
	rt := PageTarget(rel, right)

	lp, lh := m.locate(lt)
	lp.mu.Lock()
	hs := lp.locks.holders(lh, lt)
	holders := hs.appendOthers(make([]*Xact, 0, hs.len()), m.oldCommitted)
	dummySeq, hasDummy := lp.dummySeqs[lt]
	lp.mu.Unlock()

	for _, x := range holders {
		x.lockMu.Lock()
		if !m.coveredXLocked(x, rt) && m.insertLockXLocked(x, rt) {
			// Apply the §5.2.1 capacity bound here too: a transaction
			// accumulating page locks through index splits must hit the
			// page→relation threshold exactly as if it had acquired
			// them organically, or the promotion bookkeeping leaks
			// (split-derived locks counted but never consolidated). The
			// mu → lockMu → partition order permits the promotion from
			// under m.mu.
			if int(x.locks.bump(RelationTarget(rel), 1)) > m.cfg.PromotePageToRel {
				m.pagePromotions.Add(1)
				m.promoteToRelationXLocked(x, rel)
			}
		}
		x.lockMu.Unlock()
	}
	if hasDummy {
		m.insertDummyLockLocked(rt, dummySeq)
	}
}

// PromoteRelationLocks promotes every fine-grained SIREAD lock on rel to
// relation granularity for its holder. PostgreSQL does this when DDL
// statements such as CLUSTER or ALTER TABLE rewrite a table, invalidating
// physical tuple and page identities (§5.2.1); the engine exposes it via
// Table rewrite operations. Like PageSplit, it spans partitions and so
// serializes through m.mu.
func (m *Manager) PromoteRelationLocks(rel string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	affected := make(map[*Xact]struct{})
	dummySeq := mvcc.InvalidSeqNo
	var dummyTargets []Target
	var holders []*Xact
	for i := range m.parts {
		p := &m.parts[i]
		p.mu.Lock()
		for j := range p.locks.slots {
			t, hs := p.locks.slots[j].t, &p.locks.slots[j].hs
			if hs.empty() || t.Rel != rel || t.Level == LevelRelation {
				continue
			}
			holders = hs.appendOthers(holders[:0], nil)
			for _, x := range holders {
				if x == m.oldCommitted {
					if s := p.dummySeqs[t]; s > dummySeq {
						dummySeq = s
					}
					dummyTargets = append(dummyTargets, t)
					continue
				}
				affected[x] = struct{}{}
			}
		}
		p.mu.Unlock()
	}
	for x := range affected {
		x.lockMu.Lock()
		m.promoteToRelationXLocked(x, rel)
		x.lockMu.Unlock()
	}
	if dummySeq != mvcc.InvalidSeqNo {
		// Move the dummy transaction's fine locks up as well, coarse
		// lock first.
		m.insertDummyLockLocked(RelationTarget(rel), dummySeq)
		for _, t := range dummyTargets {
			m.removeDummyLockLocked(t)
		}
	}
}

// HoldsLock reports whether x holds a SIREAD lock exactly on t (no
// coarser-cover check). Exposed for tests.
func (m *Manager) HoldsLock(x *Xact, t Target) bool {
	x.lockMu.Lock()
	defer x.lockMu.Unlock()
	return x.locks.holds(t)
}
