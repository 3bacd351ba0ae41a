// Package storage implements a versioned tuple heap in the style of
// PostgreSQL's storage manager. Each logical row is a chain of tuple
// versions; each version carries the transaction ID that created it
// (xmin) and, once deleted or superseded, the transaction that did so
// (xmax). Updates never modify a version in place: they stamp the old
// version's xmax and prepend a new version, exactly the model §5.1 of the
// paper describes.
//
// Tuple-level write locks are represented by an in-progress xmax, reusing
// the tuple header the way PostgreSQL does; a writer that finds an
// in-progress xmax blocks until that transaction finishes, then applies
// snapshot isolation's first-updater-wins rule.
//
// The heap assigns every tuple version a heap page number so the SSI lock
// manager in internal/core can take SIREAD locks at tuple, page, and
// relation granularity and promote between them.
//
// Each table additionally carries a sharded per-page read latch table
// (latch.go), the stand-in for PostgreSQL's buffer content lock in the
// SSI protocol: Table.Read runs its caller's callback — which inserts
// the SIREAD lock — under the latch of the page holding the visible
// version, and Table.Update / Table.Delete stamp xmax and run their
// caller's write check under the latch of the superseded version's
// page. That makes the MVCC visibility check atomic with SIREAD
// registration relative to writers of the same page, closing the
// detection window in which a writer's lock-table probe could run
// between a reader's visibility check and its lock insertion and miss
// the rw-antidependency entirely (§5.2 of the paper; the latch protocol
// and lock ordering are documented in latch.go).
package storage

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"pgssi/internal/mvcc"
	"pgssi/internal/waitgraph"
)

// Errors returned by heap operations.
var (
	// ErrNotFound reports that no version of the key is visible to the
	// snapshot.
	ErrNotFound = errors.New("storage: key not found")
	// ErrDuplicateKey reports an insert of a key that already has a
	// live visible (or committed concurrent) version.
	ErrDuplicateKey = errors.New("storage: duplicate key")
	// ErrWriteConflict reports that snapshot isolation's
	// first-updater-wins rule rejected the write: a concurrent
	// transaction updated or deleted the same tuple and committed.
	ErrWriteConflict = errors.New("storage: concurrent update")
	// ErrDeadlock reports that blocking on a tuple lock would deadlock.
	ErrDeadlock = waitgraph.ErrDeadlock
)

// TuplesPerPage is the number of tuple versions placed on one simulated
// heap page. It only affects lock granularity, not correctness.
const TuplesPerPage = 64

// Tuple is one version of a row. Fields mirror the PostgreSQL tuple
// header bits that matter for visibility and SSI.
type Tuple struct {
	Key   string
	Value []byte
	// Xmin is the transaction that created this version.
	Xmin mvcc.TxID
	// Xmax is the transaction that deleted or superseded this version;
	// zero while the version is live. An in-progress xmax doubles as
	// the tuple write lock.
	Xmax mvcc.TxID
	// SubMin and SubMax are the subtransaction IDs within Xmin / Xmax
	// that performed the write, for savepoint rollback (§7.3).
	SubMin, SubMax int32
	// Page is the simulated heap page this version lives on.
	Page int64
	// Older points to the previous version of the row, or nil.
	Older *Tuple
}

// ReadResult is the outcome of a visibility-checked read.
type ReadResult struct {
	// Tuple is the version visible to the snapshot, or nil if none.
	Tuple *Tuple
	// ConflictOut lists concurrent serializable-relevant transactions
	// whose writes to this row were invisible to the reader: creators
	// of newer versions and in-flight or later-committed deleters.
	// Each entry is an rw-antidependency reader → writer that the SSI
	// layer records (§5.2: "if the write happens first, the conflict
	// can be inferred from the MVCC data").
	ConflictOut []mvcc.TxID
}

// Config controls heap behaviour.
type Config struct {
	// IODelay, if nonzero, simulates a storage device: each heap page
	// access that misses the simulated buffer cache sleeps this long.
	// Used by the disk-bound benchmark configuration (Figure 5b).
	IODelay time.Duration
	// CacheMissRatio is the probability in [0,1] that a page access
	// pays IODelay. Zero means every access is a hit.
	CacheMissRatio float64
	// LatchPartitions is the number of shards in the per-page read
	// latch table (latch.go). Rounded up to a power of two; defaults
	// to 64. Collisions only add mutual exclusion, so this is purely a
	// concurrency knob.
	LatchPartitions int
	// DisableReadLatch disables the per-page read latch, reopening the
	// window between the MVCC visibility check and SIREAD-lock
	// insertion. Test-only ablation: the interleaving harness uses it
	// to demonstrate the missed-antidependency race the latch closes.
	DisableReadLatch bool
	// Hooks injects test-only interleaving hooks (see latch.go).
	Hooks Hooks
}

// Table is a heap of versioned rows keyed by string, sharded for
// concurrency. Ordering and range scans are provided by the B+-tree
// index layered above in internal/btree; the heap itself is unordered.
type Table struct {
	name   string
	cfg    Config
	shards [shardCount]shard
	// latches is the per-page read latch table (latch.go).
	latches *latchTable
	// pageSeq allocates heap page slots; page = seq / TuplesPerPage.
	pageSeq atomic.Int64
	// stats
	ioAccesses atomic.Int64
	ioMisses   atomic.Int64
}

const shardCount = 64

type shard struct {
	mu   sync.Mutex        //ssi:lock level=20 name=storage.shard
	rows map[string]*Tuple // head of version chain (newest first)
}

// NewTable creates an empty heap named name.
func NewTable(name string, cfg Config) *Table {
	t := &Table{name: name, cfg: cfg, latches: newLatchTable(cfg.LatchPartitions)}
	for i := range t.shards {
		t.shards[i].rows = make(map[string]*Tuple)
	}
	return t
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

func (t *Table) shardFor(key string) *shard {
	return &t.shards[fnv32(key)%shardCount]
}

func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// allocPage assigns a heap page for a new tuple version.
func (t *Table) allocPage() int64 {
	return t.pageSeq.Add(1) / TuplesPerPage
}

// simulateIO charges one page access against the simulated device.
func (t *Table) simulateIO() {
	if t.cfg.IODelay <= 0 {
		return
	}
	t.ioAccesses.Add(1)
	if t.cfg.CacheMissRatio > 0 && rand.Float64() < t.cfg.CacheMissRatio {
		t.ioMisses.Add(1)
		time.Sleep(t.cfg.IODelay)
	}
}

// IOStats reports simulated page accesses and misses.
func (t *Table) IOStats() (accesses, misses int64) {
	return t.ioAccesses.Load(), t.ioMisses.Load()
}

// Get returns the version of key visible to snap, along with the MVCC
// conflict-out set described on ReadResult. self is the reading
// transaction's xid (InvalidTxID for transactions that have not written).
// Get never takes a page latch: it serves readers that register no
// SIREAD lock (read committed, repeatable read, S2PL, safe snapshots),
// for whom MVCC visibility alone is the contract. Serializable readers
// must use Read with latched=true so their SIREAD registration happens
// under the page latch.
func (t *Table) Get(key string, snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager) ReadResult {
	var out ReadResult
	t.Read(key, snap, self, mgr, false, func(res ReadResult) error {
		out = res
		return nil
	})
	return out
}

// Read performs a visibility-checked read of key and invokes fn with the
// result — if latched is true, while holding the read latch (shared
// mode) of the page containing the visible version. No latch is held
// when no version is visible: the phantom protection for absent keys is
// the index gap lock, which the engine acquires under the index tree
// lock *before* the heap read. fn is where a serializable caller
// inserts its SIREAD lock: doing so under the latch makes the
// visibility check and the lock insertion one atomic step relative to
// Update/Delete, which stamp xmax and probe the SIREAD table under the
// same latch, exclusively. Read returns fn's error.
//
// Callers that register nothing in fn (non-serializable reads) pass
// latched=false and skip the latch entirely — they cannot lose an
// rw-antidependency because they never carry one.
//
// fn must not call back into this table (the latch is not reentrant) and
// must not block on other transactions; lock-manager work (mutex-only)
// is fine per the ordering rules in latch.go.
func (t *Table) Read(key string, snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, latched bool, fn func(ReadResult) error) error {
	t.simulateIO()
	sh := t.shardFor(key)
	sh.mu.Lock()
	var latch *sync.RWMutex
	var res ReadResult
	for {
		head := pruneAborted(sh, key, mgr)
		res = readChain(head, snap, self, mgr)
		if res.Tuple == nil || !latched || t.cfg.DisableReadLatch {
			if latch != nil {
				latch.RUnlock()
				latch = nil
			}
			break
		}
		// The latch (shared mode: readers only exclude writers) must
		// be held before the shard mutex is released, or a writer
		// could stamp the version between the visibility check and
		// fn. Acquiring it while holding the shard mutex must not
		// block (that would stall every key in the shard behind one
		// contended page), so on contention the latch is awaited
		// without the shard mutex and the read is recomputed: the
		// chain may have changed while the shard was unlocked.
		want := t.latches.latch(res.Tuple.Page)
		if want == latch {
			break
		}
		if latch != nil {
			latch.RUnlock()
			latch = nil
		}
		if want.TryRLock() {
			latch = want
			break
		}
		sh.mu.Unlock()
		want.RLock()
		latch = want
		sh.mu.Lock()
	}
	sh.mu.Unlock()
	if t.cfg.Hooks.OnRead != nil {
		t.cfg.Hooks.OnRead(t.name, key)
	}
	err := fn(res)
	if latch != nil {
		latch.RUnlock()
	}
	return err
}

// readChain walks a version chain newest-first and applies PostgreSQL's
// visibility rules, collecting rw conflict-out transactions on the way.
func readChain(head *Tuple, snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager) ReadResult {
	var res ReadResult
	for v := head; v != nil; v = v.Older {
		if v.Xmin == self {
			// Own write: visible unless we deleted it ourselves.
			if v.Xmax == self {
				return res
			}
			res.Tuple = v
			return res
		}
		st, seq := mgr.Status(v.Xmin)
		switch st {
		case mvcc.StatusAborted:
			continue
		case mvcc.StatusInProgress:
			// Created by a concurrent, still-running transaction:
			// invisible, and an rw conflict out for serializable
			// readers (the reader must precede the writer).
			res.ConflictOut = append(res.ConflictOut, v.Xmin)
			continue
		case mvcc.StatusCommitted:
			if !snap.SeesCommitted(v.Xmin, seq) {
				// Committed after our snapshot: concurrent.
				res.ConflictOut = append(res.ConflictOut, v.Xmin)
				continue
			}
		}
		// v was created by a transaction visible to the snapshot.
		// Check its deletion status.
		if v.Xmax == 0 {
			res.Tuple = v
			return res
		}
		if v.Xmax == self {
			// Deleted by ourselves.
			return res
		}
		xst, xseq := mgr.Status(v.Xmax)
		switch xst {
		case mvcc.StatusAborted:
			res.Tuple = v
			return res
		case mvcc.StatusInProgress:
			res.ConflictOut = append(res.ConflictOut, v.Xmax)
			res.Tuple = v
			return res
		case mvcc.StatusCommitted:
			if snap.SeesCommitted(v.Xmax, xseq) {
				// Deleted before our snapshot: row is gone.
				return res
			}
			// Deleted by a concurrent transaction that committed
			// after our snapshot: still visible to us, and an rw
			// conflict out.
			res.ConflictOut = append(res.ConflictOut, v.Xmax)
			res.Tuple = v
			return res
		}
	}
	return res
}

// pruneAborted drops leading versions created by aborted transactions and
// clears aborted xmax stamps, keeping chains tidy. Caller holds sh.mu.
func pruneAborted(sh *shard, key string, mgr *mvcc.Manager) *Tuple {
	first := sh.rows[key]
	head := first
	for head != nil {
		st, _ := mgr.Status(head.Xmin)
		if st != mvcc.StatusAborted {
			break
		}
		head = head.Older
	}
	// This runs on every read: the map is touched again only when
	// aborted versions were actually dropped.
	if head != first {
		if head == nil {
			delete(sh.rows, key)
		} else {
			sh.rows[key] = head
		}
	}
	if head == nil {
		return nil
	}
	if head.Xmax != 0 {
		if st, _ := mgr.Status(head.Xmax); st == mvcc.StatusAborted {
			head.Xmax = 0
			head.SubMax = 0
		}
	}
	return head
}

// BatchItem is one key's visibility-checked result within a page group
// delivered by ReadPageBatch. Idx is the key's position in the input
// slice, so callers can map grouped results back to their own per-key
// state in O(1).
type BatchItem struct {
	Key string
	Idx int
	Res ReadResult
}

// ReadPageBatch performs visibility-checked reads of keys (which must be
// free of duplicates), delivering results to fn grouped by the heap page
// of the visible version: fn is invoked once per page with every key
// whose visible version lives on that page, under that page's read
// latch in shared mode when latched is true. Keys with no visible
// version are grouped under page == -1 and delivered without a latch —
// the phantom protection for absent keys is the index gap lock, exactly
// as in Read. fn's first error aborts the batch and is returned.
//
// The grouping is what makes a serializable scan's lock path O(pages)
// instead of O(rows): fn can hand the whole page's surviving tuples to
// the SSI layer as one batched registration (core.AcquireTupleLockBatch)
// while the PR 2 invariant still holds — the registration lands before
// the latch of the page holding the visible versions is released, and a
// batch NEVER spans heap pages, so each fn call is exactly one page's
// {visibility, registration} critical section.
//
// Latched batches run in two passes: an unlatched prediction pass groups
// keys by the page of their currently-visible version, then each group's
// latch is acquired (shared, blocking, with no other lock held — the
// same order as Read's contended-latch retry path) and every key's
// visibility is recomputed under it; the latched result is the
// authoritative one. A key whose visible version moved to a different
// page between the passes falls back to the per-row Read path and is
// delivered as a single-item batch, so every item handed to fn with a
// page >= 0 is guaranteed to live on that page, under that page's latch.
// Unlatched batches (non-tracking readers, who register nothing) take a
// single streaming pass, grouping consecutive same-page results.
func (t *Table) ReadPageBatch(keys []string, snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, latched bool, fn func(page int64, items []BatchItem) error) error {
	if len(keys) == 0 {
		return nil
	}
	if !latched {
		return t.readBatchUnlatched(keys, snap, self, mgr, fn)
	}

	// Prediction pass: an unlatched peek at each key's visible version,
	// only to choose the page grouping. Results are discarded — the
	// latched pass below recomputes them authoritatively.
	type pageGroup struct {
		page int64
		idx  []int
	}
	var groups []pageGroup
	gidx := make(map[int64]int, 8)
	for i, k := range keys {
		sh := t.shardFor(k)
		sh.mu.Lock()
		res := readChain(pruneAborted(sh, k, mgr), snap, self, mgr)
		sh.mu.Unlock()
		pg := int64(-1)
		if res.Tuple != nil {
			pg = res.Tuple.Page
		}
		g, ok := gidx[pg]
		if !ok {
			g = len(groups)
			gidx[pg] = g
			groups = append(groups, pageGroup{page: pg})
		}
		groups[g].idx = append(groups[g].idx, i)
	}

	var retry []int
	items := make([]BatchItem, 0, TuplesPerPage)
	for _, g := range groups {
		t.simulateIO()
		var latch *sync.RWMutex
		if g.page >= 0 && !t.cfg.DisableReadLatch {
			latch = t.latches.latch(g.page)
			latch.RLock()
		}
		items = items[:0]
		for _, ki := range g.idx {
			k := keys[ki]
			sh := t.shardFor(k)
			sh.mu.Lock()
			res := readChain(pruneAborted(sh, k, mgr), snap, self, mgr)
			sh.mu.Unlock()
			if res.Tuple != nil && res.Tuple.Page != g.page {
				// The visible version moved between the passes (or
				// appeared where none was predicted): this key's
				// latch invariant cannot be met in this group.
				retry = append(retry, ki)
				continue
			}
			if h := t.cfg.Hooks.OnRead; h != nil {
				h(t.name, k)
			}
			items = append(items, BatchItem{Key: k, Idx: ki, Res: res})
		}
		var err error
		if len(items) > 0 {
			err = fn(g.page, items)
		}
		if latch != nil {
			latch.RUnlock()
		}
		if err != nil {
			return err
		}
	}
	// Fallback for keys the prediction mispredicted: the per-row latched
	// read, delivered as single-item batches.
	for _, ki := range retry {
		key, idx := keys[ki], ki
		err := t.Read(key, snap, self, mgr, true, func(res ReadResult) error {
			pg := int64(-1)
			if res.Tuple != nil {
				pg = res.Tuple.Page
			}
			return fn(pg, []BatchItem{{Key: key, Idx: idx, Res: res}})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// readBatchUnlatched is ReadPageBatch for readers that register no
// SIREAD locks: one streaming pass, flushing a group whenever the
// visible version's page changes (consecutive keys usually share pages,
// so IO is still charged per page run, not per row).
func (t *Table) readBatchUnlatched(keys []string, snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, fn func(page int64, items []BatchItem) error) error {
	items := make([]BatchItem, 0, TuplesPerPage)
	page := int64(-1)
	flush := func() error {
		if len(items) == 0 {
			return nil
		}
		t.simulateIO()
		err := fn(page, items)
		items = items[:0]
		return err
	}
	for i, k := range keys {
		sh := t.shardFor(k)
		sh.mu.Lock()
		res := readChain(pruneAborted(sh, k, mgr), snap, self, mgr)
		sh.mu.Unlock()
		if h := t.cfg.Hooks.OnRead; h != nil {
			h(t.name, k)
		}
		pg := int64(-1)
		if res.Tuple != nil {
			pg = res.Tuple.Page
		}
		if pg != page {
			if err := flush(); err != nil {
				return err
			}
			page = pg
		}
		items = append(items, BatchItem{Key: k, Idx: i, Res: res})
	}
	return flush()
}

// WriteResult describes a successful write for the benefit of the SSI
// layer: which heap pages are involved so SIREAD locks can be checked and
// the write-lock-drops-SIREAD optimization applied.
type WriteResult struct {
	// OldPage is the heap page of the superseded version (update and
	// delete); readers' tuple-granularity SIREAD locks name this page.
	OldPage int64
	// NewPage is the heap page of the newly created version (insert
	// and update).
	NewPage int64
}

// Insert creates the first live version of key. It fails with
// ErrDuplicateKey if a visible live version exists or a concurrent
// transaction committed one; if a concurrent in-progress transaction
// holds the key, Insert blocks until that transaction finishes, matching
// PostgreSQL's behaviour on unique-index conflicts.
func (t *Table) Insert(key string, value []byte, xid mvcc.TxID, subID int32, snap *mvcc.Snapshot, mgr *mvcc.Manager, wg *waitgraph.Graph) (WriteResult, error) {
	t.simulateIO()
	sh := t.shardFor(key)
	for {
		sh.mu.Lock()
		head := pruneAborted(sh, key, mgr)
		if head == nil {
			nv := &Tuple{Key: key, Value: value, Xmin: xid, SubMin: subID, Page: t.allocPage()}
			sh.rows[key] = nv
			sh.mu.Unlock()
			return WriteResult{OldPage: -1, NewPage: nv.Page}, nil
		}
		// Some version chain exists. Determine whether the newest
		// version is live for us or for a concurrent transaction.
		if head.Xmin == xid && head.Xmax == xid {
			// We deleted our own version earlier; re-inserting is
			// allowed and creates a fresh version.
			nv := &Tuple{Key: key, Value: value, Xmin: xid, SubMin: subID, Page: t.allocPage(), Older: head}
			sh.rows[key] = nv
			sh.mu.Unlock()
			return WriteResult{OldPage: head.Page, NewPage: nv.Page}, nil
		}
		st, seq := mgr.Status(head.Xmin)
		if st == mvcc.StatusInProgress && head.Xmin != xid {
			holder := head.Xmin
			sh.mu.Unlock()
			if err := t.waitFor(xid, holder, mgr, wg); err != nil {
				return WriteResult{}, err
			}
			continue
		}
		// Creator committed (or is us). Is the row currently deleted?
		res := readChain(head, snap, xid, mgr)
		if res.Tuple != nil {
			sh.mu.Unlock()
			return WriteResult{}, ErrDuplicateKey
		}
		if head.Xmax == 0 && st == mvcc.StatusCommitted && !snap.SeesCommitted(head.Xmin, seq) {
			// A concurrent transaction inserted the key and
			// committed: unique violation even though we cannot
			// see the row.
			sh.mu.Unlock()
			return WriteResult{}, ErrDuplicateKey
		}
		if head.Xmax != 0 && head.Xmax != xid {
			if xst, _ := mgr.Status(head.Xmax); xst == mvcc.StatusInProgress {
				holder := head.Xmax
				sh.mu.Unlock()
				if err := t.waitFor(xid, holder, mgr, wg); err != nil {
					return WriteResult{}, err
				}
				continue
			}
		}
		// Row is dead for everyone relevant: safe to create anew.
		nv := &Tuple{Key: key, Value: value, Xmin: xid, SubMin: subID, Page: t.allocPage(), Older: head}
		sh.rows[key] = nv
		sh.mu.Unlock()
		return WriteResult{OldPage: head.Page, NewPage: nv.Page}, nil
	}
}

// Update replaces the visible version of key with a new version holding
// value. It implements snapshot isolation's write protocol: block on an
// in-progress updater, then fail with ErrWriteConflict if a concurrent
// transaction committed a change to the row.
//
// check, if non-nil, runs after the write is applied but before the
// superseded version's page latch is released; serializable callers put
// their SIREAD-table probe (core.CheckWrite) there so the xmax stamp and
// the probe are one atomic step relative to readers of the page (see
// latch.go). A check error is returned as Update's error; the stamp is
// not undone — the caller is expected to abort the transaction, after
// which pruneAborted reclaims the stamp, exactly as when the engine-level
// conflict check failed after a successful write in the unlatched design.
func (t *Table) Update(key string, value []byte, xid mvcc.TxID, subID int32, snap *mvcc.Snapshot, mgr *mvcc.Manager, wg *waitgraph.Graph, check func(WriteResult) error) (WriteResult, error) {
	return t.modify(key, value, false, xid, subID, snap, mgr, wg, check)
}

// Delete stamps the visible version of key as deleted by xid, with the
// same blocking, first-updater-wins, and latched-check behaviour as
// Update.
func (t *Table) Delete(key string, xid mvcc.TxID, subID int32, snap *mvcc.Snapshot, mgr *mvcc.Manager, wg *waitgraph.Graph, check func(WriteResult) error) (WriteResult, error) {
	return t.modify(key, nil, true, xid, subID, snap, mgr, wg, check)
}

func (t *Table) modify(key string, value []byte, del bool, xid mvcc.TxID, subID int32, snap *mvcc.Snapshot, mgr *mvcc.Manager, wg *waitgraph.Graph, check func(WriteResult) error) (WriteResult, error) {
	t.simulateIO()
	sh := t.shardFor(key)
	// held is the exclusive page latch carried across revalidation
	// rounds. Keeping the latch once its blocking acquisition succeeds
	// (instead of releasing and re-trying) is what guarantees writer
	// progress on a read-hot page: a steady stream of shared holders
	// could otherwise win every TryLock race forever. It must be
	// released on every exit and before every wait.
	var held *sync.RWMutex
	release := func() {
		if held != nil {
			held.Unlock()
			held = nil
		}
	}
	for {
		sh.mu.Lock()
		head := pruneAborted(sh, key, mgr)
		if head == nil {
			sh.mu.Unlock()
			release()
			return WriteResult{}, ErrNotFound
		}
		// If the newest version belongs to an in-progress concurrent
		// transaction, that transaction holds the tuple write lock.
		if head.Xmin != xid {
			if st, _ := mgr.Status(head.Xmin); st == mvcc.StatusInProgress {
				holder := head.Xmin
				sh.mu.Unlock()
				release()
				if err := t.waitFor(xid, holder, mgr, wg); err != nil {
					return WriteResult{}, err
				}
				continue
			}
		}
		res := readChain(head, snap, xid, mgr)
		if res.Tuple == nil {
			// Nothing visible. If a concurrent committed
			// transaction owns the newest version, this is a
			// first-updater-wins conflict; otherwise the row is
			// simply absent.
			if st, seq := mgr.Status(head.Xmin); head.Xmin != xid && st == mvcc.StatusCommitted && !snap.SeesCommitted(head.Xmin, seq) {
				sh.mu.Unlock()
				release()
				return WriteResult{}, ErrWriteConflict
			}
			if head.Xmax != 0 && head.Xmax != xid {
				if xst, xseq := mgr.Status(head.Xmax); xst == mvcc.StatusCommitted && !snap.SeesCommitted(head.Xmax, xseq) {
					sh.mu.Unlock()
					release()
					return WriteResult{}, ErrWriteConflict
				}
			}
			sh.mu.Unlock()
			release()
			return WriteResult{}, ErrNotFound
		}
		v := res.Tuple
		if v != head {
			// A newer version exists that we cannot see: it was
			// created by a concurrent transaction. Its creator is
			// committed (in-progress creators were handled above),
			// so first-updater-wins rejects us.
			sh.mu.Unlock()
			release()
			return WriteResult{}, ErrWriteConflict
		}
		if v.Xmax != 0 && v.Xmax != xid {
			xst, _ := mgr.Status(v.Xmax)
			switch xst {
			case mvcc.StatusInProgress:
				holder := v.Xmax
				sh.mu.Unlock()
				release()
				if err := t.waitFor(xid, holder, mgr, wg); err != nil {
					return WriteResult{}, err
				}
				continue
			case mvcc.StatusCommitted:
				// Concurrent delete/update committed while we
				// were deciding: conflict.
				sh.mu.Unlock()
				release()
				return WriteResult{}, ErrWriteConflict
			case mvcc.StatusAborted:
				v.Xmax = 0
				v.SubMax = 0
			}
		}
		// We hold the tuple: latch the superseded version's page
		// exclusively (readers share it), then stamp xmax and (for
		// updates) prepend the new version. The latch is taken while
		// still holding the shard mutex (the fixed shard → latch order
		// of latch.go), so the decision made above cannot be
		// invalidated before the stamp, and it is held across the
		// caller's check so no reader of this page can interleave its
		// visibility check between the stamp and the SIREAD probe.
		// Blocking on a contended latch while holding the shard mutex
		// would stall the whole shard: the latch is awaited unlocked
		// and kept (held) while the write decision is redone.
		if !t.cfg.DisableReadLatch {
			latch := t.latches.latch(v.Page)
			if latch != held {
				release()
				if !latch.TryLock() {
					sh.mu.Unlock()
					latch.Lock()
					held = latch
					continue
				}
				held = latch
			}
		}
		v.Xmax = xid
		v.SubMax = subID
		wr := WriteResult{OldPage: v.Page, NewPage: -1}
		if !del {
			nv := &Tuple{Key: key, Value: value, Xmin: xid, SubMin: subID, Page: t.allocPage(), Older: v}
			sh.rows[key] = nv
			wr.NewPage = nv.Page
		}
		sh.mu.Unlock()
		var err error
		if check != nil {
			err = check(wr)
		}
		release()
		return wr, err
	}
}

// waitFor blocks xid until holder finishes, registering the wait in the
// deadlock graph.
func (t *Table) waitFor(xid, holder mvcc.TxID, mgr *mvcc.Manager, wg *waitgraph.Graph) error {
	if wg != nil {
		if err := wg.Wait(xid, holder); err != nil {
			return err
		}
		defer wg.Done(xid)
	}
	<-mgr.Done(holder)
	return nil
}

// UndoSubxact removes the effects xid made to key at or after subID:
// versions created are unlinked and xmax stamps are cleared. The engine
// calls this for every key written in a rolled-back savepoint scope
// (§7.3). It is a no-op for keys the subtransaction did not touch.
func (t *Table) UndoSubxact(key string, xid mvcc.TxID, subID int32) {
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	head := sh.rows[key]
	// Unlink versions created by (xid, >=subID) from the head of the
	// chain. Only our own uncommitted versions can sit above committed
	// ones, so scanning from the head suffices.
	for head != nil && head.Xmin == xid && head.SubMin >= subID {
		head = head.Older
	}
	if head == nil {
		delete(sh.rows, key)
		return
	}
	sh.rows[key] = head
	if head.Xmax == xid && head.SubMax >= subID {
		head.Xmax = 0
		head.SubMax = 0
	}
}

// ForEach invokes fn for every row visible to snap, shard by shard, in
// unspecified order. It returns the union of conflict-out transactions
// observed. Full-table (sequential) scans go through this path; ordered
// scans go through the B+-tree index instead.
func (t *Table) ForEach(snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, fn func(tu *Tuple) bool) []mvcc.TxID {
	var conflicts []mvcc.TxID
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		type visible struct{ tu *Tuple }
		var out []visible
		for key, head := range sh.rows {
			_ = key
			res := readChain(head, snap, self, mgr)
			conflicts = append(conflicts, res.ConflictOut...)
			if res.Tuple != nil {
				out = append(out, visible{res.Tuple})
			}
		}
		sh.mu.Unlock()
		for _, v := range out {
			t.simulateIO()
			if !fn(v.tu) {
				return conflicts
			}
		}
	}
	return conflicts
}

// Len returns the number of row chains (live or dead) in the heap.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.rows)
		sh.mu.Unlock()
	}
	return n
}

// Vacuum removes versions that can no longer be seen by any snapshot
// whose visibility horizon is horizonXID: versions superseded by a
// committed transaction below the horizon, and aborted detritus. It
// returns the number of versions removed.
func (t *Table) Vacuum(horizon *mvcc.Snapshot, mgr *mvcc.Manager) int {
	removed := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for key, head := range sh.rows {
			head = pruneAborted(sh, key, mgr)
			if head == nil {
				continue
			}
			// Find the newest version visible to the horizon; all
			// versions older than it are unreachable.
			cut := head
			for cut != nil {
				if mgr.Visible(cut.Xmin, horizon) {
					break
				}
				cut = cut.Older
			}
			if cut != nil && cut.Older != nil {
				for v := cut.Older; v != nil; v = v.Older {
					removed++
				}
				cut.Older = nil
			}
			// If the sole remaining version is a committed delete
			// visible to everyone, drop the row entirely.
			if head.Older == nil && head.Xmax != 0 {
				if st, seq := mgr.Status(head.Xmax); st == mvcc.StatusCommitted && horizon.SeesCommitted(head.Xmax, seq) {
					delete(sh.rows, key)
					removed++
				}
			}
		}
		sh.mu.Unlock()
	}
	return removed
}

// String implements fmt.Stringer for debugging.
func (t *Table) String() string {
	return fmt.Sprintf("table %s (%d rows)", t.name, t.Len())
}
