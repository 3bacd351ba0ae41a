// Package storage implements a versioned tuple heap in the style of
// PostgreSQL's storage manager. Each logical row is a chain of tuple
// versions; each version carries the transaction ID that created it
// (xmin) and, once deleted or superseded, the transaction that did so
// (xmax). Updates never modify a version in place: they stamp the old
// version's xmax and push a new version, exactly the model §5.1 of the
// paper describes.
//
// # Pages and TIDs
//
// Rows live on heap pages (page.go) of TuplesPerPage row slots each, laid
// out the way PostgreSQL lays out a heap page: a line pointer per slot
// names the slot's newest version; the versions' headers — xmin, xmax,
// sub-ids, cached fates, the older version's index, the value's offset —
// sit in one pointer-free array; the values sit in an append-only arena.
// A row is addressed by its TID, the (page, slot) pair packed into a
// uint64. Slots are made in order, one per key the table first hears of,
// and never freed, so a TID is stable for the row's life and a row never
// leaves its page: every version of it is placed where the version it
// supersedes lives — what PostgreSQL's heap-only-tuple updates and page
// pruning achieve for rows whose indexed columns do not change. The
// model's deviation from PostgreSQL is stated: a page has no byte budget,
// so an update never has to move a row for want of room; a page whose
// headers or arena are full is compacted into fresh, larger ones instead
// (page.compact), and the old arena is never written again, so a value a
// reader captured stays intact.
//
// # One index
//
// A table owns its primary B+-tree (internal/btree), and the tree maps a
// key to its row's TID. The key itself is kept once, in the leaf's key
// arena; the heap page keeps none. There is no second, hashed index. A
// point read is one descent (Lookup, which also hands the engine the
// leaf page to gap-lock); a range scan walks the leaves and reads the
// rows they name a page at a time, so it reads each page's headers and
// values in place.
//
// # Settled visibility
//
// A version caches the resolved fate of its xmin and its xmax — committed,
// with its CSN — the way PostgreSQL sets hint bits: the first reader that
// finds the transaction committed writes the answer on the version, and
// every later read of a settled row makes no commit-log lookup at all. A
// cached fate is at least as good as the log's answer for as long as the
// version exists: commit-log truncation only forgets CSNs the cache still
// has. Whatever overwrites or clears an xmax resets its cached fate with
// it.
//
// No version ever names an aborted transaction, so there is no aborted
// fate to cache and nothing for a reader or a writer to step over. A
// write leaves nothing behind unless it succeeds: Update and Delete take
// a failed check's stamp and version off again before they release the
// latch, and the engine records every write that succeeded before it
// does anything that can fail. A rollback unlinks the versions its write
// set names (UndoSubxact) before the abort is published (mvcc.Abort),
// which is what lets the commit log forget aborts at once. Chains are
// trimmed where they are written: modify cuts the chain below the newest
// version every snapshot can see, using the horizon mvcc.OldestSnapshot
// publishes. Vacuum remains as the explicit full sweep, at the same
// horizon. What a cut or an unlink leaves unreachable is dropped when its
// page is next compacted.
//
// # Write locks and the page latch
//
// Tuple-level write locks are represented by an in-progress xmax, reusing
// the tuple header the way PostgreSQL does; a writer that finds an
// in-progress xmax blocks until that transaction finishes, then applies
// snapshot isolation's first-updater-wins rule.
//
// Each page carries a latch (latch.go), the stand-in for PostgreSQL's
// buffer content lock. It is the only lock on a page's headers: every
// reader takes it shared, once per run of rows on the page, and every
// header mutation — Insert, Update, Delete, UndoSubxact, Vacuum, and the
// pruning and compaction they do — runs under it exclusively. It also
// plays the latch's part in the SSI protocol: Table.Read and a tracked
// Table.Scan run their caller's callback — which inserts the SIREAD
// locks — under the shared latch, and Table.Update / Table.Delete decide,
// stamp xmax and run their caller's write check under the same latch,
// exclusively. The SSI lock manager in internal/core takes SIREAD locks
// at tuple, page and relation granularity; because a row never leaves its
// page, the tuple target (relation, page, key) names the row across all
// its versions. That makes the MVCC visibility check atomic with SIREAD
// registration relative to writers of the row, closing the detection
// window in which a writer's lock-table probe could run between a
// reader's visibility check and its lock insertion and miss the
// rw-antidependency entirely (§5.2 of the paper; the latch protocol and
// lock ordering are documented in latch.go). The trace seam's Read point
// (internal/trace, Config.Trace) fires inside that window, which is where
// the interleaving harnesses park a reader.
package storage

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"time"

	"pgssi/internal/btree"
	"pgssi/internal/mvcc"
	"pgssi/internal/trace"
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

// TuplesPerPage is the number of row slots on one heap page. It only
// affects lock granularity, not correctness.
const TuplesPerPage = 64

// ReadResult is the outcome of a visibility-checked read.
type ReadResult struct {
	// Tuple is the value of the version visible to the snapshot, or nil
	// if none is (a visible empty value is empty, not nil). It was
	// captured under the page latch and aliases the page's arena, which
	// is never written where a value already lies: it may be kept, and
	// must not be modified.
	Tuple []byte
	// Page is the heap page the row lives on (every version of it);
	// meaningful when Tuple is non-nil.
	Page int64
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
	// Trace, if non-nil, receives the Read event (internal/trace).
	// Test-only.
	Trace trace.Func
}

// Table is a heap of versioned rows keyed by string, reached through
// the primary B+-tree it owns: the tree orders the keys, its leaf pages
// are what index-range SIREAD locks name, and its leaf entries are the
// rows' TIDs.
type Table struct {
	name  string
	cfg   Config
	index *btree.Tree[TID]
	// pages is the page directory, indexed by page number. It only grows,
	// when a slot is made on a page past its end; a reader that holds a
	// TID finds the TID's page in whatever directory it loads.
	pages atomic.Pointer[[]*page]
	// lastTID is the TID of the newest slot. It and the directory's
	// growth are guarded by the index's tree lock: slots are only made
	// inside GetOrInsert, through mkSlot.
	lastTID TID
	mkSlot  func() TID
}

// NewTable creates an empty heap named name.
func NewTable(name string, cfg Config) *Table {
	t := &Table{name: name, cfg: cfg, index: btree.NewOf[TID]()}
	t.pages.Store(&[]*page{newPage()})
	t.mkSlot = t.newSlot
	return t
}

// newSlot makes the slot for a key the index has not held before, on
// the next free slot of the last page (or of a new one). The key itself
// lives in the index leaf's arena. Caller holds the tree lock.
func (t *Table) newSlot() TID {
	t.lastTID++
	tid := t.lastTID
	if tid.Page() == int64(len(*t.pages.Load())) {
		pages := append(*t.pages.Load(), newPage())
		t.pages.Store(&pages)
	}
	return tid
}

// page returns the page tid is on. tid must name a row.
func (t *Table) page(tid TID) *page { return (*t.pages.Load())[tid.Page()] }

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Index returns the table's primary B+-tree, for callers that lock its
// leaf pages without reading through them (the S2PL paths).
func (t *Table) Index() *btree.Tree[TID] { return t.index }

// simulateIO charges one page access against the simulated device.
func (t *Table) simulateIO() {
	if t.cfg.IODelay <= 0 {
		return
	}
	if t.cfg.CacheMissRatio > 0 && rand.Float64() < t.cfg.CacheMissRatio {
		time.Sleep(t.cfg.IODelay)
	}
}

// traceRead fires the trace seam's Read point, if one is set.
func (t *Table) traceRead(self mvcc.TxID, key string) {
	if f := t.cfg.Trace; f != nil {
		f(trace.Event{Point: trace.Read, XID: uint64(self), Table: t.name, Key: key})
	}
}

// Get returns the value of key visible to snap, along with the MVCC
// conflict-out set described on ReadResult. self is the reading
// transaction's xid (InvalidTxID for transactions that have not written).
// Get holds the page latch only while it reads the row: it serves readers
// that register no SIREAD lock (read committed, repeatable read, S2PL,
// safe snapshots), for whom MVCC visibility alone is the contract.
// Serializable readers must use Read with latched=true so their SIREAD
// registration happens under the page latch.
func (t *Table) Get(key string, snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager) ReadResult {
	var out ReadResult
	t.Read(key, snap, self, mgr, nil, false, func(res ReadResult) error {
		out = res
		return nil
	})
	return out
}

// Read performs a visibility-checked read of key and invokes fn with the
// result — if latched is true, while holding the latch of the row's heap
// page in shared mode. It makes exactly one index descent: onLeaf, if
// non-nil, is invoked under the tree lock with the leaf page that holds
// (or would hold) key, which is where a serializable caller takes its
// SIREAD gap lock (btree.Lookup explains why there), and the row the
// descent arrives at is the one read. A key the index has never held has
// no page and so no latch: the phantom protection for absent keys is that
// gap lock, taken before the row is looked at. fn is where a serializable
// caller inserts its tuple SIREAD lock: doing so under the latch makes the
// visibility check and the lock insertion one atomic step relative to
// Update/Delete, which stamp xmax and probe the SIREAD table under the
// same latch, exclusively. Read returns fn's error.
//
// Callers that register nothing in fn (non-serializable reads) pass
// latched=false, and the latch is released before fn runs — they cannot
// lose an rw-antidependency because they never carry one.
//
// fn must not call back into this table (the latch is not reentrant) and
// must not block on other transactions; lock-manager work (mutex-only)
// is fine per the ordering rules in latch.go.
func (t *Table) Read(key string, snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, onLeaf func(btree.PageID), latched bool, fn func(ReadResult) error) error {
	t.simulateIO()
	tid, _, _ := t.index.Lookup(key, onLeaf)
	var res ReadResult
	if tid != 0 {
		pg := t.page(tid)
		latch := &pg.latch
		latch.RLock()
		res.Page = tid.Page()
		res.Tuple = pg.read(tid.slot(), snap, self, mgr, &res.ConflictOut)
		if latched {
			defer latch.RUnlock()
		} else {
			latch.RUnlock()
		}
	}
	t.traceRead(self, key)
	return fn(res)
}

// Leaf is one batch of a scan's results: keys in order, with the value of
// each that the snapshot sees. The scan reuses it for the next batch; the
// values themselves may be kept (see ReadResult.Tuple).
type Leaf struct {
	Keys []string
	// Vals parallels Keys: the visible version's value, or nil.
	Vals [][]byte
	// ConflictOut is the union of the conflict-out sets (see
	// ReadResult.ConflictOut) of the rows resolved for this batch.
	ConflictOut []mvcc.TxID
}

// Reader resolves visibility for one scan, a batch of at most
// btree.MaxLeaf rows at a time (the keys btree.Leaves copied out of an
// index leaf or two, or ReadKeys' keys). Its buffers grow to the largest
// batch and are reused, so a batch costs no allocation after the first
// few, and no commit-log lookup once its rows' fates are settled.
//
// The rows are taken in runs of consecutive rows that share a heap page
// — a row's page never changes, so the runs are known from the TIDs
// before any row is looked at. Per run the page's latch is taken in
// shared mode, each row is resolved once under it and its value captured,
// and the latch is released: one latch round trip per run, and the run's
// headers and values read where they lie.
//
// With an onPage callback (a tracked, i.e. SIREAD-registering, scan)
// onPage is invoked with the keys of the run's visible rows before the
// latch is released: exactly one {visibility check, SIREAD registration}
// critical section per run, never spanning pages, which is what lets the
// caller register a run's locks in one core.AcquireTupleLockBatch call
// with the PR 2 invariant intact. Rows with no visible version are not
// passed to onPage (their protection is the index gap lock). Batch
// boundaries are the index's, not the heap's, so a scan (Table.Scan)
// holds the run a batch ends on over to the next batch, unresolved: a run
// is registered in one onPage call wherever the leaves divide it. Without
// onPage nothing is held over: such readers register nothing, so they
// have nothing to lose to the window the latch closes.
type Reader struct {
	t      *Table
	snap   *mvcc.Snapshot
	self   mvcc.TxID
	mgr    *mvcc.Manager
	onPage func(page int64, keys []string) error
	leaf   Leaf
	look   []TID    // ReadKeys' lookups
	run    []string // the keys of a tracked run's visible rows
	// Tracked scans: the rows in hand — the run held over first, then
	// the batch — as keys, TIDs and values in parallel (keys and values
	// are handed out through leaf); the first cut of them were delivered
	// by the last call.
	keys []string
	tids []TID
	vals [][]byte
	cut  int
}

// NewReader returns a Reader for one scan at snap by transaction self.
func (t *Table) NewReader(snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, onPage func(page int64, keys []string) error) *Reader {
	rd := &Reader{t: t, snap: snap, self: self, mgr: mgr, onPage: onPage}
	if onPage == nil {
		rd.leaf.Vals = make([][]byte, 0, btree.MaxLeaf)
	}
	// A tracked scan's buffers are sized by its first batch: the many
	// short scans of a transactional mix pay for the rows they read.
	return rd
}

// ReadKeys reads the rows named by keys (at most btree.MaxLeaf, free of
// duplicates), one index descent each — the secondary-index scan's way
// in, whose index entries name primary keys rather than rows. The result
// parallels keys: nothing is held over, since index-key order is not
// heap order and a run that ends one batch need not continue in the next.
func (rd *Reader) ReadKeys(keys []string) (*Leaf, error) {
	rd.look = rd.look[:0]
	for _, k := range keys {
		tid, _, _ := rd.t.index.Lookup(k, nil)
		rd.look = append(rd.look, tid)
	}
	return rd.read(keys, rd.look, true)
}

// read resolves one batch. tids parallels keys; a zero TID is a key the
// index has never held. final says no batch follows, so a tracked scan
// holds nothing over.
func (rd *Reader) read(keys []string, tids []TID, final bool) (*Leaf, error) {
	lf := &rd.leaf
	lf.ConflictOut = lf.ConflictOut[:0]
	if rd.onPage != nil {
		return lf, rd.readTracked(keys, tids, final)
	}
	lf.Keys = keys
	lf.Vals = lf.Vals[:len(keys)]
	t := rd.t
	for i := 0; i < len(tids); {
		j := runEnd(tids, i, len(tids))
		if tids[i] == 0 {
			lf.Vals[i] = nil
		} else if rd.resolve(tids, lf.Vals, i, j) {
			// IO is charged per page run that has a visible row.
			t.simulateIO()
		}
		for ; i < j; i++ {
			t.traceRead(rd.self, keys[i])
		}
	}
	return lf, nil
}

// runEnd returns where the run that starts at tids[i] ends, at most at
// n: after the last of the consecutive rows on tids[i]'s page, or right
// after tids[i] if it names no row.
func runEnd(tids []TID, i, n int) int {
	j := i + 1
	if tids[i] != 0 {
		for j < n && tids[j] != 0 && tids[j].Page() == tids[i].Page() {
			j++
		}
	}
	return j
}

// resolve reads the run tids[i:j] under its page's shared latch into
// vals[i:j] and reports whether any row of it is visible.
func (rd *Reader) resolve(tids []TID, vals [][]byte, i, j int) bool {
	pg := rd.t.page(tids[i])
	pg.latch.RLock()
	seen := rd.visible(pg, tids, vals, i, j)
	pg.latch.RUnlock()
	return seen
}

// visible reads the run tids[i:j] of page pg into vals[i:j], adding the
// rows' conflict-out sets to the batch's, and reports whether any row of
// it is visible. Caller holds pg's latch.
func (rd *Reader) visible(pg *page, tids []TID, vals [][]byte, i, j int) bool {
	seen := false
	for k := i; k < j; k++ {
		vals[k] = pg.read(tids[k].slot(), rd.snap, rd.self, rd.mgr, &rd.leaf.ConflictOut)
		seen = seen || vals[k] != nil
	}
	return seen
}

// readTracked is read for a tracked scan. The rows in hand are the run
// the last batch held over followed by this batch's; they are taken run
// by run (see Reader), and everything resolved is handed out through
// rd.leaf. Unless the batch is final, the run its last row belongs to
// gets no pass yet: the next batch may continue it, and a run is to be
// registered once. It stays in hand, unresolved — at most a page's
// TuplesPerPage slots.
func (rd *Reader) readTracked(keys []string, tids []TID, final bool) error {
	t := rd.t
	// What the last call handed out goes; what it held over moves up.
	n := copy(rd.keys, rd.keys[rd.cut:])
	copy(rd.tids, rd.tids[rd.cut:])
	rd.keys = append(rd.keys[:n], keys...)
	rd.tids = append(rd.tids[:n], tids...)
	n = len(rd.tids)
	cut := n
	if !final {
		// Only ReadKeys, which is always final, has zero TIDs.
		for cut > 0 && rd.tids[cut-1].Page() == rd.tids[n-1].Page() {
			cut--
		}
	}
	rd.vals = slices.Grow(rd.vals[:0], cut)[:cut]
	for i := 0; i < cut; {
		j := runEnd(rd.tids, i, cut)
		if rd.tids[i] == 0 {
			rd.vals[i] = nil
			t.traceRead(rd.self, rd.keys[i])
			i = j
			continue
		}
		pg := t.page(rd.tids[i])
		t.simulateIO()
		latch := &pg.latch
		latch.RLock()
		rd.visible(pg, rd.tids, rd.vals, i, j)
		err := rd.register(rd.tids[i].Page(), i, j)
		latch.RUnlock()
		if err != nil {
			return err
		}
		i = j
	}
	rd.cut = cut
	rd.leaf.Keys, rd.leaf.Vals = rd.keys[:cut], rd.vals[:cut]
	return nil
}

// register fires the Read point for the rows of the resolved run
// [i, j) of page and hands the keys of its visible rows to onPage.
// Caller holds the page's latch, shared.
func (rd *Reader) register(page int64, i, j int) error {
	run := rd.run[:0]
	for k := i; k < j; k++ {
		rd.t.traceRead(rd.self, rd.keys[k])
		if rd.vals[k] != nil {
			run = append(run, rd.keys[k])
		}
	}
	rd.run = run
	if len(run) == 0 {
		return nil
	}
	return rd.onPage(page, run)
}

// Scan reads the rows with lo <= key < hi (hi == "" means unbounded) in
// key order, streaming: it walks the primary index a leaf-sized batch at
// a time (btree.Leaves) and, with no lock held, hands each batch's
// result to deliver, which returns whether to go on. Nothing of the
// range's size is ever built, and a scan that stops early has read —
// and, through onLeaf, locked — only the leaves up to the batch it
// stopped in.
//
// onLeaf, if non-nil, is invoked under the tree lock for each leaf page
// visited, before its rows are read: the SIREAD gap-lock point (see
// btree.Lookup). onPage, if non-nil, makes this a tracked scan: see
// Reader for the per-page-run latched callback it gets, and for the run
// it holds over — what deliver receives is then the batch shifted to end
// where a run ends, and one more, final delivery hands out the rest.
// Scan returns the first error of onPage or deliver.
func (t *Table) Scan(lo, hi string, snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, onLeaf func(btree.PageID), onPage func(page int64, keys []string) error, deliver func(*Leaf) (more bool, err error)) error {
	rd := t.NewReader(snap, self, mgr, onPage)
	more := true
	var err error
	step := func(keys []string, tids []TID, final bool) bool {
		var lf *Leaf
		if lf, err = rd.read(keys, tids, final); err == nil {
			more, err = deliver(lf)
		}
		more = more && err == nil
		return more
	}
	t.index.Leaves(lo, hi, onLeaf, func(keys []string, tids []TID) bool {
		return step(keys, tids, false)
	})
	if more && onPage != nil {
		step(nil, nil, true)
	}
	return err
}

// WriteResult describes a successful write for the benefit of the SSI
// layer: which heap page is involved so SIREAD locks can be checked and
// the write-lock-drops-SIREAD optimization applied, and, for an insert,
// what it did to the primary index.
type WriteResult struct {
	// Page is the heap page of the written row — of the superseded
	// version and of the new one alike; readers' tuple-granularity
	// SIREAD locks name this page.
	Page int64
	// IndexPage is the index leaf page holding the inserted key, the
	// page an insert's phantom check (core.CheckIndexInsert) probes,
	// and Splits the leaf splits the insert caused, oldest first, for
	// predicate-lock propagation. Insert only.
	IndexPage btree.PageID
	Splits    []btree.Split
	// Rewrite reports that the write superseded one of the writer's
	// own: the row's head was a version it created or carried its xmax
	// stamp. When false, this is the writer's first write of the key,
	// or its first since a savepoint rollback undid the earlier ones.
	Rewrite bool
}

// Insert creates the first live version of key, adding the key's slot to
// the primary index if this is the first the table hears of it. It fails
// with ErrDuplicateKey if a visible live version exists or a concurrent
// transaction committed one; if a concurrent in-progress transaction
// holds the key, Insert blocks until that transaction finishes, matching
// PostgreSQL's behaviour on unique-index conflicts.
//
// The index entry and the version are both in place before Insert
// returns, hence before the caller's CheckIndexInsert probe: a reader
// that gap-locked the leaf too late for the probe to see reads the row
// after the version was linked and reports the inserter as a conflict
// out.
func (t *Table) Insert(key string, value []byte, xid mvcc.TxID, subID int32, snap *mvcc.Snapshot, mgr *mvcc.Manager, wg *waitgraph.Graph) (WriteResult, error) {
	t.simulateIO()
	tid, leaf, _, splits := t.index.GetOrInsert(key, t.mkSlot)
	pg, slot := t.page(tid), tid.slot()
	// The loop leaves with the page latched exclusively and older set to
	// the dead chain the new version goes on top of (none for a fresh
	// key).
	latch := &pg.latch
	var older int32
	for {
		latch.Lock()
		older = pg.line[slot]
		if older == none {
			break
		}
		// Some version chain exists. Determine whether the newest
		// version is live for us or for a concurrent transaction.
		head := &pg.hdrs[older]
		if head.xmin == xid && head.xmax == xid {
			// We deleted our own version earlier; re-inserting is
			// allowed and creates a fresh version.
			break
		}
		st, seq := head.minFate.resolve(head.xmin, mgr)
		if st == mvcc.StatusInProgress && head.xmin != xid {
			holder := head.xmin
			latch.Unlock()
			if err := t.waitFor(xid, holder, mgr, wg); err != nil {
				return WriteResult{}, err
			}
			continue
		}
		// Creator committed (or is us). Is the row currently deleted?
		if pg.visible(slot, snap, xid, mgr, nil) != none {
			latch.Unlock()
			return WriteResult{}, ErrDuplicateKey
		}
		if head.xmax == 0 && st == mvcc.StatusCommitted && !snap.SeesCommitted(seq) {
			// A concurrent transaction inserted the key and
			// committed: unique violation even though we cannot
			// see the row.
			latch.Unlock()
			return WriteResult{}, ErrDuplicateKey
		}
		if head.xmax != 0 && head.xmax != xid {
			if xst, _ := head.maxFate.resolve(head.xmax, mgr); xst == mvcc.StatusInProgress {
				holder := head.xmax
				latch.Unlock()
				if err := t.waitFor(xid, holder, mgr, wg); err != nil {
					return WriteResult{}, err
				}
				continue
			}
		}
		// Row is dead for everyone relevant: safe to create anew.
		break
	}
	rewrite := older != none && (pg.hdrs[older].xmin == xid || pg.hdrs[older].xmax == xid)
	pg.push(slot, header{xmin: xid, subMin: subID}, value)
	latch.Unlock()
	return WriteResult{Page: tid.Page(), IndexPage: leaf, Splits: splits, Rewrite: rewrite}, nil
}

// Update replaces the visible version of key with a new version holding
// value. It implements snapshot isolation's write protocol: block on an
// in-progress updater, then fail with ErrWriteConflict if a concurrent
// transaction committed a change to the row.
//
// check, if non-nil, runs after the write is applied but before the
// row's page latch is released; serializable callers put
// their SIREAD-table probe (core.CheckWrite) there so the xmax stamp and
// the probe are one atomic step relative to readers of the page (see
// latch.go). A check error is returned as Update's error, and the write
// is taken back under the same latch: the new version comes off and the
// stamp is cleared, so an Update that fails has written nothing.
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
	tid, _, _ := t.index.Lookup(key, nil)
	if tid == 0 {
		return WriteResult{}, ErrNotFound
	}
	pg, slot := t.page(tid), tid.slot()
	// The row's page latch is taken exclusively (readers share it) and
	// held from the write decision through the stamp to the end of the
	// caller's check, so no reader of this page can put its visibility
	// check between the stamp and the SIREAD probe. It is dropped on
	// every exit and before every wait.
	latch := &pg.latch
	fail := func(err error) (WriteResult, error) {
		latch.Unlock()
		return WriteResult{}, err
	}
	wait := func(holder mvcc.TxID) error {
		latch.Unlock()
		return t.waitFor(xid, holder, mgr, wg)
	}
	for {
		latch.Lock()
		hi := pg.line[slot]
		if hi == none {
			return fail(ErrNotFound)
		}
		head := &pg.hdrs[hi]
		// If the newest version belongs to an in-progress concurrent
		// transaction, that transaction holds the tuple write lock.
		st, seq := head.minFate.resolve(head.xmin, mgr)
		if head.xmin != xid && st == mvcc.StatusInProgress {
			if err := wait(head.xmin); err != nil {
				return WriteResult{}, err
			}
			continue
		}
		vi := pg.visible(slot, snap, xid, mgr, nil)
		if vi == none {
			// Nothing visible. If a concurrent committed
			// transaction owns the newest version, this is a
			// first-updater-wins conflict; otherwise the row is
			// simply absent.
			if head.xmin != xid && st == mvcc.StatusCommitted && !snap.SeesCommitted(seq) {
				return fail(ErrWriteConflict)
			}
			if head.xmax != 0 && head.xmax != xid {
				if xst, xseq := head.maxFate.resolve(head.xmax, mgr); xst == mvcc.StatusCommitted && !snap.SeesCommitted(xseq) {
					return fail(ErrWriteConflict)
				}
			}
			return fail(ErrNotFound)
		}
		if vi != hi {
			// A newer version exists that we cannot see: it was
			// created by a concurrent transaction. Its creator is
			// committed (in-progress creators were handled above),
			// so first-updater-wins rejects us.
			return fail(ErrWriteConflict)
		}
		v := head
		if v.xmax != 0 && v.xmax != xid {
			if xst, _ := v.maxFate.resolve(v.xmax, mgr); xst == mvcc.StatusInProgress {
				if err := wait(v.xmax); err != nil {
					return WriteResult{}, err
				}
				continue
			}
			// Concurrent delete/update committed while we were
			// deciding: conflict.
			return fail(ErrWriteConflict)
		}
		// We hold the tuple: stamp xmax and (for updates) put the new
		// version on top, on the same page. v is visible and the head,
		// so xid has not deleted it: the write supersedes one of xid's
		// own exactly when xid created v.
		wr := WriteResult{Page: tid.Page(), Rewrite: v.xmin == xid}
		v.setXmax(xid, subID)
		// Pruning on write: the superseded version is the newest one any
		// snapshot can still need, so whatever lies below the newest
		// all-visible version at or under it goes now.
		if h := mgr.Horizon(); h != mvcc.InvalidSeqNo {
			pg.trimBelow(vi, h, mgr)
		}
		if !del {
			pg.push(slot, header{xmin: xid, subMin: subID}, value)
		}
		if check != nil {
			if err := check(wr); err != nil {
				// Take the write back before any reader can see it: the
				// new version comes off the chain and the stamp beneath
				// it is cleared (the write found none there: any xmax
				// was waited on or turned away above). push may have
				// compacted, so the line pointer, not v, names both.
				top := pg.line[slot]
				if !del {
					top = pg.hdrs[top].older
					pg.line[slot] = top
				}
				pg.hdrs[top].setXmax(0, 0)
				return fail(err)
			}
		}
		latch.Unlock()
		return wr, nil
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
// (§7.3), and with subID 0 for every key in the write set of a
// transaction that rolls back, so an abort leaves no version behind for
// readers to step over. It is a no-op for keys the (sub)transaction did
// not touch.
func (t *Table) UndoSubxact(key string, xid mvcc.TxID, subID int32) {
	tid, _, _ := t.index.Lookup(key, nil)
	if tid == 0 {
		return
	}
	pg, slot := t.page(tid), tid.slot()
	pg.latch.Lock()
	defer pg.latch.Unlock()
	// Unlink versions created by (xid, >=subID) from the head of the
	// chain. Only our own uncommitted versions can sit above committed
	// ones, so scanning from the head suffices.
	head := pg.line[slot]
	for head != none && pg.hdrs[head].xmin == xid && pg.hdrs[head].subMin >= subID {
		head = pg.hdrs[head].older
	}
	pg.line[slot] = head
	if head != none && pg.hdrs[head].xmax == xid && pg.hdrs[head].subMax >= subID {
		pg.hdrs[head].setXmax(0, 0)
	}
}

// Len returns the number of row slots in the heap: every key the table
// has ever held, live or dead.
func (t *Table) Len() int { return t.index.Len() }

// Vacuum removes versions that can no longer be seen by any snapshot at
// or above horizon (mvcc.Manager.OldestSnapshot): versions superseded by
// one committed at or below the horizon. It returns the number of
// versions removed. A row whose last version goes keeps its (empty) slot
// in the index. It walks the heap a page at a time, each under its latch
// held exclusively.
func (t *Table) Vacuum(horizon mvcc.SeqNo, mgr *mvcc.Manager) int {
	removed := 0
	for _, pg := range *t.pages.Load() {
		pg.latch.Lock()
		for slot := range pg.line {
			removed += pg.vacuum(slot, horizon, mgr)
		}
		pg.latch.Unlock()
	}
	return removed
}

// vacuum is Vacuum for one row. Caller holds the latch exclusively.
func (p *page) vacuum(slot int, horizon mvcc.SeqNo, mgr *mvcc.Manager) (removed int) {
	head := p.line[slot]
	if head == none {
		return 0
	}
	for i := p.trimBelow(head, horizon, mgr); i != none; i = p.hdrs[i].older {
		removed++
	}
	// If the sole remaining version is a committed delete visible to
	// everyone, the row is gone.
	if v := &p.hdrs[head]; v.older == none && v.xmax != 0 {
		if st, seq := v.maxFate.resolve(v.xmax, mgr); st == mvcc.StatusCommitted && seq <= horizon {
			p.line[slot] = none
			removed++
		}
	}
	return removed
}

// DescribeRow renders every version of key's row, newest first: value,
// xmin and xmax, each with the fate cached on the version and the commit
// log's answer now, side by side — a harness that caught a reader seeing
// what it should not prints this. It fills no cache.
func (t *Table) DescribeRow(key string, mgr *mvcc.Manager) string {
	tid, _, _ := t.index.Lookup(key, nil)
	if tid == 0 {
		return fmt.Sprintf("%s: no slot", key)
	}
	stamp := func(xid mvcc.TxID, cached fate) string {
		if xid == 0 {
			return "-"
		}
		st, seq := mgr.Status(xid)
		return fmt.Sprintf("%d(log %v@%d, cached %v)", xid, st, seq, cached)
	}
	pg := t.page(tid)
	pg.latch.RLock()
	defer pg.latch.RUnlock()
	out := fmt.Sprintf("%s (page %d):", key, tid.Page())
	for i := pg.line[tid.slot()]; i != none; i = pg.hdrs[i].older {
		v := &pg.hdrs[i]
		out += fmt.Sprintf("\n    %x xmin %s xmax %s", pg.value(i), stamp(v.xmin, v.minFate.load()), stamp(v.xmax, v.maxFate.load()))
	}
	return out
}

// String implements fmt.Stringer for debugging.
func (t *Table) String() string {
	return fmt.Sprintf("table %s (%d rows)", t.name, t.Len())
}
