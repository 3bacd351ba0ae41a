// Package storage implements a versioned tuple heap in the style of
// PostgreSQL's storage manager. Each logical row is a chain of tuple
// versions; each version carries the transaction ID that created it
// (xmin) and, once deleted or superseded, the transaction that did so
// (xmax). Updates never modify a version in place: they stamp the old
// version's xmax and prepend a new version, exactly the model §5.1 of the
// paper describes.
//
// # One index
//
// A table owns its primary B+-tree (internal/btree), and the tree's leaf
// entry for a key is the row itself: a Row, the stable slot that holds
// the head of the key's version chain and the mutex guarding it. There is
// no second, hashed index. A point read is one descent (Lookup, which
// also hands the engine the leaf page to gap-lock); a range scan walks
// the leaves and finds the rows in them. Slots are created by the first
// insert of a key and never move or go away, so a *Row copied out of a
// leaf stays valid after the tree lock is dropped.
//
// # Settled visibility
//
// A version caches the resolved fate of its xmin and its xmax — committed
// with its CSN, or aborted — the way PostgreSQL sets hint bits: the first
// reader that finds the transaction finished writes the answer on the
// version (under the row lock), and every later read of a settled row
// makes no commit-log lookup at all. A cached fate is at least as good as
// the log's answer for as long as the version exists: commit-log
// truncation only forgets CSNs the cache still has, and dropping an
// aborted tombstone cannot turn a cached "aborted" into "committed".
// Whatever overwrites or clears an xmax resets its cached fate with it.
//
// Readers never repair a chain. An aborted head is skipped, an aborted
// xmax is read as "not deleted", and that is all. Chains are tidied where
// they are written: a rollback unlinks the versions its write set names
// (UndoSubxact), every write first drops aborted versions off the head
// (which also covers a failed write that stamped a version but never
// reached a write set), and modify cuts the chain below the newest
// version every snapshot can see, using the horizon mvcc.OldestSnapshot
// publishes. Vacuum remains as the explicit full sweep, at the same
// horizon.
//
// # Write locks, pages, latches
//
// Tuple-level write locks are represented by an in-progress xmax, reusing
// the tuple header the way PostgreSQL does; a writer that finds an
// in-progress xmax blocks until that transaction finishes, then applies
// snapshot isolation's first-updater-wins rule.
//
// A row lives on one heap page for life: the page is a property of the
// row's slot, assigned when the slot is created (the key's first insert)
// and never changed, and every version of the row is placed where the
// version it supersedes lives — what PostgreSQL's heap-only-tuple updates
// and page pruning achieve for rows whose indexed columns do not change.
// The model's deviation from PostgreSQL is stated: a simulated page has no
// byte budget, so an update never has to move a row for want of room, and
// trimBelow's prune-on-write is the page pruning that would make the room.
// The SSI lock manager in internal/core takes SIREAD locks at tuple, page
// and relation granularity and promotes between them; because the page
// never changes, the tuple target (relation, page, key) names the row
// across all its versions.
//
// Each table additionally carries a sharded per-page read latch table
// (latch.go), the stand-in for PostgreSQL's buffer content lock in the
// SSI protocol, and latch(row.page) is the one latch for every version of
// the row: Table.Read and a tracked Table.Scan run their caller's
// callback — which inserts the SIREAD locks — under the shared latch of
// the row's page, and Table.Update / Table.Delete decide, stamp xmax and
// run their caller's write check under the same latch, exclusively. That
// makes the MVCC visibility check atomic with SIREAD registration
// relative to writers of the row, closing the detection window in which
// a writer's lock-table probe could run between a reader's visibility
// check and its lock insertion and miss the rw-antidependency entirely
// (§5.2 of the paper; the latch protocol and lock ordering are documented
// in latch.go). The trace seam's Read point (internal/trace, Config.Trace)
// fires inside that window, which is where the interleaving harnesses park
// a reader.
package storage

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
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

// TuplesPerPage is the number of tuple versions placed on one simulated
// heap page. It only affects lock granularity, not correctness.
const TuplesPerPage = 64

// fate is the cached outcome of a version's xmin or xmax transaction.
// The zero value means "not resolved yet" (the transaction was still in
// progress the last time anybody looked, or nobody has looked).
type fate uint64

const (
	fateUnknown fate = iota
	fateAborted
	// fateCommitted + CSN: committed with that commit sequence number;
	// fateCommitted alone (CSN InvalidSeqNo) is a commit the log had
	// already truncated when it was resolved, i.e. one every snapshot
	// sees.
	fateCommitted
)

// String renders a cached fate for DescribeRow.
func (f fate) String() string {
	switch {
	case f == fateUnknown:
		return "unresolved"
	case f == fateAborted:
		return "aborted"
	}
	return fmt.Sprintf("committed@%d", uint64(f-fateCommitted))
}

// resolve returns xid's status and commit CSN from the cache, consulting
// the commit log (and filling the cache) only while it is unresolved.
// Caller holds the lock of the row the version belongs to.
func (f *fate) resolve(xid mvcc.TxID, mgr *mvcc.Manager) (mvcc.Status, mvcc.SeqNo) {
	switch c := *f; {
	case c >= fateCommitted:
		return mvcc.StatusCommitted, mvcc.SeqNo(c - fateCommitted)
	case c == fateAborted:
		return mvcc.StatusAborted, mvcc.InvalidSeqNo
	}
	st, seq := mgr.Status(xid)
	switch st {
	case mvcc.StatusCommitted:
		*f = fateCommitted + fate(seq)
	case mvcc.StatusAborted:
		*f = fateAborted
	case mvcc.StatusInProgress:
	}
	return st, seq
}

// Tuple is one version of a row. Fields mirror the PostgreSQL tuple
// header bits that matter for visibility and SSI. Key and Value never
// change after the version is linked and may be read without the row
// lock; everything else belongs to the row lock.
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
	// Older points to the previous version of the row, or nil.
	Older *Tuple
	// minFate and maxFate cache the fates of Xmin and Xmax (see fate).
	minFate, maxFate fate
}

func (v *Tuple) minStatus(mgr *mvcc.Manager) (mvcc.Status, mvcc.SeqNo) {
	return v.minFate.resolve(v.Xmin, mgr)
}

func (v *Tuple) maxStatus(mgr *mvcc.Manager) (mvcc.Status, mvcc.SeqNo) {
	return v.maxFate.resolve(v.Xmax, mgr)
}

// setXmax stamps (or, with xid zero, clears) the version's xmax. The
// cached fate described the previous stamp, so it goes with it.
func (v *Tuple) setXmax(xid mvcc.TxID, subID int32) {
	v.Xmax, v.SubMax, v.maxFate = xid, subID, fateUnknown
}

// Row is a key's slot in the table's primary index: the B+-tree leaf
// entry for the key, holding the head of its version chain (newest
// first; nil while the key has no version) and the lock that guards the
// chain and the mutable fields of its versions. page is the heap page the
// row — every version of it — lives on; it is set when the slot is made
// and never written again, so it is read without the lock.
type Row struct {
	mu   sync.Mutex //ssi:lock level=20 name=storage.row
	head *Tuple
	page int64
}

// visible walks the chain newest-first and applies PostgreSQL's
// visibility rules, returning the version snap sees (nil if none) and
// appending to *conflicts, if non-nil, the concurrent transactions whose
// writes to this row were invisible (see ReadResult.ConflictOut). Caller
// holds r.mu.
func (r *Row) visible(snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, conflicts *[]mvcc.TxID) *Tuple {
	for v := r.head; v != nil; v = v.Older {
		if v.Xmin == self {
			// Own write: visible unless we deleted it ourselves.
			if v.Xmax == self {
				return nil
			}
			return v
		}
		st, seq := v.minStatus(mgr)
		switch st {
		case mvcc.StatusAborted:
			continue
		case mvcc.StatusInProgress:
			// Created by a concurrent, still-running transaction:
			// invisible, and an rw conflict out for serializable
			// readers (the reader must precede the writer).
			note(conflicts, v.Xmin)
			continue
		case mvcc.StatusCommitted:
			if !snap.SeesCommitted(seq) {
				// Committed after our snapshot: concurrent.
				note(conflicts, v.Xmin)
				continue
			}
		}
		// v was created by a transaction visible to the snapshot.
		// Check its deletion status.
		if v.Xmax == 0 {
			return v
		}
		if v.Xmax == self {
			// Deleted by ourselves.
			return nil
		}
		xst, xseq := v.maxStatus(mgr)
		switch xst {
		case mvcc.StatusAborted:
			return v
		case mvcc.StatusInProgress:
			note(conflicts, v.Xmax)
			return v
		case mvcc.StatusCommitted:
			if snap.SeesCommitted(xseq) {
				// Deleted before our snapshot: row is gone.
				return nil
			}
			// Deleted by a concurrent transaction that committed
			// after our snapshot: still visible to us, and an rw
			// conflict out.
			note(conflicts, v.Xmax)
			return v
		}
	}
	return nil
}

// note appends xid to a conflict-out list, if the reader keeps one.
func note(conflicts *[]mvcc.TxID, xid mvcc.TxID) {
	if conflicts != nil {
		*conflicts = append(*conflicts, xid)
	}
}

// pruneAborted drops leading versions created by aborted transactions,
// clears an aborted xmax stamp on the surviving head, and returns that
// head. Only the write paths (Insert, modify, Vacuum) call it — no
// aborted version is ever buried under a newer one, because every write
// prunes before it pushes; readers just skip what they find. Caller
// holds r.mu.
func (r *Row) pruneAborted(mgr *mvcc.Manager) *Tuple {
	head := r.head
	for head != nil {
		if st, _ := head.minStatus(mgr); st != mvcc.StatusAborted {
			break
		}
		head = head.Older
	}
	r.head = head
	if head != nil && head.Xmax != 0 {
		if st, _ := head.maxStatus(mgr); st == mvcc.StatusAborted {
			head.setXmax(0, 0)
		}
	}
	return head
}

// trimBelow cuts the chain under the newest version, at or below v,
// whose creator committed at or before horizon: every present and
// future snapshot sees that version (or something newer), so nothing
// older can be read again. The walk passes only versions newer than the
// horizon, so it is as long as the row's recent history, not its whole
// one. It returns the versions it cut off, newest first (nil if none).
// Caller holds the row lock.
func trimBelow(v *Tuple, horizon mvcc.SeqNo, mgr *mvcc.Manager) *Tuple {
	for ; v != nil && v.Older != nil; v = v.Older {
		if st, seq := v.minStatus(mgr); st == mvcc.StatusCommitted && seq <= horizon {
			cut := v.Older
			v.Older = nil
			return cut
		}
	}
	return nil
}

// ReadResult is the outcome of a visibility-checked read.
type ReadResult struct {
	// Tuple is the version visible to the snapshot, or nil if none.
	Tuple *Tuple
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
// rows.
type Table struct {
	name  string
	cfg   Config
	index *btree.Tree[*Row]
	// latches is the per-page read latch table (latch.go).
	latches *latchTable
	// pageSeq allocates heap page slots, one per row slot created;
	// page = seq / TuplesPerPage.
	pageSeq atomic.Int64
	// newRow makes the slot for a key the index has not held before, on
	// the next free heap page slot.
	newRow func() *Row
	// stats
	ioAccesses atomic.Int64
	ioMisses   atomic.Int64
}

// NewTable creates an empty heap named name.
func NewTable(name string, cfg Config) *Table {
	t := &Table{name: name, cfg: cfg, index: btree.NewOf[*Row](), latches: newLatchTable()}
	t.newRow = func() *Row { return &Row{page: t.pageSeq.Add(1) / TuplesPerPage} }
	return t
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Index returns the table's primary B+-tree, for callers that lock its
// leaf pages without reading through them (the S2PL paths).
func (t *Table) Index() *btree.Tree[*Row] { return t.index }

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

// traceRead fires the trace seam's Read point, if one is set.
func (t *Table) traceRead(self mvcc.TxID, key string) {
	if f := t.cfg.Trace; f != nil {
		f(trace.Event{Point: trace.Read, XID: uint64(self), Table: t.name, Key: key})
	}
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
	t.Read(key, snap, self, mgr, nil, false, func(res ReadResult) error {
		out = res
		return nil
	})
	return out
}

// Read performs a visibility-checked read of key and invokes fn with the
// result — if latched is true, while holding the read latch (shared
// mode) of the row's heap page. It makes exactly one index descent:
// onLeaf, if non-nil, is invoked under the tree lock with the leaf page
// that holds (or would hold) key, which is where a serializable caller
// takes its SIREAD gap lock (btree.Lookup explains why there), and the row
// the descent arrives at is the one read. A key the index has never held
// has no page and so no latch: the phantom protection for absent keys is
// that gap lock, taken before the row is looked at. fn is where a
// serializable caller inserts its tuple SIREAD lock: doing so under the
// latch makes the visibility check and the lock insertion one atomic step
// relative to Update/Delete, which stamp xmax and probe the SIREAD table
// under the same latch, exclusively. Read returns fn's error.
//
// Callers that register nothing in fn (non-serializable reads) pass
// latched=false and skip the latch entirely — they cannot lose an
// rw-antidependency because they never carry one.
//
// fn must not call back into this table (the latch is not reentrant) and
// must not block on other transactions; lock-manager work (mutex-only)
// is fine per the ordering rules in latch.go.
func (t *Table) Read(key string, snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, onLeaf func(btree.PageID), latched bool, fn func(ReadResult) error) error {
	t.simulateIO()
	row, _, _ := t.index.Lookup(key, onLeaf)
	var res ReadResult
	if row != nil {
		if latched {
			latch := t.latches.latch(row.page)
			latch.RLock()
			defer latch.RUnlock()
		}
		res.Page = row.page
		row.mu.Lock()
		res.Tuple = row.visible(snap, self, mgr, &res.ConflictOut)
		row.mu.Unlock()
	}
	t.traceRead(self, key)
	return fn(res)
}

// BatchItem is one visible row within a heap-page group a tracked scan
// hands to its onPage callback.
type BatchItem struct {
	Key   string
	Tuple *Tuple
}

// Leaf is one batch of a scan's results: keys in order, with the version
// of each that the snapshot sees. The scan reuses it for the next batch;
// the Tuples themselves may be kept.
type Leaf struct {
	Keys []string
	// Vis parallels Keys: the visible version, or nil.
	Vis []*Tuple
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
// With an onPage callback (a tracked, i.e. SIREAD-registering, scan) the
// rows are taken in runs of consecutive rows that share a heap page — a
// row's page never changes, so the runs are known before any row is
// looked at. Per run the page's read latch is taken in shared mode, each
// row is resolved once under it, and onPage is invoked with the run's
// visible rows before the latch is released: exactly one {visibility
// check, SIREAD registration} critical section per run, never spanning
// pages, which is what lets the caller register a run's locks in one
// core.AcquireTupleLockBatch call with the PR 2 invariant intact. Rows
// with no visible version are not passed to onPage (their protection is
// the index gap lock). Batch boundaries are the index's, not the heap's,
// so a scan (Table.Scan) holds the run a batch ends on over to the next
// batch, unresolved: a run is registered in one onPage call wherever the
// leaves divide it. Without onPage nothing is latched and nothing held
// over: such readers register nothing, so they have nothing to lose to
// the window the latch closes.
type Reader struct {
	t      *Table
	snap   *mvcc.Snapshot
	self   mvcc.TxID
	mgr    *mvcc.Manager
	onPage func(page int64, items []BatchItem) error
	leaf   Leaf
	look   []*Row // ReadKeys' lookups
	items  []BatchItem
	// Tracked scans: the rows in hand — the run held over first, then
	// the batch — as keys, rows and vis in parallel (keys and vis are
	// handed out through leaf); the first cut of them were delivered by
	// the last call.
	keys []string
	rows []*Row
	vis  []*Tuple
	cut  int
}

// NewReader returns a Reader for one scan at snap by transaction self.
func (t *Table) NewReader(snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, onPage func(page int64, items []BatchItem) error) *Reader {
	rd := &Reader{t: t, snap: snap, self: self, mgr: mgr, onPage: onPage}
	if onPage == nil {
		rd.leaf.Vis = make([]*Tuple, 0, btree.MaxLeaf)
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
		row, _, _ := rd.t.index.Lookup(k, nil)
		rd.look = append(rd.look, row)
	}
	return rd.read(keys, rd.look, true)
}

// read resolves one batch. rows parallels keys; a nil row is a key the
// index has never held. final says no batch follows, so a tracked scan
// holds nothing over.
func (rd *Reader) read(keys []string, rows []*Row, final bool) (*Leaf, error) {
	lf := &rd.leaf
	lf.ConflictOut = lf.ConflictOut[:0]
	if rd.onPage != nil {
		return lf, rd.readTracked(keys, rows, final)
	}
	lf.Keys = keys
	lf.Vis = lf.Vis[:len(keys)]
	clear(lf.Vis)
	t := rd.t
	page := int64(-1)
	for i, row := range rows {
		if row != nil {
			lf.Vis[i] = rd.visible(row)
			// Consecutive keys usually share heap pages: IO is charged per
			// page run, not per row.
			if lf.Vis[i] != nil && row.page != page {
				page = row.page
				t.simulateIO()
			}
		}
		t.traceRead(rd.self, keys[i])
	}
	return lf, nil
}

// visible resolves one row, adding its conflict-out set to the batch's.
func (rd *Reader) visible(row *Row) *Tuple {
	row.mu.Lock()
	v := row.visible(rd.snap, rd.self, rd.mgr, &rd.leaf.ConflictOut)
	row.mu.Unlock()
	return v
}

// readTracked is read for a tracked scan. The rows in hand are the run
// the last batch held over followed by this batch's; they are taken run
// by run (see Reader), and everything resolved is handed out through
// rd.leaf. Unless the batch is final, the run its last row belongs to
// gets no pass yet: the next batch may continue it, and a run is to be
// registered once. It stays in hand, unresolved — at most a page's
// TuplesPerPage slots.
//
// Lock order is latch before row, blocking on both (latch.go): no row
// lock is held while a latch is awaited.
func (rd *Reader) readTracked(keys []string, rows []*Row, final bool) error {
	t := rd.t
	// What the last call handed out goes; what it held over moves up.
	n := copy(rd.keys, rd.keys[rd.cut:])
	copy(rd.rows, rd.rows[rd.cut:])
	rd.keys = append(rd.keys[:n], keys...)
	rd.rows = append(rd.rows[:n], rows...)
	n = len(rd.rows)
	cut := n
	if !final {
		// Only ReadKeys, which is always final, has nil rows.
		for cut > 0 && rd.rows[cut-1].page == rd.rows[n-1].page {
			cut--
		}
	}
	rd.vis = slices.Grow(rd.vis[:0], cut)[:cut]
	for i := 0; i < cut; {
		if rd.rows[i] == nil {
			rd.vis[i] = nil
			t.traceRead(rd.self, rd.keys[i])
			i++
			continue
		}
		page := rd.rows[i].page
		t.simulateIO()
		latch := t.latches.latch(page)
		latch.RLock()
		items := rd.items[:0]
		for ; i < cut && rd.rows[i] != nil && rd.rows[i].page == page; i++ {
			v := rd.visible(rd.rows[i])
			rd.vis[i] = v
			t.traceRead(rd.self, rd.keys[i])
			if v != nil {
				items = append(items, BatchItem{Key: rd.keys[i], Tuple: v})
			}
		}
		rd.items = items
		var err error
		if len(items) > 0 {
			err = rd.onPage(page, items)
		}
		latch.RUnlock()
		if err != nil {
			return err
		}
	}
	rd.cut = cut
	rd.leaf.Keys, rd.leaf.Vis = rd.keys[:cut], rd.vis[:cut]
	return nil
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
func (t *Table) Scan(lo, hi string, snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, onLeaf func(btree.PageID), onPage func(page int64, items []BatchItem) error, deliver func(*Leaf) (more bool, err error)) error {
	rd := t.NewReader(snap, self, mgr, onPage)
	more := true
	var err error
	step := func(keys []string, rows []*Row, final bool) bool {
		var lf *Leaf
		if lf, err = rd.read(keys, rows, final); err == nil {
			more, err = deliver(lf)
		}
		more = more && err == nil
		return more
	}
	t.index.Leaves(lo, hi, onLeaf, func(keys []string, rows []*Row) bool {
		return step(keys, rows, false)
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
	row, leaf, _, splits := t.index.GetOrInsert(key, t.newRow)
	// The loop leaves with the row locked and older set to the dead
	// chain the new version goes on top of (nil for a fresh key).
	var older *Tuple
	for {
		row.mu.Lock()
		older = row.pruneAborted(mgr)
		if older == nil {
			break
		}
		// Some version chain exists. Determine whether the newest
		// version is live for us or for a concurrent transaction.
		head := older
		if head.Xmin == xid && head.Xmax == xid {
			// We deleted our own version earlier; re-inserting is
			// allowed and creates a fresh version.
			break
		}
		st, seq := head.minStatus(mgr)
		if st == mvcc.StatusInProgress && head.Xmin != xid {
			holder := head.Xmin
			row.mu.Unlock()
			if err := t.waitFor(xid, holder, mgr, wg); err != nil {
				return WriteResult{}, err
			}
			continue
		}
		// Creator committed (or is us). Is the row currently deleted?
		if row.visible(snap, xid, mgr, nil) != nil {
			row.mu.Unlock()
			return WriteResult{}, ErrDuplicateKey
		}
		if head.Xmax == 0 && st == mvcc.StatusCommitted && !snap.SeesCommitted(seq) {
			// A concurrent transaction inserted the key and
			// committed: unique violation even though we cannot
			// see the row.
			row.mu.Unlock()
			return WriteResult{}, ErrDuplicateKey
		}
		if head.Xmax != 0 && head.Xmax != xid {
			if xst, _ := head.maxStatus(mgr); xst == mvcc.StatusInProgress {
				holder := head.Xmax
				row.mu.Unlock()
				if err := t.waitFor(xid, holder, mgr, wg); err != nil {
					return WriteResult{}, err
				}
				continue
			}
		}
		// Row is dead for everyone relevant: safe to create anew.
		break
	}
	rewrite := older != nil && (older.Xmin == xid || older.Xmax == xid)
	row.head = &Tuple{Key: key, Value: value, Xmin: xid, SubMin: subID, Older: older}
	row.mu.Unlock()
	return WriteResult{Page: row.page, IndexPage: leaf, Splits: splits, Rewrite: rewrite}, nil
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
// latch.go). A check error is returned as Update's error; the stamp is
// not undone — the caller is expected to abort the transaction, after
// which readers see the stamp and the new version as aborted and the
// next write of the row drops them.
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
	row, _, _ := t.index.Lookup(key, nil)
	if row == nil {
		return WriteResult{}, ErrNotFound
	}
	// The row's page latch is taken exclusively (readers share it) before
	// the row lock — the blocking order, latch.go — and held from the
	// write decision through the stamp to the end of the caller's check,
	// so no reader of this page can put its visibility check between the
	// stamp and the SIREAD probe. It is dropped with the row lock on every
	// exit and before every wait.
	latch := t.latches.latch(row.page)
	unlock := func() {
		row.mu.Unlock()
		latch.Unlock()
	}
	fail := func(err error) (WriteResult, error) {
		unlock()
		return WriteResult{}, err
	}
	wait := func(holder mvcc.TxID) error {
		unlock()
		return t.waitFor(xid, holder, mgr, wg)
	}
	for {
		latch.Lock()
		row.mu.Lock()
		head := row.pruneAborted(mgr)
		if head == nil {
			return fail(ErrNotFound)
		}
		// If the newest version belongs to an in-progress concurrent
		// transaction, that transaction holds the tuple write lock.
		st, seq := head.minStatus(mgr)
		if head.Xmin != xid && st == mvcc.StatusInProgress {
			if err := wait(head.Xmin); err != nil {
				return WriteResult{}, err
			}
			continue
		}
		v := row.visible(snap, xid, mgr, nil)
		if v == nil {
			// Nothing visible. If a concurrent committed
			// transaction owns the newest version, this is a
			// first-updater-wins conflict; otherwise the row is
			// simply absent.
			if head.Xmin != xid && st == mvcc.StatusCommitted && !snap.SeesCommitted(seq) {
				return fail(ErrWriteConflict)
			}
			if head.Xmax != 0 && head.Xmax != xid {
				if xst, xseq := head.maxStatus(mgr); xst == mvcc.StatusCommitted && !snap.SeesCommitted(xseq) {
					return fail(ErrWriteConflict)
				}
			}
			return fail(ErrNotFound)
		}
		if v != head {
			// A newer version exists that we cannot see: it was
			// created by a concurrent transaction. Its creator is
			// committed (in-progress creators were handled above),
			// so first-updater-wins rejects us.
			return fail(ErrWriteConflict)
		}
		if v.Xmax != 0 && v.Xmax != xid {
			switch xst, _ := v.maxStatus(mgr); xst {
			case mvcc.StatusInProgress:
				if err := wait(v.Xmax); err != nil {
					return WriteResult{}, err
				}
				continue
			case mvcc.StatusCommitted:
				// Concurrent delete/update committed while we
				// were deciding: conflict.
				return fail(ErrWriteConflict)
			case mvcc.StatusAborted:
				v.setXmax(0, 0)
			}
		}
		// We hold the tuple: stamp xmax and (for updates) put the new
		// version on top, on the same page. v is visible and the head,
		// so xid has not deleted it: the write supersedes one of xid's
		// own exactly when xid created v.
		wr := WriteResult{Page: row.page, Rewrite: v.Xmin == xid}
		v.setXmax(xid, subID)
		if !del {
			row.head = &Tuple{Key: key, Value: value, Xmin: xid, SubMin: subID, Older: v}
		}
		// Pruning on write: the superseded version is the newest one any
		// snapshot can still need, so whatever lies below the newest
		// all-visible version at or under it goes now.
		if h := mgr.Horizon(); h != mvcc.InvalidSeqNo {
			trimBelow(v, h, mgr)
		}
		row.mu.Unlock()
		var err error
		if check != nil {
			err = check(wr)
		}
		latch.Unlock()
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
// (§7.3), and with subID 0 for every key in the write set of a
// transaction that rolls back, so an abort leaves no version behind for
// readers to step over. It is a no-op for keys the (sub)transaction did
// not touch.
func (t *Table) UndoSubxact(key string, xid mvcc.TxID, subID int32) {
	row, _, _ := t.index.Lookup(key, nil)
	if row == nil {
		return
	}
	row.mu.Lock()
	defer row.mu.Unlock()
	head := row.head
	// Unlink versions created by (xid, >=subID) from the head of the
	// chain. Only our own uncommitted versions can sit above committed
	// ones, so scanning from the head suffices.
	for head != nil && head.Xmin == xid && head.SubMin >= subID {
		head = head.Older
	}
	row.head = head
	if head != nil && head.Xmax == xid && head.SubMax >= subID {
		head.setXmax(0, 0)
	}
}

// ForEach invokes fn for every row visible to snap, in key order. It
// returns the union of conflict-out transactions observed. Full-table
// (sequential) scans go through this path; it is Scan without the
// callbacks a tracked index scan needs.
func (t *Table) ForEach(snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, fn func(tu *Tuple) bool) []mvcc.TxID {
	var conflicts []mvcc.TxID
	t.Scan("", "", snap, self, mgr, nil, nil, func(lf *Leaf) (bool, error) {
		conflicts = append(conflicts, lf.ConflictOut...)
		for _, v := range lf.Vis {
			if v != nil && !fn(v) {
				return false, nil
			}
		}
		return true, nil
	})
	return conflicts
}

// Len returns the number of row slots in the heap: every key the table
// has ever held, live or dead.
func (t *Table) Len() int { return t.index.Len() }

// Vacuum removes versions that can no longer be seen by any snapshot at
// or above horizon (mvcc.Manager.OldestSnapshot): versions superseded by
// one committed at or below the horizon, and aborted detritus. It
// returns the number of versions removed. A row whose last version goes
// keeps its (empty) slot in the index.
func (t *Table) Vacuum(horizon mvcc.SeqNo, mgr *mvcc.Manager) int {
	removed := 0
	t.index.Leaves("", "", nil, func(_ []string, rows []*Row) bool {
		for _, row := range rows {
			row.mu.Lock()
			removed += row.vacuum(horizon, mgr)
			row.mu.Unlock()
		}
		return true
	})
	return removed
}

// vacuum is Vacuum for one row. Caller holds r.mu.
func (r *Row) vacuum(horizon mvcc.SeqNo, mgr *mvcc.Manager) (removed int) {
	head := r.pruneAborted(mgr)
	if head == nil {
		return 0
	}
	for v := trimBelow(head, horizon, mgr); v != nil; v = v.Older {
		removed++
	}
	// If the sole remaining version is a committed delete visible to
	// everyone, the row is gone.
	if head.Older == nil && head.Xmax != 0 {
		if st, seq := head.maxStatus(mgr); st == mvcc.StatusCommitted && seq <= horizon {
			r.head = nil
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
	row, _, _ := t.index.Lookup(key, nil)
	if row == nil {
		return fmt.Sprintf("%s: no slot", key)
	}
	stamp := func(xid mvcc.TxID, cached fate) string {
		if xid == 0 {
			return "-"
		}
		st, seq := mgr.Status(xid)
		return fmt.Sprintf("%d(log %v@%d, cached %v)", xid, st, seq, cached)
	}
	row.mu.Lock()
	defer row.mu.Unlock()
	out := fmt.Sprintf("%s (page %d):", key, row.page)
	for v := row.head; v != nil; v = v.Older {
		out += fmt.Sprintf("\n    %x xmin %s xmax %s", v.Value, stamp(v.Xmin, v.minFate), stamp(v.Xmax, v.maxFate))
	}
	return out
}

// String implements fmt.Stringer for debugging.
func (t *Table) String() string {
	return fmt.Sprintf("table %s (%d rows)", t.name, t.Len())
}
