// Package btree implements a B+-tree over string keys with stable leaf
// page identifiers and a typed leaf payload. The SSI lock manager
// (internal/core) takes SIREAD locks on the leaf pages a scan visits —
// PostgreSQL 9.1's page-granular index-range locking (§5.2.1) — so the
// tree reports which leaf pages each operation touched, and page splits
// are surfaced to the caller so predicate locks can be propagated to the
// new right sibling, mirroring PredicateLockPageSplit.
//
// The payload is what makes the tree the engine's only index over a
// table's rows: a table's primary tree is a Tree[storage.TID], whose leaf
// entry names the row's slot on its heap page, so a point read is one
// descent and a range scan never leaves the leaves. Secondary indexes are
// Tree[string] (New), mapping an index entry to the primary key it names.
//
// Keys are unique. Non-unique secondary indexes are built by suffixing
// the primary key onto the index key, the standard composite-key trick.
// Entries are never removed and leaves never merged: a dead row keeps
// its slot (visibility filters it), which is what lets a TID outlive the
// tree lock and a leaf walk resume from a next pointer.
//
// A leaf keeps its keys inline, as nbtree does on an index page, with no
// pointer per key: their bytes lie end to end, in key order, in the
// leaf's arena, and each entry holds where its key starts next to its
// payload (the key ends where the next one starts). For a table's tree
// the arena and the entries hold no pointer at all, so the collector
// marks a leaf's three objects and scans none of its keys. The arena is
// also the key's one home: the heap stores no copy. Range and Leaves
// hand keys out as strings that view the arena, under one rule —
// a byte of an arena, once written, is never written again. An insert
// that ends the leaf appends past the arena's length, where no view can
// reach; a middle insert copies the leaf's keys into a fresh arena with
// the new key in place; a split leaves the left half its arena cut to its
// own bytes (kb[:o:o], so its next append moves it elsewhere) and gives
// the right half a fresh one. So a view stays valid, and unchanged, for
// as long as anyone holds it, and keeps its arena alive that long. The
// separators of internal nodes are kept as strings; one that a leaf split
// made is a view into the new right leaf's arena.
//
// For the absent-key/gap case the tree lock itself plays the role the
// heap page latch (internal/storage/latch.go) plays for heap
// tuples: Lookup, Range and Leaves invoke their onPage callback — where
// the engine takes the leaf-page SIREAD gap lock — while the tree lock
// is held, and before the rows are read, so an insert (which runs its
// CheckIndexInsert probe after its tree write and after linking its
// version) either sees the gap lock or has already placed its version
// where the reader's visibility check reports it as a conflict. There is
// no check-then-register window on the gap path.
//
// Leaves is the streaming form of Range: it holds the tree lock only
// while it locks and copies out a leaf (or two small ones), and hands the
// copy to the caller with the lock released, so a scan's per-row work (visibility,
// SIREAD registration, delivery) never runs under the tree lock and a
// scan that stops early has touched — and locked — only the leaves it
// reached.
package btree

import (
	"slices"
	"sort"
	"sync"
	"unsafe"
)

// degree is the maximum number of keys per node; nodes split when they
// exceed it. Chosen small enough that realistic tables span many leaf
// pages, giving page-granularity locking something to do.
const degree = 64

// MaxLeaf is the largest number of entries one leaf holds, and so the
// largest batch Leaves hands to its callback.
const MaxLeaf = degree

// PageID identifies a leaf page. IDs are never reused.
type PageID int64

// Split records that a leaf page split during an insert: locks held on
// Left must be duplicated onto Right (PredicateLockPageSplit).
type Split struct {
	Left, Right PageID
}

// entry is a leaf entry: where its key starts in the leaf's arena, and
// its payload.
type entry[V any] struct {
	off uint32
	val V
}

type node[V any] struct {
	// seps are an internal node's separator keys; nil in a leaf.
	seps []string
	// children is nil for leaves.
	children []*node[V]
	// kb is a leaf's key arena: its keys' bytes end to end in key order.
	// A byte of it is never written twice (see the package comment).
	kb []byte
	// ents are a leaf's entries, in key order.
	ents []entry[V]
	// next links leaves left-to-right. Leaves are never merged or
	// freed, and a split only moves entries to a new right sibling, so
	// a next pointer read under the lock stays a valid resume point
	// after the lock is dropped (see Leaves).
	next *node[V]
	// page is the leaf page ID; zero for internal nodes.
	page PageID
}

func (n *node[V]) leaf() bool { return n.children == nil }

// width is the number of keys n holds: entries in a leaf, separators in
// an internal node.
func (n *node[V]) width() int {
	if n.leaf() {
		return len(n.ents)
	}
	return len(n.seps)
}

// key returns leaf n's i'th key, as a view into its arena.
func (n *node[V]) key(i int) string {
	lo, hi := n.ents[i].off, uint32(len(n.kb))
	if i+1 < len(n.ents) {
		hi = n.ents[i+1].off
	}
	if lo == hi {
		return ""
	}
	return unsafe.String(&n.kb[lo], hi-lo)
}

// search returns the first position at or after from whose key is not
// below key in leaf n, len(n.ents) if there is none.
func (n *node[V]) search(from int, key string) int {
	lo, hi := from, len(n.ents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n.key(m) < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// add puts key → val at position i of leaf n. A key that goes last is
// appended past the arena's length; any other gets a fresh arena, with
// the keys from i on moved up to make room, so no byte a view may cover
// is written. Caller holds the tree lock exclusively.
func (n *node[V]) add(i int, key string, val V) {
	off := uint32(len(n.kb))
	if i < len(n.ents) {
		off = n.ents[i].off
		kb := make([]byte, 0, len(n.kb)+len(key))
		kb = append(kb, n.kb[:off]...)
		kb = append(kb, key...)
		n.kb = append(kb, n.kb[off:]...)
		for j := i; j < len(n.ents); j++ {
			n.ents[j].off += uint32(len(key))
		}
	} else {
		n.kb = append(n.kb, key...)
	}
	n.ents = slices.Insert(n.ents, i, entry[V]{off: off, val: val})
}

// Tree is a concurrency-safe B+-tree whose leaf entries carry a V. A
// single RWMutex guards the whole tree; PostgreSQL's per-page latching
// is unnecessary here because the interesting concurrency control
// happens a level up. The tree lock is a leaf with respect to the
// storage layer's locks: no page latch is ever taken while it is held
// (onPage callbacks take internal/core locks only).
type Tree[V any] struct {
	mu   sync.RWMutex //ssi:lock level=10 name=btree.tree
	root *node[V]
	// rightmost is the last leaf of the chain, guarded by mu like the
	// rest of the tree. A key above its last key belongs on it, so
	// Lookup answers such a key and Insert/GetOrInsert append it there
	// without a descent while the leaf has room: an ascending load pays
	// an append per row, as on nbtree's rightmost-leaf fastpath.
	rightmost *node[V]
	nextPage  PageID
	size      int
}

// New returns an empty tree with string payloads (secondary indexes).
func New() *Tree[string] { return NewOf[string]() }

// NewOf returns an empty tree with payload type V.
func NewOf[V any]() *Tree[V] {
	t := &Tree[V]{nextPage: 1}
	t.root = &node[V]{page: t.allocPage()}
	t.rightmost = t.root
	return t
}

func (t *Tree[V]) allocPage() PageID {
	p := t.nextPage
	t.nextPage++
	return p
}

// Len returns the number of entries.
func (t *Tree[V]) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// descend returns the leaf that holds (or would hold) key. Caller holds
// the tree lock.
func (t *Tree[V]) descend(key string) *node[V] {
	n := t.root
	for !n.leaf() {
		n = n.children[childIndex(n.seps, key)]
	}
	return n
}

// leafFor is descend with the right-edge shortcut: a key above the
// rightmost leaf's last key is past every separator on the tree's right
// spine, so a descent would end on that leaf too. (The rightmost leaf is
// empty only in an empty tree, where it is the root.) Caller holds the
// tree lock.
func (t *Tree[V]) leafFor(key string) *node[V] {
	if r := t.rightmost; r.above(key) {
		return r
	}
	return t.descend(key)
}

// above reports whether key sorts after every key of leaf n.
func (n *node[V]) above(key string) bool {
	return len(n.ents) == 0 || key > n.key(len(n.ents)-1)
}

// Lookup returns the value stored under key and the leaf page that holds
// (or would hold) the key. The page is returned even on a miss so the
// caller can SIREAD-lock the gap and detect phantom inserts.
//
// If onPage is non-nil it is invoked with the leaf page while the tree
// lock is still held. Acquiring the SIREAD gap lock inside the callback
// closes the race in which an insert lands on the page (and runs its
// conflict check) between the lookup and the lock acquisition — the
// moral equivalent of PostgreSQL acquiring the predicate lock while
// holding the index page latch.
func (t *Tree[V]) Lookup(key string, onPage func(PageID)) (val V, ok bool, page PageID) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.leafFor(key)
	if onPage != nil {
		onPage(n.page)
	}
	if i := n.search(0, key); i < len(n.ents) && n.key(i) == key {
		return n.ents[i].val, true, n.page
	}
	return val, false, n.page
}

// Insert stores key → val, replacing any existing value — the secondary
// indexes' way in (a table's rows go through GetOrInsert, which never
// replaces). It returns the leaf page that received the entry, whether
// the key was newly added, and any splits performed (leaf splits first,
// so callers can propagate predicate locks).
func (t *Tree[V]) Insert(key string, val V) (page PageID, added bool, splits []Split) {
	_, page, added, splits = t.put(key, val, nil)
	return page, added, splits
}

// GetOrInsert returns the value stored under key, storing what mk()
// returns first if the key is absent — the find-or-create a table uses
// for a key's row slot, whose identity must never change once handed
// out. mk is called (under the tree lock) only when the key is absent.
// The other results are Insert's.
func (t *Tree[V]) GetOrInsert(key string, mk func() V) (got V, page PageID, added bool, splits []Split) {
	var zero V
	return t.put(key, zero, mk)
}

// put stores val under key, replacing what is there (mk nil), or finds
// key's value, storing mk's if there is none (mk non-nil).
func (t *Tree[V]) put(key string, val V, mk func() V) (got V, page PageID, added bool, splits []Split) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.rightmost; r.above(key) && len(r.ents) < degree {
		// The append a descent would make, without the descent: the key
		// goes last on the rightmost leaf, which has room, so nothing
		// splits. A full leaf takes the descent below, the one path
		// that splits.
		if mk != nil {
			val = mk()
		}
		r.add(len(r.ents), key, val)
		t.size++
		return val, r.page, true, nil
	}
	got, page, added, splits = t.insert(t.root, key, val, mk)
	if t.root.width() > degree {
		// Split the root: the old root becomes the left child.
		old := t.root
		mid, right, sp := t.splitNode(old)
		t.root = &node[V]{
			seps:     []string{mid},
			children: []*node[V]{old, right},
		}
		if sp != nil {
			splits = append(splits, *sp)
			if right.holds(key) {
				page = right.page
			}
		}
	}
	if added {
		t.size++
	}
	return got, page, added, splits
}

// holds reports whether leaf n contains key.
func (n *node[V]) holds(key string) bool {
	i := n.search(0, key)
	return i < len(n.ents) && n.key(i) == key
}

func (t *Tree[V]) insert(n *node[V], key string, val V, mk func() V) (V, PageID, bool, []Split) {
	if n.leaf() {
		i := n.search(0, key)
		if i < len(n.ents) && n.key(i) == key {
			if mk == nil {
				n.ents[i].val = val
			}
			return n.ents[i].val, n.page, false, nil
		}
		if mk != nil {
			val = mk()
		}
		n.add(i, key, val)
		return val, n.page, true, nil
	}
	ci := childIndex(n.seps, key)
	child := n.children[ci]
	got, page, added, splits := t.insert(child, key, val, mk)
	if child.width() > degree {
		mid, right, sp := t.splitNode(child)
		n.seps = slices.Insert(n.seps, ci, mid)
		n.children = slices.Insert(n.children, ci+1, right)
		if sp != nil {
			splits = append(splits, *sp)
			// The entry may have landed on the new right page.
			if page == sp.Left && right.holds(key) {
				page = right.page
			}
		}
	}
	return got, page, added, splits
}

// splitNode splits an over-full node in half, returning the separator
// key, the new right sibling, and (for leaves) the split record.
func (t *Tree[V]) splitNode(n *node[V]) (string, *node[V], *Split) {
	right := &node[V]{}
	if n.leaf() {
		mid := len(n.ents) / 2
		o := n.ents[mid].off
		moved := n.ents[mid:]
		// The right half gets a fresh arena and entries. A new rightmost
		// leaf is where an ascending load goes on appending, so it gets
		// room for a full leaf of keys as long as these.
		kcap, ecap := len(n.kb)-int(o), len(moved)
		if n == t.rightmost {
			kcap, ecap = kcap*(degree+1)/len(moved), degree+1
			t.rightmost = right
		}
		right.page = t.allocPage()
		right.kb = append(make([]byte, 0, kcap), n.kb[o:]...)
		right.ents = make([]entry[V], len(moved), ecap)
		for j, e := range moved {
			right.ents[j] = entry[V]{off: e.off - o, val: e.val}
		}
		// The left half keeps its bytes where they are, the arena cut
		// short so that no later append of its own writes over the
		// moved keys, which views may still cover.
		n.kb = n.kb[:o:o]
		n.ents = slices.Clone(n.ents[:mid])
		right.next = n.next
		n.next = right
		return right.key(0), right, &Split{Left: n.page, Right: right.page}
	}
	mid := len(n.seps) / 2
	sep := n.seps[mid]
	right.seps = append(right.seps, n.seps[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.seps = n.seps[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right, nil
}

// Range invokes fn for each entry with lo <= key < hi in ascending order
// (hi == "" means unbounded), visiting leaf pages up to and including the
// one containing the first key past the range — locking that page covers
// the gap beyond the last returned entry, which is what makes phantom
// inserts at the range boundary detectable. fn returning false stops the
// scan early. The tree lock is held throughout, so fn must be cheap and
// must not call back into the tree; scans that do real work per entry
// use Leaves.
//
// onPage, if non-nil, is invoked for each visited leaf page under the
// tree lock, before any of that page's entries are delivered; see Lookup
// for why gap locks must be taken there.
func (t *Tree[V]) Range(lo, hi string, onPage func(PageID), fn func(key string, val V) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for n := t.descend(lo); n != nil; n = n.next {
		if onPage != nil {
			onPage(n.page)
		}
		for i := n.search(0, lo); i < len(n.ents); i++ {
			k := n.key(i)
			if hi != "" && k >= hi {
				return
			}
			if !fn(k, n.ents[i].val) {
				return
			}
		}
	}
}

// Leaves is Range a leaf at a time, with the tree lock released around
// the caller's work: for each batch of leaves the range touches (same
// pages as Range, left to right) it takes the lock, invokes onPage for
// each leaf of the batch, copies their entries with lo <= key < hi, drops
// the lock and hands the copy (at most MaxLeaf entries, possibly none)
// to fn. A batch is one leaf, plus the leaves after it for as long as
// the whole of the next one still fits in MaxLeaf entries — sequential
// loading leaves leaves half full, and two of those make a batch the
// size of a heap page. fn returning false ends the walk at that batch:
// later leaves are neither read nor passed to onPage. The slices are
// reused for the next batch; fn must not keep them, but may keep the keys
// in them, which view their leaves' arenas (see the package comment).
//
// Entries inserted while the lock is down may be missed. That is sound
// for the snapshot readers this serves: such an entry's writer is
// concurrent with the reader, so the row is invisible to its snapshot
// anyway, and the rw-antidependency is caught by the writer's
// CheckIndexInsert against the page lock onPage took (a split copies
// that lock to the new sibling). No entry is delivered twice: splits
// only move entries to the right, and the walk only moves right.
func (t *Tree[V]) Leaves(lo, hi string, onPage func(PageID), fn func(keys []string, vals []V) bool) {
	keys := make([]string, 0, MaxLeaf)
	vals := make([]V, 0, MaxLeaf)
	t.mu.RLock()
	n := t.descend(lo)
	// Only the first leaf holds keys below lo: every later one lies past
	// a separator above lo, and a key is only ever placed by descent.
	i := n.search(0, lo)
	for {
		keys, vals = keys[:0], vals[:0]
		last := false
		for {
			if onPage != nil {
				onPage(n.page)
			}
			// Only the leaf whose last key reaches hi ends the range.
			j := len(n.ents)
			if hi != "" && j > 0 && n.key(j-1) >= hi {
				j = n.search(i, hi)
				last = j < len(n.ents)
			}
			for ; i < j; i++ {
				keys = append(keys, n.key(i))
				vals = append(vals, n.ents[i].val)
			}
			i = 0
			n = n.next
			if n == nil {
				last = true
			}
			if last || len(keys)+len(n.ents) > MaxLeaf {
				break
			}
		}
		t.mu.RUnlock()
		if !fn(keys, vals) || last {
			return
		}
		t.mu.RLock()
	}
}

// childIndex returns the child slot to descend into for key.
func childIndex(keys []string, key string) int {
	// Child i holds keys in [keys[i-1], keys[i]); descend right on
	// equality so leaf separator invariants hold.
	return sort.Search(len(keys), func(i int) bool { return key < keys[i] })
}

// CheckInvariants verifies ordering, fanout, and leaf-chain consistency,
// including that the cached rightmost leaf is the last leaf of the chain
// and of the tree's right spine, returning a description of the first
// violation found, or "". It exists for the property-based tests.
func (t *Tree[V]) CheckInvariants() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if msg := checkNode(t.root, "", ""); msg != "" {
		return msg
	}
	first, spine := t.root, t.root
	for !first.leaf() {
		first, spine = first.children[0], spine.children[len(spine.children)-1]
	}
	last := first
	for last.next != nil {
		if last.key(len(last.ents)-1) >= last.next.key(0) {
			return "leaf chain out of order"
		}
		last = last.next
	}
	switch {
	case last != spine:
		return "leaf chain does not end at the right spine's leaf"
	case t.rightmost != last:
		return "cached rightmost leaf is not the last leaf"
	}
	return ""
}

func checkNode[V any](n *node[V], lo, hi string) string {
	if n.width() > degree {
		return "node exceeds degree"
	}
	keys := n.seps
	if n.leaf() {
		keys = make([]string, len(n.ents))
		for i, e := range n.ents {
			if e.off > uint32(len(n.kb)) || i > 0 && e.off < n.ents[i-1].off {
				return "leaf key offsets out of order or past the arena"
			}
			keys[i] = n.key(i)
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return "keys out of order"
		}
	}
	for _, k := range keys {
		if lo != "" && k < lo {
			return "key below subtree lower bound"
		}
		if hi != "" && k >= hi && n.leaf() {
			return "leaf key at or above subtree upper bound"
		}
	}
	if n.leaf() {
		if n.page == 0 {
			return "leaf missing page id"
		}
		return ""
	}
	if len(n.children) != len(n.seps)+1 {
		return "internal fanout mismatch"
	}
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = n.seps[i-1]
		}
		if i < len(n.seps) {
			chi = n.seps[i]
		}
		if msg := checkNode(c, clo, chi); msg != "" {
			return msg
		}
	}
	return ""
}
