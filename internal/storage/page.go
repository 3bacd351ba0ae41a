package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pgssi/internal/mvcc"
)

// This file holds the heap page: the line pointers, the version headers
// and the value arena of TuplesPerPage row slots, and what is done to
// them under the page's latch — visibility, trimming, pushing a version
// and compacting.

// TID names a row slot: the row's heap page and its slot on that page,
// packed as page*TuplesPerPage + slot. TIDs are handed out in slot
// creation order from 1, so TID 0 names no row and is what a lookup of
// an absent key returns. A slot is never freed, so a key's TID is stable
// for the row's life, like the root of a PostgreSQL HOT chain.
type TID uint64

// Page returns the heap page the slot is on.
func (id TID) Page() int64 { return int64(id / TuplesPerPage) }

// slot returns the slot's index on its page.
func (id TID) slot() int { return int(id % TuplesPerPage) }

// none marks the end of a version chain and an empty line pointer.
const none = -1

// maxFirstArena caps the arena a page's first version allocates.
const maxFirstArena = 64 << 10

// fate is the cached outcome of a version's xmin or xmax transaction.
// The zero value means "not resolved yet" (the transaction was still in
// progress the last time anybody looked, or nobody has looked).
type fate uint64

const (
	fateUnknown fate = iota
	// fateCommitted + CSN: committed with that commit sequence number;
	// fateCommitted alone (CSN InvalidSeqNo) is a commit the log had
	// already truncated when it was resolved, i.e. one every snapshot
	// sees.
	fateCommitted
)

// String renders a cached fate for DescribeRow.
func (f fate) String() string {
	if f == fateUnknown {
		return "unresolved"
	}
	return fmt.Sprintf("committed@%d", uint64(f-fateCommitted))
}

// load reads a cached fate. Readers settle fates under the shared page
// latch, the way PostgreSQL sets hint bits under a share lock, so two
// readers may store the same answer at once: their accesses are atomic.
// The field is a plain integer, not a sync/atomic type, because headers
// are copied whole, under the exclusive latch, when a page is compacted.
func (f *fate) load() fate { return fate(atomic.LoadUint64((*uint64)(f))) }

// resolve returns xid's status and commit CSN from the cache, consulting
// the commit log (and filling the cache) only while it is unresolved.
// The answer is committed or in progress: a transaction undoes its
// writes before it aborts, so no version names an aborted one, and one
// that does is a bug resolve will not read past. Caller holds the page
// latch, in either mode.
func (f *fate) resolve(xid mvcc.TxID, mgr *mvcc.Manager) (mvcc.Status, mvcc.SeqNo) {
	if c := f.load(); c >= fateCommitted {
		return mvcc.StatusCommitted, mvcc.SeqNo(c - fateCommitted)
	}
	st, seq := mgr.Status(xid)
	switch st {
	case mvcc.StatusCommitted:
		atomic.StoreUint64((*uint64)(f), uint64(fateCommitted)+uint64(seq))
	case mvcc.StatusAborted:
		panic(fmt.Sprintf("storage: a version names transaction %d, which aborted without undoing it", xid))
	}
	return st, seq
}

// header is one version of a row: the PostgreSQL tuple header bits that
// matter for visibility and SSI, and where the version's value lies in
// its page's arena. It holds no pointer, so a page's headers are one
// object the collector does not scan.
type header struct {
	// xmin is the transaction that created this version; xmax the one
	// that deleted or superseded it, zero while the version is live. An
	// in-progress xmax doubles as the tuple write lock.
	xmin, xmax mvcc.TxID
	// minFate and maxFate cache the fates of xmin and xmax (see fate).
	minFate, maxFate fate
	// subMin and subMax are the subtransaction IDs within xmin / xmax
	// that performed the write, for savepoint rollback (§7.3).
	subMin, subMax int32
	// older is the index of the row's previous version in the page's
	// headers, or none.
	older int32
	// off is where the value starts in the arena. Headers and values are
	// laid down in the same order, so it ends where the next header's
	// begins, or at the end of the arena.
	off uint32
}

// setXmax stamps (or, with xid zero, clears) the version's xmax. The
// cached fate described the previous stamp, so it goes with it. Caller
// holds the page latch exclusively.
func (v *header) setXmax(xid mvcc.TxID, subID int32) {
	v.xmax, v.subMax, v.maxFate = xid, subID, fateUnknown
}

// page is a heap page: TuplesPerPage row slots and every version of
// their rows. It keeps no keys: a row's key lives in the arena of its
// primary index leaf (internal/btree). Every field belongs to the latch:
// shared to read, exclusive to change.
// Readers copy out what they need under it — a value is captured as a
// slice of the arena — and keep no index or pointer into the headers
// once it is released. The two slices come first because the collector
// scans an object only up to its last pointer: the latch and the line
// pointers after them are never scanned.
type page struct {
	// hdrs are the versions of the page's rows, oldest pushed first.
	hdrs []header
	// arena holds the versions' values, in the order of hdrs. It is only
	// appended to: compact copies the live values into a fresh arena and
	// leaves the old one, still read through captured slices, as it was.
	arena []byte
	latch sync.RWMutex //ssi:lock level=10 name=storage.pageLatch
	// line maps a row slot to the index of its newest version in hdrs,
	// or none while the row has no version (or no slot yet).
	line [TuplesPerPage]int32
}

func newPage() *page {
	p := &page{hdrs: make([]header, 0, TuplesPerPage)}
	for i := range p.line {
		p.line[i] = none
	}
	return p
}

// value returns version i's value, as a slice of the arena whose capacity
// ends with it: an append to it cannot reach the next value. Never nil.
// Caller holds the latch.
func (p *page) value(i int32) []byte {
	end := uint32(len(p.arena))
	if int(i)+1 < len(p.hdrs) {
		end = p.hdrs[i+1].off
	}
	return p.arena[p.hdrs[i].off:end:end]
}

// visible walks slot's chain newest-first and applies PostgreSQL's
// visibility rules, returning the index of the version snap sees (none if
// none) and appending to *conflicts, if non-nil, the concurrent
// transactions whose writes to this row were invisible (see
// ReadResult.ConflictOut). Caller holds the latch.
func (p *page) visible(slot int, snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, conflicts *[]mvcc.TxID) int32 {
	for i := p.line[slot]; i != none; i = p.hdrs[i].older {
		v := &p.hdrs[i]
		if v.xmin == self {
			// Own write: visible unless we deleted it ourselves.
			if v.xmax == self {
				return none
			}
			return i
		}
		if st, seq := v.minFate.resolve(v.xmin, mgr); st == mvcc.StatusInProgress || !snap.SeesCommitted(seq) {
			// Created by a concurrent transaction, still running or
			// committed after our snapshot: invisible, and an rw
			// conflict out for serializable readers (the reader must
			// precede the writer).
			note(conflicts, v.xmin)
			continue
		}
		// v was created by a transaction visible to the snapshot.
		// Check its deletion status.
		if v.xmax == 0 {
			return i
		}
		if v.xmax == self {
			// Deleted by ourselves.
			return none
		}
		if xst, xseq := v.maxFate.resolve(v.xmax, mgr); xst == mvcc.StatusCommitted && snap.SeesCommitted(xseq) {
			// Deleted before our snapshot: row is gone.
			return none
		}
		// Deleted by a concurrent transaction, still running or
		// committed after our snapshot: still visible to us, and an rw
		// conflict out.
		note(conflicts, v.xmax)
		return i
	}
	return none
}

// read returns the value of the version of slot's row snap sees, nil if
// none; see visible. Caller holds the latch.
func (p *page) read(slot int, snap *mvcc.Snapshot, self mvcc.TxID, mgr *mvcc.Manager, conflicts *[]mvcc.TxID) []byte {
	if i := p.visible(slot, snap, self, mgr, conflicts); i != none {
		return p.value(i)
	}
	return nil
}

// note appends xid to a conflict-out list, if the reader keeps one.
func note(conflicts *[]mvcc.TxID, xid mvcc.TxID) {
	if conflicts != nil {
		*conflicts = append(*conflicts, xid)
	}
}

// trimBelow cuts the chain under the newest version, at or below i,
// whose creator committed at or before horizon: every present and future
// snapshot sees that version (or something newer), so nothing older can
// be read again. The walk passes only versions newer than the horizon, so
// it is as long as the row's recent history, not its whole one. It
// returns the newest version it cut off (none if none); the cut versions
// stay linked to each other until compact drops them. Caller holds the
// latch exclusively.
func (p *page) trimBelow(i int32, horizon mvcc.SeqNo, mgr *mvcc.Manager) int32 {
	for ; i != none && p.hdrs[i].older != none; i = p.hdrs[i].older {
		v := &p.hdrs[i]
		if st, seq := v.minFate.resolve(v.xmin, mgr); st == mvcc.StatusCommitted && seq <= horizon {
			cut := v.older
			v.older = none
			return cut
		}
	}
	return none
}

// push puts a new version of slot's row, holding value, on top of its
// chain. A page whose headers or arena are full is compacted first.
// Caller holds the latch exclusively.
func (p *page) push(slot int, v header, value []byte) {
	if p.arena == nil {
		// The first version sizes the arena for a page of values as long
		// as its own.
		p.arena = make([]byte, 0, min(len(value)*TuplesPerPage, maxFirstArena))
	}
	if len(p.hdrs) == cap(p.hdrs) || cap(p.arena)-len(p.arena) < len(value) {
		p.compact(len(value))
	}
	v.older = p.line[slot]
	v.off = uint32(len(p.arena))
	p.arena = append(p.arena, value...)
	p.hdrs = append(p.hdrs, v)
	p.line[slot] = int32(len(p.hdrs) - 1)
}

// compact copies the versions the line pointers still reach into fresh
// headers and a fresh arena, each with room for half as much again as
// what is copied and for one more version of need bytes, and drops the
// rest. The old arena is left untouched: readers may hold slices of it.
// The copying costs what the live versions occupy, and half that many
// pushes come before the next compaction, so a push costs O(1) amortised
// whether the page is growing or churning. Caller holds the latch
// exclusively.
func (p *page) compact(need int) {
	versions, bytes := 0, 0
	for _, i := range p.line {
		for ; i != none; i = p.hdrs[i].older {
			versions++
			bytes += len(p.value(i))
		}
	}
	hdrs := make([]header, 0, versions+versions/2+TuplesPerPage/8)
	arena := make([]byte, 0, bytes+bytes/2+need)
	for slot, i := range p.line {
		if i == none {
			continue
		}
		// Copied newest first, so each copy's older is the next one.
		p.line[slot] = int32(len(hdrs))
		for ; i != none; i = p.hdrs[i].older {
			v := p.hdrs[i]
			if v.older != none {
				v.older = int32(len(hdrs) + 1)
			}
			v.off = uint32(len(arena))
			arena = append(arena, p.value(i)...)
			hdrs = append(hdrs, v)
		}
	}
	p.hdrs, p.arena = hdrs, arena
}
