package storage

import "sync"

// This file implements the per-heap-page read latch table, the analogue
// of PostgreSQL's buffer content lock in the role it plays for SSI
// (§4.1, §5.2 of the paper): PostgreSQL holds the buffer page lock
// across the MVCC visibility check and the predicate-lock insertion, so
// a writer to the same page cannot slip its CheckForSerializableConflictIn
// probe between the two and miss the rw-antidependency. This engine has
// no buffer manager, so the latch table supplies the equivalent mutual
// exclusion directly.
//
// The table is sharded by page number into Config.LatchPartitions
// mutexes (hash-partitioned like the SIREAD lock table in
// internal/core/partition.go). Collisions between distinct pages only
// add mutual exclusion, never remove it, so the shard count is purely a
// concurrency knob.
//
// Protocol (see also the ordering rules in internal/core/partition.go):
//
//   - A serializable point reader (Table.Read with latched=true)
//     computes the visibility result under the row lock, acquires the
//     latch of the page holding the visible version in shared mode while
//     still holding the row lock, releases the row lock, and runs the
//     caller's callback — which inserts the SIREAD lock and flags MVCC
//     conflicts — before releasing the latch. A serializable scan
//     (Reader with an onPage callback) goes the other way round, one
//     heap page at a time: it takes the page's latch in shared mode
//     first, resolves every row of its batch that lives on that page
//     under it (row lock taken and dropped per row), and registers the
//     page's SIREAD locks in its callback before releasing the latch.
//     Readers that register no SIREAD lock (read committed, repeatable
//     read, S2PL, safe snapshots) skip the latch: they have no
//     registration to make atomic, so they cannot lose an
//     rw-antidependency to the window.
//   - A writer (Table.Update / Table.Delete) acquires the latch of the
//     page holding the version it is about to supersede in exclusive
//     mode while holding the row lock, stamps xmax (and links the new
//     version), releases the row lock, and runs the caller's
//     write-check callback — which probes the SIREAD table
//     (core.CheckWrite) — before releasing the latch.
//
// The invariant this buys: a reader of the current HEAD version and a
// writer superseding that same version latch the same page, so their
// critical sections serialize — if the read ran first, the writer's
// probe finds the SIREAD lock; if the write ran first, the reader's
// visibility check sees the stamped xmax and reports the writer in
// ReadResult.ConflictOut. That head-version case is the only one the
// latch needs to close. A reader whose older snapshot sees a non-head
// version V1 latches V1's page, not the head's, and a concurrent writer
// W superseding head V2 is indeed not serialized against it — but that
// reader's rw-antidependency is to V2's creator (the writer of the
// *next* version of what it read), which its chain walk already reports
// in ConflictOut from the MVCC data alone; any cycle through the
// unflagged reader→W path also runs through the flagged reader→creator
// edge and the ww order creator→W, so nothing detectable is lost.
// Either way every rw-antidependency is seen by at least one side,
// which is the property the paper's correctness argument requires.
//
// Lock ordering: index tree lock, then page latch, then row lock, then
// (from a callback, with no row lock held) the SSI locks of
// internal/core. The tree lock (internal/btree) is never held while a
// latch or a row lock is taken: descents and leaf walks copy the row
// slots out and drop it first. A goroutine holds at most one row lock
// and at most one page latch, and no code path acquires a storage-layer
// lock while holding any internal/core lock, so the combined order is
// acyclic. The blocking order between the two storage locks is latch
// before row — the order a scan needs, which holds one page's latch
// while it visits that page's rows. The point-read and write paths come
// at it from the row, so while holding a row lock they may only
// try-acquire a latch; on failure the row lock is released, the latch
// is awaited with nothing held, and the operation revalidates (Read
// recomputes the visibility result, modify redoes its write decision).
// That is also what keeps one contended page from stalling a row's
// other readers, and what makes the latch-before-row reacquisition in
// Read's retry path deadlock-free.

// defaultLatchPartitions is the default page-latch shard count per table.
const defaultLatchPartitions = 64

// Hooks are test-only interleaving hooks injected through Config. They
// let a deterministic test park a goroutine inside a critical window
// that normal scheduling would hit only probabilistically.
type Hooks struct {
	// OnRead is invoked by Table.Read after the MVCC visibility check
	// and before the result is delivered to the caller's callback
	// (where the SIREAD lock is inserted). With the page latch enabled
	// the hook runs while the latch is held, so a paused reader
	// excludes writers to the page; with DisableReadLatch it runs in
	// the open detection window the latch exists to close.
	OnRead func(table, key string)
}

// latchTable is one table's page-latch shard array. Latches are
// reader/writer locks, mirroring PostgreSQL's BUFFER_LOCK_SHARE /
// BUFFER_LOCK_EXCLUSIVE discipline: concurrent readers of one page
// (each registering its own SIREAD lock — thread-safe in the
// partitioned lock table) share the latch, while a writer stamping a
// version on the page takes it exclusively. Reader-vs-reader exclusion
// would serialize every read of a 64-tuple page for no correctness
// benefit; only reader-vs-writer interleavings can lose an
// rw-antidependency.
//
// Blocking acquisition order is latch before row lock; the reverse
// direction is try-only (TryRLock under Row.mu cannot deadlock).
// ssilint enforces this — both the slice and the latch() getter carry
// the annotation; see docs/invariants.md.
type latchTable struct {
	mask    uint64
	latches []sync.RWMutex //ssi:lock level=10 name=storage.pageLatch
}

func newLatchTable(n int) *latchTable {
	if n <= 0 {
		n = defaultLatchPartitions
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	return &latchTable{mask: uint64(p - 1), latches: make([]sync.RWMutex, p)}
}

// latch returns the lock guarding page. Pages are allocated
// sequentially, so a Fibonacci multiplicative hash spreads consecutive
// pages across shards.
//
//ssi:lock level=10 name=storage.pageLatch
func (lt *latchTable) latch(page int64) *sync.RWMutex {
	h := uint64(page) * 0x9e3779b97f4a7c15
	return &lt.latches[(h>>32)&lt.mask]
}
