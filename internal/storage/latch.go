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
// The table is sharded by page number into latchPartitions mutexes
// (hash-partitioned like the SIREAD lock table in
// internal/core/partition.go). Collisions between distinct pages only
// add mutual exclusion, never remove it, so the shard count is purely a
// concurrency matter.
//
// Protocol (see also the ordering rules in internal/core/partition.go).
// A row's heap page is a property of its slot and never changes
// (storage.go), so latch(row.page) is the one latch for every version of
// the row, and every path takes it the same way — latch first, blocking,
// then the row lock:
//
//   - A serializable point reader (Table.Read with latched=true) takes
//     the latch of the row's page in shared mode, computes the visibility
//     result under the row lock, releases the row lock, and runs the
//     caller's callback — which inserts the SIREAD lock and flags MVCC
//     conflicts — before releasing the latch. A serializable scan (Reader
//     with an onPage callback) does the same a run of same-page rows at a
//     time: the page's latch in shared mode, every row of the run
//     resolved under it (row lock taken and dropped per row), the run's
//     SIREAD locks registered in its callback, then the latch released.
//     Readers that register no SIREAD lock (read committed, repeatable
//     read, S2PL, safe snapshots) skip the latch: they have no
//     registration to make atomic, so they cannot lose an
//     rw-antidependency to the window.
//   - A writer (Table.Update / Table.Delete) takes the latch of the row's
//     page in exclusive mode, then the row lock, makes its write decision,
//     stamps xmax (and links the new version, on the same page), releases
//     the row lock, and runs the caller's write-check callback — which
//     probes the SIREAD table (core.CheckWrite) — before releasing the
//     latch. A writer that must wait for another transaction drops both
//     first and starts over.
//
// The invariant this buys: a reader of any version of a row and a writer
// of that row latch the same page, so their critical sections serialize
// — if the read ran first, the writer's probe finds the SIREAD lock
// (whichever version it was taken on: the tuple target names the row's
// page, not a version's); if the write ran first, the reader's
// visibility check sees the stamped xmax or the newer version and
// reports the writer in ReadResult.ConflictOut. Either way every
// rw-antidependency is seen by at least one side, which is the property
// the paper's correctness argument requires. The stable target is also
// conservative where PostgreSQL's TID-keyed lock is not: a reader whose
// lock was taken on version v1 is flagged by the writer of v2 and again
// by the later writer of v3. The second edge is implied (the serial order
// reader < writer of v2 < writer of v3 holds either way), so this only
// ever adds an edge a finer lock would have left to transitivity.
//
// Lock ordering: index tree lock, then page latch, then row lock, then
// (from a callback, with no row lock held) the SSI locks of
// internal/core. The tree lock (internal/btree) is never held while a
// latch or a row lock is taken: descents and leaf walks copy the row
// slots out and drop it first. A goroutine holds at most one row lock
// and at most one page latch, and no code path acquires a storage-layer
// lock while holding any internal/core lock, so the combined order is
// acyclic. A pending exclusive acquisition holds back new shared ones
// (sync.RWMutex), so a writer makes progress on a read-hot page.

// latchPartitions is the page-latch shard count per table (a power of
// two, so shard selection is a mask).
const latchPartitions = 64

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
// Acquisition order is latch before row lock, on every path. ssilint
// enforces this — both the slice and the latch() getter carry the
// annotation; see docs/invariants.md.
type latchTable struct {
	mask    uint64
	latches []sync.RWMutex //ssi:lock level=10 name=storage.pageLatch
}

func newLatchTable() *latchTable {
	return &latchTable{mask: latchPartitions - 1, latches: make([]sync.RWMutex, latchPartitions)}
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
