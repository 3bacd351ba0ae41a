package storage

// This file documents the heap page latch, page.latch: the analogue of
// PostgreSQL's buffer content lock, in both of the roles it plays there.
//
// It guards the page. A page's line pointers, version headers and value
// arena (page.go) have no other lock, so every path that looks at them
// takes the latch — shared to read, exclusive to change — in the mode
// PostgreSQL takes BUFFER_LOCK_SHARE or BUFFER_LOCK_EXCLUSIVE. Readers of
// one page share it; a writer stamping a version on the page holds it
// alone. A reader copies out under it what it needs — a value is captured
// as a slice of the arena — and, once it is released, holds no index or
// pointer into the headers: a compaction may move them. The old arena is
// never written again, so captured values stay intact. Keys are not on
// the page at all: a row's key lives in the arena of its primary index
// leaf, written under the index's tree lock and never written again
// (internal/btree), so a key a reader holds needs no latch either.
//
// And it closes SSI's detection window (§4.1, §5.2 of the paper):
// PostgreSQL holds the buffer page lock across the MVCC visibility check
// and the predicate-lock insertion, so a writer to the same page cannot
// slip its CheckForSerializableConflictIn probe between the two and miss
// the rw-antidependency. Here, a row never leaves its page (storage.go),
// so the page's latch is the one latch for every version of the row, and
// every path takes it the same way:
//
//   - A serializable point reader (Table.Read with latched=true) takes the
//     latch of the row's page in shared mode, computes the visibility
//     result, and runs the caller's callback — which inserts the SIREAD
//     lock and flags MVCC conflicts — before releasing it. A serializable
//     scan (Reader with an onPage callback) does the same a run of
//     same-page rows at a time: the page's latch in shared mode, every row
//     of the run resolved under it, the run's SIREAD locks registered in
//     its callback, then the latch released. Readers that register no
//     SIREAD lock (read committed, repeatable read, S2PL, safe snapshots)
//     release the latch as soon as their rows are read: they have no
//     registration to make atomic, so they cannot lose an
//     rw-antidependency to the window.
//   - A writer (Table.Update / Table.Delete) takes the latch of the row's
//     page in exclusive mode, makes its write decision, stamps xmax (and
//     pushes the new version, on the same page), and runs the caller's
//     write-check callback — which probes the SIREAD table
//     (core.CheckWrite) — before releasing it. Insert, UndoSubxact and
//     Vacuum change headers under it too. A writer that must wait for
//     another transaction drops it first and starts over.
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
// Cached fates are the exception to "exclusive to change": like
// PostgreSQL's hint bits, a reader settles them under the shared latch.
// Every reader that settles one stores the same answer, and each access
// is atomic (fate.load, fate.resolve).
//
// Lock ordering: index tree lock, then page latch, then (from a
// callback) the SSI locks of internal/core. The tree lock
// (internal/btree) is never held while a latch is taken: descents and
// leaf walks copy the TIDs out and drop it first. A goroutine holds at
// most one page latch, and no code path acquires a storage-layer lock
// while holding any internal/core lock, so the combined order is acyclic.
// A pending exclusive acquisition holds back new shared ones
// (sync.RWMutex), so a writer makes progress on a read-hot page.
