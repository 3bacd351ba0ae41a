package pgssi

import (
	"errors"
	"slices"

	"pgssi/internal/btree"
	"pgssi/internal/core"
	"pgssi/internal/s2pl"
	"pgssi/internal/storage"
)

// This file implements the data operations. Each operation has two
// concurrency-control paths: the MVCC path (ReadCommitted /
// RepeatableRead / Serializable, where Serializable adds the SSI hooks of
// §5.2) and the strict two-phase locking path (§8's baseline).
//
// There is one index per table: the heap (storage.Table) owns the
// primary B+-tree and the tree's leaf entry is the row's TID, so every read —
// point or range — reaches its rows through the same descent that finds
// the leaf page to SIREAD-lock, and a settled row's visibility is
// answered from the fates cached on its versions, without a commit-log
// lookup (internal/storage has the details).
//
// Serializable reads and writes run their SSI lock-manager steps inside
// the storage layer's heap page latch (storage/latch.go): reads
// insert their SIREAD locks in the storage read callbacks, writes probe
// the SIREAD table in the Update/Delete check callback. Holding the
// latch across {visibility check, SIREAD insertion} on the read side and
// {xmax stamp, lock-table probe} on the write side guarantees every
// rw-antidependency on a heap tuple is seen by at least one side, the
// way PostgreSQL's buffer page lock does. MVCC conflict-out *flagging*
// may safely happen after the latch is released (scans batch it per
// leaf): once the writer is visible in the version chain the conflict
// can always be recovered from MVCC data (§5.2), and the writer stays
// tracked while any concurrent reader is active.
//
// Point reads (Get) take the latch and register per row. Scans stream,
// a leaf-sized batch at a time (storage.Table.Scan; a batch is one index
// leaf, or two half-full ones): the leaf's page lock is taken under the
// tree lock, its rows are copied out, and with the tree lock released
// the rows are resolved in runs of consecutive rows that share a heap
// page — the page's shared latch held across the run's visibility checks
// and ONE core.AcquireTupleLockBatch call for its SIREAD locks — the same
// atomicity unit as a point read, at O(pages) lock-path acquisitions
// (§5.2.1's granularity hierarchy is what makes the page the natural
// batch unit; a lock batch never spans pages). A row keeps its heap page
// for life, so the runs a scan meets are the ones the rows were loaded
// in, however often they were updated since: a table loaded in key order
// is scanned a whole page at a time, and a whole page is one page lock
// (core.AcquireTupleLockBatch). Leaves and heap pages divide the keys at
// different places, so a tracked scan keeps the run a batch ends on for
// the next batch: a run is registered once, as a whole, however the
// leaves cut it. Then the resolved rows are delivered, and a scan whose
// callback says stop ends there: it has read and locked the leaves it
// reached and nothing beyond. A read-only transaction that is given its
// safe snapshot while a scan is under way (§4.2) registers nothing from
// that page run on.

// Get returns the value of key in table visible to the transaction, or
// ErrNotFound. Under Serializable it acquires a SIREAD lock on the tuple
// (or on the index gap, if the key is absent) and flags MVCC-derived
// rw-conflicts.
func (tx *Tx) Get(table, key string) ([]byte, error) {
	if err := tx.checkUsable(false); err != nil {
		return nil, err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return nil, err
	}
	if tx.level == SerializableS2PL {
		return tx.s2plGet(ti, key)
	}
	snap := tx.snapshot()
	// One descent serves both needs: it takes the leaf-page SIREAD lock
	// during the traversal (see btree.Lookup; PostgreSQL likewise
	// predicate-locks every leaf page an index scan reads, which is what
	// covers the gap when the key is absent) and arrives at the row.
	tracking := tx.x != nil && !tx.x.Safe()
	var value []byte
	found := false
	// The SSI read check runs in the Read callback, i.e. under the read
	// latch of the row's page: the SIREAD lock is registered before any
	// writer of that page can stamp the tuple and probe the lock table. Non-tracking reads skip the latch — they
	// register nothing, so they have nothing to lose to the window.
	err = ti.heap.Read(key, snap, tx.xid, tx.db.mvcc, tx.leafLocker(ti.pkName, tracking), tracking, func(res storage.ReadResult) error {
		if tx.x != nil {
			if res.Tuple != nil {
				if err := tx.db.ssi.CheckRead(tx.x, table, res.Page, key, res.ConflictOut, tx.owns(table, key)); err != nil {
					return err
				}
			} else if err := tx.db.ssi.CheckScanConflicts(tx.x, res.ConflictOut); err != nil {
				return err
			}
		}
		if res.Tuple != nil {
			found = true
			value = res.Tuple
		}
		return nil
	})
	if err != nil {
		return nil, mapStorageErr(err)
	}
	if !found {
		return nil, ErrNotFound
	}
	return value, nil
}

// Insert adds a new row. Fails with ErrDuplicateKey if a visible (or
// concurrently committed) row exists.
func (tx *Tx) Insert(table, key string, value []byte) error {
	if err := tx.checkUsable(true); err != nil {
		return err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return err
	}
	if tx.level == SerializableS2PL {
		return tx.s2plInsert(ti, key, value)
	}
	snap := tx.snapshot()
	wr, err := ti.heap.Insert(key, value, tx.xid, tx.currentSubID(), snap, tx.db.mvcc, tx.db.wg)
	if err != nil {
		return mapStorageErr(err)
	}
	// The version is in the heap: it enters the write log before anything
	// below can fail, so a rollback finds it.
	tx.recordWrite(table, key, value, false, wr.Rewrite)
	for _, sp := range wr.Splits {
		tx.db.ssi.PageSplit(ti.pkName, int64(sp.Left), int64(sp.Right))
	}
	if tx.x != nil {
		// Heap inserts are checked at relation granularity (new
		// tuples cannot carry tuple locks); phantom conflicts are
		// caught by the index-page check.
		if err := tx.db.ssi.CheckWrite(tx.x, table, -1, ""); err != nil {
			return mapStorageErr(err)
		}
		if err := tx.db.ssi.CheckIndexInsert(tx.x, ti.pkName, int64(wr.IndexPage)); err != nil {
			return mapStorageErr(err)
		}
	}
	return tx.insertSecondaries(ti, key, value)
}

// insertSecondaries maintains secondary-index entries for (key, value).
func (tx *Tx) insertSecondaries(ti *tableInfo, key string, value []byte) error {
	for _, si := range ti.secondaries() {
		ik, ok := si.fn(key, value)
		if !ok {
			continue
		}
		entry := ik + "\x00" + key
		page, added, splits := si.tree.Insert(entry, key)
		for _, sp := range splits {
			tx.db.ssi.PageSplit(si.name, int64(sp.Left), int64(sp.Right))
			if tx.level == SerializableS2PL {
				tx.db.s2pl.PageSplit(si.name, core.PageTarget(si.name, int64(sp.Left)), core.PageTarget(si.name, int64(sp.Right)))
			}
		}
		if !added {
			continue
		}
		if tx.x != nil {
			if err := tx.db.ssi.CheckIndexInsert(tx.x, si.name, int64(page)); err != nil {
				return mapStorageErr(err)
			}
		}
		if tx.level == SerializableS2PL {
			if err := tx.db.s2pl.Acquire(tx.xid, core.PageTarget(si.name, int64(page)), s2pl.ModeX); err != nil {
				return mapStorageErr(err)
			}
		}
	}
	return nil
}

// Put upserts: it updates key if a visible row exists and inserts it
// otherwise — the primitive the session layer (and the wire protocol's
// OpPut) exposes. A concurrent insert racing the not-found→insert step
// surfaces through the usual rules (duplicate key at this snapshot, or
// a serialization failure from first-updater-wins), so the loop below
// only follows the one benign hop.
func (tx *Tx) Put(table, key string, value []byte) error {
	err := tx.Update(table, key, value)
	if errors.Is(err, ErrNotFound) {
		return tx.Insert(table, key, value)
	}
	return err
}

// Update replaces the value of an existing row, following snapshot
// isolation's first-updater-wins rule (blocking on an in-progress writer,
// then failing with a serialization error if it committed).
func (tx *Tx) Update(table, key string, value []byte) error {
	if err := tx.checkUsable(true); err != nil {
		return err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return err
	}
	if tx.level == SerializableS2PL {
		return tx.s2plUpdate(ti, key, value, false)
	}
	snap := tx.snapshot()
	check := tx.writeCheck(table, key)
	wr, serr := ti.heap.Update(key, value, tx.xid, tx.currentSubID(), snap, tx.db.mvcc, tx.db.wg, check)
	if serr != nil {
		if tx.level == ReadCommitted {
			// READ COMMITTED follows the update chain with a fresh
			// snapshot rather than failing (EvalPlanQual).
			return tx.readCommittedRetry(func() error {
				wr, e := ti.heap.Update(key, value, tx.xid, tx.currentSubID(), tx.db.mvcc.TakeSnapshot(), tx.db.mvcc, tx.db.wg, check)
				if e != nil {
					return e
				}
				return tx.finishUpdate(ti, table, key, value, wr.Rewrite)
			}, serr)
		}
		return mapStorageErr(serr)
	}
	return tx.finishUpdate(ti, table, key, value, wr.Rewrite)
}

// writeCheck returns the SSI write check a serializable transaction runs
// inside the heap write path, under the row's page latch
// (storage/latch.go): the finest-to-coarsest SIREAD probe, followed by
// the §7.3 drop of the transaction's own tuple SIREAD lock, which is
// safe because the tuple write lock (the just-stamped xmax) now protects
// the read. Returns nil for non-serializable transactions.
func (tx *Tx) writeCheck(table, key string) func(storage.WriteResult) error {
	if tx.x == nil {
		return nil
	}
	return func(wr storage.WriteResult) error {
		if err := tx.db.ssi.CheckWrite(tx.x, table, wr.Page, key); err != nil {
			return err
		}
		if !tx.inSubxact() {
			// §7.3: safe to drop our SIREAD lock once we hold the
			// tuple write lock — except inside a subtransaction,
			// where a savepoint rollback could release the write
			// lock and leave the read unprotected.
			tx.db.ssi.DropOwnTupleLock(tx.x, table, wr.Page, key)
		}
		return nil
	}
}

func (tx *Tx) finishUpdate(ti *tableInfo, table, key string, value []byte, rewrite bool) error {
	tx.recordWrite(table, key, value, false, rewrite)
	return tx.insertSecondaries(ti, key, value)
}

// readCommittedRetry retries op with fresh snapshots a bounded number of
// times; fallback is returned if the conflict never clears.
func (tx *Tx) readCommittedRetry(op func() error, fallback error) error {
	for i := 0; i < 64; i++ {
		err := op()
		if err == nil {
			return nil
		}
		if !IsSerializationFailure(mapStorageErr(err)) {
			return mapStorageErr(err)
		}
	}
	return mapStorageErr(fallback)
}

// Delete removes the visible version of key.
func (tx *Tx) Delete(table, key string) error {
	if err := tx.checkUsable(true); err != nil {
		return err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return err
	}
	if tx.level == SerializableS2PL {
		return tx.s2plUpdate(ti, key, nil, true)
	}
	snap := tx.snapshot()
	wr, serr := ti.heap.Delete(key, tx.xid, tx.currentSubID(), snap, tx.db.mvcc, tx.db.wg, tx.writeCheck(table, key))
	if serr != nil {
		return mapStorageErr(serr)
	}
	tx.recordWrite(table, key, nil, true, wr.Rewrite)
	return nil
}

// leafLocker returns the callback a tracked read hands to the index
// traversal to SIREAD-lock each leaf page of rel it visits, under the
// tree lock (see btree.Lookup); nil when the read is not tracked.
func (tx *Tx) leafLocker(rel string, tracking bool) func(btree.PageID) {
	if !tracking {
		return nil
	}
	return func(p btree.PageID) {
		tx.db.ssi.AcquirePageLock(tx.x, rel, int64(p))
	}
}

// pageLocker returns the callback a tracked scan hands to the storage
// reader (storage.Reader): invoked once per run of same-page rows with
// the run's visible rows while the page's shared latch is held, it
// registers their SIREAD locks in one AcquireTupleLockBatch call
// (skipping keys the transaction wrote itself) — the PR 2 {visibility,
// registration} atomicity, per run. Once the lock manager reports that a
// relation-granularity lock covers the table, or the transaction has
// moved onto a safe snapshot (a read-only transaction can be given one
// at any moment, §4.2), the remaining runs register nothing: the lock set
// only ever coarsens and a safe snapshot stays safe, so either answer
// holds for the rest of the scan. nil when the scan is not tracked.
func (tx *Tx) pageLocker(table string, tracking bool) func(page int64, keys []string) error {
	if !tracking {
		return nil
	}
	var lockKeys []string
	done := false // relation-covered, or safe
	return func(page int64, keys []string) error {
		if done = done || tx.x.Safe(); done {
			return nil
		}
		lockKeys = slices.Grow(lockKeys[:0], len(keys))
		for _, k := range keys {
			if !tx.owns(table, k) {
				lockKeys = append(lockKeys, k)
			}
		}
		if len(lockKeys) == 0 {
			return nil
		}
		var err error
		done, err = tx.db.ssi.AcquireTupleLockBatch(tx.x, table, page, lockKeys)
		return err
	}
}

// Scan invokes fn for every visible row with lo <= key < hi (hi == ""
// means unbounded) in key order. Returning false stops the scan. Under
// Serializable the scan SIREAD-locks every index leaf page it traverses
// (phantom protection) and every tuple it reads — up to where it
// stopped: a scan cut short by fn has read and locked nothing past the
// batch of leaves it stopped in. A row reaches fn after its own batch's
// checks, not the whole range's, so a scan that fails with a
// serialization error may already have delivered rows; the transaction
// is doomed either way.
func (tx *Tx) Scan(table, lo, hi string, fn func(key string, value []byte) bool) error {
	if err := tx.checkUsable(false); err != nil {
		return err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return err
	}
	if tx.level == SerializableS2PL {
		return s2plScan(tx, ti, ti.heap.Index(), ti.pkName, lo, hi, func(entryKey string, _ storage.TID) string {
			return entryKey
		}, nil, fn)
	}
	tracking := tx.x != nil && !tx.x.Safe()
	err = ti.heap.Scan(lo, hi, tx.snapshot(), tx.xid, tx.db.mvcc, tx.leafLocker(ti.pkName, tracking), tx.pageLocker(table, tracking),
		func(lf *storage.Leaf) (bool, error) {
			// The leaf's latches are released: flag its MVCC conflicts
			// (safe out of the latch, see the file comment), then
			// deliver, so fn never runs under a latch.
			if err := tx.flagScanConflicts(lf); err != nil {
				return false, err
			}
			for i, v := range lf.Vals {
				if v != nil && !fn(lf.Keys[i], v) {
					return false, nil
				}
			}
			return true, nil
		})
	return mapStorageErr(err)
}

// flagScanConflicts records the rw-antidependencies out of one scanned
// leaf (serializable transactions only).
func (tx *Tx) flagScanConflicts(lf *storage.Leaf) error {
	if tx.x == nil || len(lf.ConflictOut) == 0 {
		return nil
	}
	return tx.db.ssi.CheckScanConflicts(tx.x, lf.ConflictOut)
}

// ScanIndex scans the secondary index idx of table for lo <= indexKey <
// hi, invoking fn with the primary key and row value. Because index
// entries are retained for every row version, each hit is rechecked
// against the visible row before delivery. Like Scan it streams, a
// leaf-sized batch of index entries at a time.
func (tx *Tx) ScanIndex(table, idx, lo, hi string, fn func(key string, value []byte) bool) error {
	if err := tx.checkUsable(false); err != nil {
		return err
	}
	ti, err := tx.db.table(table)
	if err != nil {
		return err
	}
	si, err := ti.index(idx)
	if err != nil {
		return err
	}
	// Entries are ik+"\x00"+pk, and those for index key K sort as
	// K+"\x00"+pk < K+"\x01", so the range bounds carry over directly.
	if tx.level == SerializableS2PL {
		return s2plScan(tx, ti, si.tree, si.name, lo, hi, func(_, pk string) string {
			return pk
		}, si.matches, fn)
	}
	tracking := tx.x != nil && !tx.x.Safe()
	rd := ti.heap.NewReader(tx.snapshot(), tx.xid, tx.db.mvcc, tx.pageLocker(table, tracking))
	// Index entries are retained for every row version, so the same
	// primary key can appear under several (stale) index keys; within a
	// leaf one visibility-checked read per unique pk covers them all —
	// the SIREAD lock is taken under the page latch even for hits the
	// recheck filters out (the read happened, so the version must stay
	// protected), and each hit is rechecked against the visible row it
	// resolved to, which is what delivers a row once however many
	// entries name it.
	var pks []string
	var at [btree.MaxLeaf]int // hit → position of its pk in pks
	si.tree.Leaves(lo, hi, tx.leafLocker(si.name, tracking), func(entries, hitPKs []string) bool {
		pks = pks[:0]
		for h, pk := range hitPKs {
			at[h] = slices.Index(pks, pk)
			if at[h] < 0 {
				at[h] = len(pks)
				pks = append(pks, pk)
			}
		}
		var lf *storage.Leaf
		if lf, err = rd.ReadKeys(pks); err != nil {
			return false
		}
		if err = tx.flagScanConflicts(lf); err != nil {
			return false
		}
		for h, pk := range hitPKs {
			v := lf.Vals[at[h]]
			if v == nil {
				continue
			}
			if !si.matches(entries[h], pk, v) {
				continue
			}
			if !fn(pk, v) {
				return false
			}
		}
		return true
	})
	return mapStorageErr(err)
}

// matches is the stale-entry recheck: it reports whether entry, an
// index entry naming row pk, is the one filed under the index key of the
// row's visible version value. Index entries are retained for every row
// version, so only the matching entry delivers the row.
func (si *secondaryIndex) matches(entry, pk string, value []byte) bool {
	ik, ok := si.fn(pk, value)
	return ok && len(entry) == len(ik)+1+len(pk) && entry[:len(ik)] == ik
}
