package pgssi

import (
	"pgssi/internal/btree"
	"pgssi/internal/core"
	"pgssi/internal/s2pl"
	"pgssi/internal/storage"
)

// Strict two-phase locking operation paths (§8's baseline). Reads take
// shared locks on the tuples they read and on the index leaf pages they
// traverse (index-range locking for phantom prevention); writes take
// exclusive locks; intention locks are taken at relation level. All
// locks are held until commit or abort. Reads see the latest committed
// state via per-statement snapshots, which is safe because the data read
// is lock-protected against concurrent modification.
//
// S2PL transactions are intended to run against a database where every
// transaction uses S2PL, as in the paper's benchmark configurations;
// mixing them with snapshot-based transactions provides each regime's
// guarantees only against its own kind.

// s2plTuple is the lock target for a row under 2PL. Unlike SIREAD tuple
// locks it is not qualified by heap page: logical-row locking is what a
// classic lock manager does.
func s2plTuple(table, key string) core.Target {
	return core.TupleTarget(table, 0, key)
}

func (tx *Tx) s2plAcquire(t core.Target, mode s2pl.Mode) error {
	if err := tx.db.s2pl.Acquire(tx.xid, t, mode); err != nil {
		return mapStorageErr(err)
	}
	return nil
}

func (tx *Tx) s2plGet(ti *tableInfo, key string) ([]byte, error) {
	if err := tx.s2plAcquire(core.RelationTarget(ti.name), s2pl.ModeIS); err != nil {
		return nil, err
	}
	// Lock the leaf page first (covers the gap if the key is absent),
	// then the tuple. Re-check the leaf after locking in case of a
	// concurrent split.
	if err := s2plLockLeaf(tx, ti.heap.Index(), ti.pkName, key, s2pl.ModeS); err != nil {
		return nil, err
	}
	if err := tx.s2plAcquire(s2plTuple(ti.name, key), s2pl.ModeS); err != nil {
		return nil, err
	}
	snap := tx.db.mvcc.TakeSnapshot()
	res := ti.heap.Get(key, snap, tx.xid, tx.db.mvcc)
	if res.Tuple == nil {
		return nil, ErrNotFound
	}
	return res.Tuple, nil
}

// s2plLockLeaf locks the index leaf page that holds (or would hold) key,
// looping until the lock covers the current leaf (a split may move the
// key between lookup and lock acquisition).
func s2plLockLeaf[V any](tx *Tx, tree *btree.Tree[V], rel, key string, mode s2pl.Mode) error {
	for {
		_, _, leaf := tree.Lookup(key, nil)
		if err := tx.s2plAcquire(core.PageTarget(rel, int64(leaf)), mode); err != nil {
			return err
		}
		_, _, again := tree.Lookup(key, nil)
		if again == leaf {
			return nil
		}
	}
}

func (tx *Tx) s2plInsert(ti *tableInfo, key string, value []byte) error {
	if err := tx.s2plAcquire(core.RelationTarget(ti.name), s2pl.ModeIX); err != nil {
		return err
	}
	if err := s2plLockLeaf(tx, ti.heap.Index(), ti.pkName, key, s2pl.ModeX); err != nil {
		return err
	}
	if err := tx.s2plAcquire(s2plTuple(ti.name, key), s2pl.ModeX); err != nil {
		return err
	}
	snap := tx.db.mvcc.TakeSnapshot()
	wr, err := ti.heap.Insert(key, value, tx.xid, tx.currentSubID(), snap, tx.db.mvcc, tx.db.wg)
	if err != nil {
		return mapStorageErr(err)
	}
	tx.recordWrite(ti.name, key, value, false, wr.Rewrite)
	for _, sp := range wr.Splits {
		tx.db.s2pl.PageSplit(ti.pkName, core.PageTarget(ti.pkName, int64(sp.Left)), core.PageTarget(ti.pkName, int64(sp.Right)))
	}
	return tx.insertSecondaries(ti, key, value)
}

func (tx *Tx) s2plUpdate(ti *tableInfo, key string, value []byte, del bool) error {
	if err := tx.s2plAcquire(core.RelationTarget(ti.name), s2pl.ModeIX); err != nil {
		return err
	}
	if err := tx.s2plAcquire(s2plTuple(ti.name, key), s2pl.ModeX); err != nil {
		return err
	}
	snap := tx.db.mvcc.TakeSnapshot()
	var wr storage.WriteResult
	var err error
	if del {
		wr, err = ti.heap.Delete(key, tx.xid, tx.currentSubID(), snap, tx.db.mvcc, tx.db.wg, nil)
	} else {
		wr, err = ti.heap.Update(key, value, tx.xid, tx.currentSubID(), snap, tx.db.mvcc, tx.db.wg, nil)
	}
	if err != nil {
		return mapStorageErr(err)
	}
	tx.recordWrite(ti.name, key, value, del, wr.Rewrite)
	if del {
		return nil
	}
	return tx.insertSecondaries(ti, key, value)
}

// s2plScan implements index-range scans under 2PL: it locks every leaf
// page in the range in shared mode (looping to a fixpoint, since pages
// observed can change until they are locked), then locks each matching
// tuple, then reads. pkOf converts an index entry (key, stored value)
// into the primary key to fetch: the tree is the table's own (its
// entries are the rows' TIDs) or a secondary index (its entries name
// rows by primary key).
// A secondary index files a row under the key of every version it has
// had, so several entries can name one row; matches (nil for the table's
// own tree) keeps only the entry filed under the visible version's key,
// so each row is delivered once.
func s2plScan[V any](tx *Tx, ti *tableInfo, tree *btree.Tree[V], rel, lo, hi string, pkOf func(entryKey string, val V) string, matches func(entry, pk string, value []byte) bool, fn func(key string, value []byte) bool) error {
	if err := tx.s2plAcquire(core.RelationTarget(ti.name), s2pl.ModeIS); err != nil {
		return err
	}
	locked := make(map[btree.PageID]bool)
	for {
		var pages []btree.PageID
		tree.Range(lo, hi, func(p btree.PageID) { pages = append(pages, p) }, func(string, V) bool { return true })
		progress := false
		for _, p := range pages {
			if !locked[p] {
				if err := tx.s2plAcquire(core.PageTarget(rel, int64(p)), s2pl.ModeS); err != nil {
					return err
				}
				locked[p] = true
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	// Pages are stable now: collect entries and lock tuples.
	var entries, pks []string
	tree.Range(lo, hi, nil, func(k string, v V) bool {
		if matches != nil {
			entries = append(entries, k)
		}
		pks = append(pks, pkOf(k, v))
		return true
	})
	for _, pk := range pks {
		if err := tx.s2plAcquire(s2plTuple(ti.name, pk), s2pl.ModeS); err != nil {
			return err
		}
	}
	snap := tx.db.mvcc.TakeSnapshot()
	for i, pk := range pks {
		res := ti.heap.Get(pk, snap, tx.xid, tx.db.mvcc)
		if res.Tuple == nil || matches != nil && !matches(entries[i], pk, res.Tuple) {
			continue
		}
		if !fn(pk, res.Tuple) {
			break
		}
	}
	return nil
}
