package pgssi

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"testing"

	"pgssi/internal/wal"
)

// finalVersion is what a commit record must carry for a key.
type finalVersion struct {
	value   string
	deleted bool
}

// checkRecord asserts that rec carries each key of want exactly once,
// with its final version, and nothing else.
func checkRecord(t *testing.T, rec wal.Record, want map[string]finalVersion) {
	t.Helper()
	seen := map[string]bool{}
	for _, op := range rec.Ops {
		k := op.Table + "/" + op.Key
		if seen[k] {
			t.Fatalf("commit record carries %s twice: %+v", k, rec.Ops)
		}
		seen[k] = true
		w, ok := want[k]
		if !ok {
			t.Fatalf("commit record carries %s, which the transaction did not leave written: %+v", k, rec.Ops)
		}
		if op.Delete != w.deleted || (!w.deleted && string(op.Value) != w.value) {
			t.Fatalf("commit record has %s = %q (delete %v), want %q (delete %v)", k, op.Value, op.Delete, w.value, w.deleted)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("commit record carries %d keys, want %d: %+v", len(seen), len(want), rec.Ops)
	}
}

// TestWriteSetCommitRecordAndReplay: one transaction writes the same
// keys several ways — insert, update, delete, re-insert — with a
// ROLLBACK TO SAVEPOINT in between; a second re-inserts a row it
// deleted. Each commit record must hold each key's final version once
// (the first's in the order of each key's last write), and both OpenDir
// recovery and a replica fed by the log must reproduce the committed
// state.
func TestWriteSetCommitRecordAndReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(db.DurableWAL())
	defer rep.Close()
	if err := db.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.RunTx(TxOptions{Isolation: Serializable}, func(tx *Tx) error {
		if err := tx.Insert("kv", "c", []byte("c0")); err != nil {
			return err
		}
		return tx.Insert("kv", "d", []byte("d0"))
	}))

	tx, err := db.Begin(TxOptions{Isolation: Serializable})
	must(err)
	must(tx.Insert("kv", "k", []byte("k1")))
	must(tx.Insert("kv", "a", []byte("a1")))
	must(tx.Update("kv", "k", []byte("k2")))
	must(tx.Savepoint("s"))
	must(tx.Delete("kv", "k"))
	must(tx.Insert("kv", "b", []byte("b1")))
	must(tx.Update("kv", "c", []byte("c1")))
	must(tx.RollbackToSavepoint("s"))
	if v, err := tx.Get("kv", "k"); err != nil || string(v) != "k2" {
		t.Fatalf("after the rollback to savepoint, k = %q (%v), want k2", v, err)
	}
	must(tx.Delete("kv", "k"))
	must(tx.Insert("kv", "k", []byte("k3")))
	must(tx.Update("kv", "a", []byte("a2")))
	must(tx.Delete("kv", "c"))
	must(tx.Insert("kv", "c", []byte("c2")))
	must(tx.Delete("kv", "c"))
	must(tx.Put("kv", "d", []byte("d1")))
	xid := tx.ID()
	must(tx.Commit())
	want := map[string]finalVersion{
		"kv/k": {value: "k3"},
		"kv/a": {value: "a2"},
		"kv/c": {deleted: true},
		"kv/d": {value: "d1"},
	}
	// A transaction whose only rewrite is a re-insert over its own
	// delete of a committed row: the insert alone reports it.
	tx2, err := db.Begin(TxOptions{Isolation: Serializable})
	must(err)
	must(tx2.Delete("kv", "d"))
	must(tx2.Insert("kv", "d", []byte("d2")))
	xid2 := tx2.ID()
	must(tx2.Commit())
	want2 := map[string]finalVersion{"kv/d": {value: "d2"}}
	state := map[string]string{"k": "k3", "a": "a2", "d": "d2"}

	checkState := func(what string, get func(key string) ([]byte, error)) {
		t.Helper()
		for _, k := range []string{"k", "a", "b", "c", "d"} {
			v, err := get(k)
			w, live := state[k]
			switch {
			case live && (err != nil || string(v) != w):
				t.Fatalf("%s: %s = %q (%v), want %q", what, k, v, err, w)
			case !live && !errors.Is(err, ErrNotFound):
				t.Fatalf("%s: %s = %q (%v), want not found", what, k, v, err)
			}
		}
	}
	must(rep.WaitApplied(int(db.DurableWAL().Stats().Appends)))
	rtx, err := rep.BeginReadOnly(ReplicaTxOptions{})
	must(err)
	checkState("replica", func(k string) ([]byte, error) { return rtx.Get("kv", k) })
	rtx.Rollback()
	rep.Close()
	must(db.Close())

	// The record as the log holds it.
	wl, err := wal.OpenDir(dir, wal.Config{})
	must(err)
	recs := map[uint64]wal.Record{}
	must(wl.Replay(func(r wal.Record) error {
		if len(r.Ops) > 0 {
			recs[uint64(r.Xid)] = r
		}
		return nil
	}))
	must(wl.Close())
	rec, ok := recs[xid]
	rec2, ok2 := recs[xid2]
	if !ok || !ok2 {
		t.Fatal("a transaction's commit record is not in the log")
	}
	checkRecord(t, rec, want)
	checkRecord(t, rec2, want2)
	var order []string
	for _, op := range rec.Ops {
		order = append(order, op.Key)
	}
	if fmt.Sprint(order) != "[k a c d]" {
		t.Fatalf("commit record order %v, want each key at its last write: [k a c d]", order)
	}

	db, err = OpenDir(dir, Config{})
	must(err)
	defer db.Close()
	rtx2, err := db.Begin(TxOptions{Isolation: RepeatableRead, ReadOnly: true})
	must(err)
	defer rtx2.Rollback()
	checkState("recovery", func(k string) ([]byte, error) { return rtx2.Get("kv", k) })
}

// TestOwnsMatchesReference: for write sets of 1 to 50 entries — below,
// at and above ownsScanMax, where owns switches from scanning the log to
// indexing it — random upserts, deletes and savepoint rollbacks over a
// small key space (so keys repeat, across two tables, some committed
// before the transaction began) leave owns agreeing with a reference
// map after every step, and the commit record carrying each key's final
// version once.
func TestOwnsMatchesReference(t *testing.T) {
	db := newSessionDB(t, "t1", "t2")
	if err := db.AttachWAL(wal.NewLog()); err != nil {
		t.Fatal(err)
	}
	tables := []string{"t1", "t2"}
	const keySpace = 12
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	// Keys below keySpace/2 are committed before each transaction.
	visible := map[string]bool{}
	seed := func() {
		err := db.RunTx(TxOptions{Isolation: RepeatableRead}, func(tx *Tx) error {
			for _, tbl := range tables {
				for i := 0; i < keySpace/2; i++ {
					if err := tx.Put(tbl, key(i), []byte("seed")); err != nil {
						return err
					}
				}
				for i := keySpace / 2; i < keySpace; i++ {
					if err := tx.Delete(tbl, key(i)); err != nil && !errors.Is(err, ErrNotFound) {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		clear(visible)
		for _, tbl := range tables {
			for i := 0; i < keySpace/2; i++ {
				visible[tbl+"/"+key(i)] = true
			}
		}
	}
	rng := rand.New(rand.NewPCG(50, 1))
	for n := 1; n <= 50; n++ {
		seed()
		tx, err := db.Begin(TxOptions{Isolation: RepeatableRead})
		if err != nil {
			t.Fatal(err)
		}
		owned := map[string]finalVersion{} // the reference: key → newest own write
		live := maps.Clone(visible)
		var savedOwned map[string]finalVersion
		var savedLive map[string]bool
		for step := 0; len(tx.writes) < n; step++ {
			tbl, k := tables[rng.IntN(2)], key(rng.IntN(keySpace))
			ref := tbl + "/" + k
			switch r := rng.IntN(20); {
			case r == 0 && savedOwned == nil:
				if err := tx.Savepoint("s"); err != nil {
					t.Fatal(err)
				}
				savedOwned, savedLive = maps.Clone(owned), maps.Clone(live)
			case r == 1 && savedOwned != nil:
				if err := tx.RollbackToSavepoint("s"); err != nil {
					t.Fatal(err)
				}
				if err := tx.ReleaseSavepoint("s"); err != nil {
					t.Fatal(err)
				}
				owned, live, savedOwned, savedLive = savedOwned, savedLive, nil, nil
			case r < 8 && live[ref]:
				if err := tx.Delete(tbl, k); err != nil {
					t.Fatal(err)
				}
				owned[ref], live[ref] = finalVersion{deleted: true}, false
			default:
				v := fmt.Sprintf("n%d.%d", n, step)
				if err := tx.Put(tbl, k, []byte(v)); err != nil {
					t.Fatal(err)
				}
				owned[ref], live[ref] = finalVersion{value: v}, true
			}
			for _, tbl := range tables {
				for i := 0; i < keySpace; i++ {
					w, ok := owned[tbl+"/"+key(i)]
					if got, want := tx.owns(tbl, key(i)), ok && !w.deleted; got != want {
						t.Fatalf("%d entries, step %d: owns(%s, %s) = %v, reference says %v", len(tx.writes), step, tbl, key(i), got, want)
					}
				}
			}
		}
		if indexed := tx.byKey != nil; indexed != (n > ownsScanMax) {
			t.Fatalf("%d entries: log indexed = %v, want %v (ownsScanMax %d)", n, indexed, n > ownsScanMax, ownsScanMax)
		}
		checkRecord(t, db.buildWALRecord(tx), owned)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}
