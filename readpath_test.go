package pgssi

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"testing"

	"pgssi/internal/core"
	"pgssi/internal/wal"
)

// Tests for the one-index read path at engine level: streaming scans
// stop where their callback stops (and lock no further), rollbacks of
// every kind read back as "not written", a pinned snapshot survives the
// write path's trimming under the real reclaimer, and the three ways of
// reading a table (Get, Scan, ScanIndex) agree.

func loadRows(t *testing.T, db *DB, table string, n int) {
	t.Helper()
	const chunk = 5000
	for lo := 0; lo < n; lo += chunk {
		tx, err := db.Begin(TxOptions{Isolation: ReadCommitted})
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < min(lo+chunk, n); i++ {
			if err := tx.Insert(table, fmt.Sprintf("k%08d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLimitScanLocksOnlyWhatItRead is the LIMIT bug: Session.Scan with a
// limit of 10 over an unbounded range of a 100k-row table must read and
// SIREAD-lock the leaf it stopped in (two at most: small adjacent leaves
// are read as one batch), not the whole table — so it is not promoted to
// a relation lock, and an insert at the far end of the key space is not
// in conflict with it.
func TestLimitScanLocksOnlyWhatItRead(t *testing.T) {
	db := newSessionDB(t, "kv")
	const rows = 100_000
	loadRows(t, db, "kv", rows)
	ti, err := db.table("kv")
	if err != nil {
		t.Fatal(err)
	}

	s := db.NewSession()
	h, st := s.Begin(Serializable, false, false)
	if !st.OK() {
		t.Fatal(st)
	}
	got, st := s.Scan(h, "kv", "", "", 10)
	if !st.OK() || len(got) != 10 || got[9].Key != "k00000009" {
		t.Fatalf("limit scan: %v, %d rows", st, len(got))
	}
	tx, _ := s.lookup(h)
	for _, rel := range []string{"kv", ti.pkName} {
		if db.ssi.HoldsLock(tx.x, core.RelationTarget(rel)) {
			t.Fatalf("limit-10 scan holds a relation lock on %s", rel)
		}
	}
	leafLocks := 0
	for p := int64(0); p < rows; p++ { // leaf page ids are dense and far fewer than rows
		if db.ssi.HoldsLock(tx.x, core.PageTarget(ti.pkName, p)) {
			leafLocks++
		}
	}
	if leafLocks < 1 || leafLocks > 2 {
		t.Fatalf("limit-10 scan holds %d index-page locks, want 1 or 2", leafLocks)
	}

	// A concurrent serializable insert past the last key: no lock of the
	// scan covers it, so no rw-antidependency is flagged and both commit.
	before := db.SSIStats().ConflictsFlagged
	w, err := db.Begin(TxOptions{Isolation: Serializable})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Insert("kv", "k99999999", []byte("far")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("insert at the far end of the key space: %v", err)
	}
	if st := s.Put(h, "kv", got[0].Key, []byte("mine")); !st.OK() {
		t.Fatal(st)
	}
	if st := s.Commit(h); !st.OK() {
		t.Fatalf("scanning transaction: %v", st)
	}
	if after := db.SSIStats().ConflictsFlagged; after != before {
		t.Fatalf("%d rw-conflicts flagged between a limit-10 scan at the front and an insert at the back", after-before)
	}
}

// TestScanStillLocksTheGapItRead is the other side of the limit fix: the
// leaves a stopped scan did read stay protected, so an insert between
// the rows it returned is an rw-antidependency.
func TestScanStillLocksTheGapItRead(t *testing.T) {
	db := newSessionDB(t, "kv")
	loadRows(t, db, "kv", 1000)
	s := db.NewSession()
	h, _ := s.Begin(Serializable, false, false)
	if got, st := s.Scan(h, "kv", "", "", 10); !st.OK() || len(got) != 10 {
		t.Fatal(st)
	}
	before := db.SSIStats().ConflictsFlagged
	w, _ := db.Begin(TxOptions{Isolation: Serializable})
	if err := w.Insert("kv", "k00000003x", []byte("phantom")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := db.SSIStats().ConflictsFlagged; after == before {
		t.Fatal("insert into the gap a limit scan read was not flagged as an rw-conflict")
	}
	s.Rollback(h)
}

// TestRollbacksReadBackAsNotWritten: after a savepoint rollback, a full
// rollback, and a doomed writer whose write stamped the row but failed
// its SSI check (and so took itself back, reaching no write set), every
// kind of reader sees the row as it was, and the next writer gets it
// without waiting or conflict.
func TestRollbacksReadBackAsNotWritten(t *testing.T) {
	check := func(t *testing.T, db *DB, key, want string) {
		t.Helper()
		for _, level := range []IsolationLevel{Serializable, RepeatableRead, ReadCommitted} {
			tx, err := db.Begin(TxOptions{Isolation: level})
			if err != nil {
				t.Fatal(err)
			}
			if v, err := tx.Get("t", key); err != nil || string(v) != want {
				t.Fatalf("%v Get(%s) = %q, %v; want %q", level, key, v, err, want)
			}
			n := 0
			err = tx.Scan("t", "", "", func(k string, v []byte) bool {
				if k == key {
					n++
					if string(v) != want {
						t.Fatalf("%v Scan sees %s=%q, want %q", level, k, v, want)
					}
				}
				return true
			})
			if err != nil || n != 1 {
				t.Fatalf("%v Scan: %d hits, %v", level, n, err)
			}
			tx.Rollback()
		}
		w, _ := db.Begin(TxOptions{Isolation: Serializable})
		if err := w.Update("t", key, []byte(want)); err != nil {
			t.Fatalf("next writer: %v", err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	seed := func(t *testing.T) *DB {
		db := newSessionDB(t, "t")
		tx, _ := db.Begin(TxOptions{})
		for _, k := range []string{"x", "y", "z"} {
			if err := tx.Insert("t", k, []byte("base-"+k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return db
	}

	t.Run("savepoint", func(t *testing.T) {
		db := seed(t)
		tx, _ := db.Begin(TxOptions{})
		tx.Savepoint("sp")
		if err := tx.Delete("t", "x"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("t", "y", []byte("sub")); err != nil {
			t.Fatal(err)
		}
		if err := tx.RollbackToSavepoint("sp"); err != nil {
			t.Fatal(err)
		}
		if v, err := tx.Get("t", "x"); err != nil || string(v) != "base-x" {
			t.Fatalf("own read after savepoint rollback: %q %v", v, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		check(t, db, "x", "base-x")
		check(t, db, "y", "base-y")
	})
	t.Run("rollback", func(t *testing.T) {
		db := seed(t)
		tx, _ := db.Begin(TxOptions{})
		if err := tx.Delete("t", "x"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("t", "y", []byte("gone")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("t", "new", []byte("gone")); err != nil {
			t.Fatal(err)
		}
		tx.Rollback()
		check(t, db, "x", "base-x")
		check(t, db, "y", "base-y")
		r, _ := db.Begin(TxOptions{})
		if _, err := r.Get("t", "new"); err != ErrNotFound {
			t.Fatalf("rolled-back insert: %v", err)
		}
		r.Rollback()
	})
	t.Run("doomed-writer", func(t *testing.T) {
		db := seed(t)
		// T0 reads z; T1 reads x; T2 overwrites x and commits (T1 → T2);
		// T1 then writes z: the stamp lands, the SSI check finds T0's
		// SIREAD lock, T1 is a pivot whose out-neighbour committed first,
		// and the write fails after the fact and takes the stamp back.
		t0, _ := db.Begin(TxOptions{})
		if _, err := t0.Get("t", "z"); err != nil {
			t.Fatal(err)
		}
		t1, _ := db.Begin(TxOptions{})
		if _, err := t1.Get("t", "x"); err != nil {
			t.Fatal(err)
		}
		t2, _ := db.Begin(TxOptions{})
		if err := t2.Update("t", "x", []byte("base-x")); err != nil {
			t.Fatal(err)
		}
		if err := t2.Commit(); err != nil {
			t.Fatal(err)
		}
		err := t1.Delete("t", "z")
		if !IsSerializationFailure(err) {
			t.Fatalf("pivot's write should fail its SSI check, got %v", err)
		}
		if t1.owns("t", "z") || len(t1.writes) != 0 {
			t.Fatal("failed write reached the write set")
		}
		// Still in progress, and the row is as it was.
		if v, err := t0.Get("t", "z"); err != nil || string(v) != "base-z" {
			t.Fatalf("reader during the doomed writer's life: %q %v", v, err)
		}
		t1.Rollback()
		t0.Rollback()
		check(t, db, "z", "base-z")
	})
}

// TestRollbackLeavesNoTrace drives each write that can fail after it
// reached the heap — Update and Delete failing CheckWrite, Insert failing
// the primary index's CheckIndexInsert, and, with a secondary index,
// Insert and Update failing the secondary's — then rolls the writer back
// and audits every version of every row: each must name only committed
// or active transactions, never the rolled-back one, since the commit
// log forgets it at once. The failure is a real one: the writer W read x,
// T2 overwrote x and committed (W → T2), and W's write meets a SIREAD
// lock of T0's (T0 → W), which makes W a pivot whose out-neighbour
// committed first.
func TestRollbackLeavesNoTrace(t *testing.T) {
	keys := []string{"x", "y", "z", "new"}
	cases := []struct {
		name    string
		indexed bool
		read    func(t0 *Tx) error // T0's read the write will run into
		write   func(w *Tx) error
	}{
		{"update", false, func(t0 *Tx) error { _, err := t0.Get("t", "z"); return err },
			func(w *Tx) error { return w.Update("t", "z", []byte("w")) }},
		{"delete", false, func(t0 *Tx) error { _, err := t0.Get("t", "z"); return err },
			func(w *Tx) error { return w.Delete("t", "z") }},
		{"insert", false, func(t0 *Tx) error { _, err := t0.Get("t", "new"); return noRow(err) },
			func(w *Tx) error { return w.Insert("t", "new", []byte("w")) }},
		{"update-indexed", true, func(t0 *Tx) error { _, err := t0.Get("t", "z"); return err },
			func(w *Tx) error { return w.Update("t", "z", []byte("w")) }},
		{"delete-indexed", true, func(t0 *Tx) error { _, err := t0.Get("t", "z"); return err },
			func(w *Tx) error { return w.Delete("t", "z") }},
		{"insert-indexed", true, func(t0 *Tx) error { _, err := t0.Get("t", "new"); return noRow(err) },
			func(w *Tx) error { return w.Insert("t", "new", []byte("w")) }},
		{"insert-secondary", true, scanNewIndexKeys,
			func(w *Tx) error { return w.Insert("t", "new", []byte("new-val")) }},
		{"update-secondary", true, scanNewIndexKeys,
			func(w *Tx) error { return w.Update("t", "y", []byte("new-val")) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := newSessionDB(t, "t")
			if c.indexed {
				if err := db.CreateIndex("t", "byval", func(_ string, v []byte) (string, bool) { return string(v), true }); err != nil {
					t.Fatal(err)
				}
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			seed, _ := db.Begin(TxOptions{})
			for _, k := range keys[:3] {
				must(seed.Insert("t", k, []byte("base-"+k)))
			}
			must(seed.Commit())
			t0, _ := db.Begin(TxOptions{})
			must(c.read(t0))
			w, _ := db.Begin(TxOptions{})
			_, err := w.Get("t", "x")
			must(err)
			t2, _ := db.Begin(TxOptions{})
			must(t2.Update("t", "x", []byte("t2")))
			must(t2.Commit())
			if err := c.write(w); !IsSerializationFailure(err) {
				t.Fatalf("the pivot's write should fail its SSI check, got %v", err)
			}
			w.Rollback()
			ti, _ := db.table("t")
			for _, k := range keys {
				row := ti.heap.DescribeRow(k, db.mvcc)
				for _, m := range stampRE.FindAllStringSubmatch(row, -1) {
					if m[1] == fmt.Sprint(w.xid) || m[2] == "aborted" {
						t.Fatalf("after the rollback of %d a version names %s (log: %s):\n%s", w.xid, m[1], m[2], row)
					}
				}
			}
			t0.Rollback()
			r, _ := db.Begin(TxOptions{})
			defer r.Rollback()
			for _, k := range keys {
				want := map[string]string{"x": "t2", "y": "base-y", "z": "base-z"}[k]
				if v, err := r.Get("t", k); string(v) != want || (err == nil) != (want != "") {
					t.Fatalf("after the rollback %s reads %q, %v; want %q", k, v, err, want)
				}
			}
		})
	}
	t.Run("log", func(t *testing.T) {
		db := newSessionDB(t, "t")
		for i := 0; i < 1000; i++ {
			tx, _ := db.Begin(TxOptions{})
			if err := tx.Put("t", fmt.Sprint(i%10), []byte("w")); err != nil {
				t.Fatal(err)
			}
			tx.Rollback()
		}
		if n := db.CommitLogSize(); n > 0 {
			t.Fatalf("1000 rollbacks left %d commit-log entries", n)
		}
	})
}

// stampRE matches a stamp in storage.Table.DescribeRow's rendering: the
// xid and the commit log's status for it.
var stampRE = regexp.MustCompile(`(\d+)\(log ([a-z-]+)@`)

// noRow maps the expected absence of a row to success.
func noRow(err error) error {
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}

// scanNewIndexKeys scans the index keys from "n" to "o", where no row is
// yet: it locks the secondary index's leaf a "new-…" entry goes to, and
// no row.
func scanNewIndexKeys(t0 *Tx) error {
	return t0.ScanIndex("t", "byval", "n", "o", func(string, []byte) bool { return true })
}

// TestPinnedSnapshotSurvivesWriteTrimming: the real reclaimer publishes
// the horizon while a RepeatableRead reader is open and a thousand
// updates churn the row it read; it must keep reading its value, by
// point read and by scan, and afterwards the newest value is there.
func TestPinnedSnapshotSurvivesWriteTrimming(t *testing.T) {
	db := newSessionDB(t, "t")
	seedTx, _ := db.Begin(TxOptions{})
	seedTx.Insert("t", "a", []byte("pinned"))
	seedTx.Insert("t", "b", []byte("other"))
	if err := seedTx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Begin(TxOptions{Isolation: RepeatableRead, ReadOnly: true})
	if v, err := r.Get("t", "a"); err != nil || string(v) != "pinned" {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		w, _ := db.Begin(TxOptions{Isolation: RepeatableRead})
		if err := w.Update("t", "a", []byte(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			db.ssi.ReclaimNow() // do not depend on the background pass's timing
		}
	}
	if v, err := r.Get("t", "a"); err != nil || string(v) != "pinned" {
		t.Fatalf("pinned reader after 1000 updates: %q %v", v, err)
	}
	var seen []string
	r.Scan("t", "", "", func(k string, v []byte) bool { seen = append(seen, k+"="+string(v)); return true })
	if fmt.Sprint(seen) != "[a=pinned b=other]" {
		t.Fatalf("pinned reader's scan: %v", seen)
	}
	r.Rollback()
	f, _ := db.Begin(TxOptions{})
	if v, err := f.Get("t", "a"); err != nil || string(v) != "u999" {
		t.Fatalf("fresh reader: %q %v", v, err)
	}
	f.Rollback()
}

// TestReadPathsAgree drives inserts, updates, deletes, re-inserts and
// rollbacks over enough keys to split leaves, then checks that Get,
// Scan and ScanIndex return the same rows at every level that
// reads through the MVCC path, on the primary and — through log
// shipping — on a replica, and again after Vacuum.
func TestReadPathsAgree(t *testing.T) {
	db := newSessionDB(t, "t")
	log := wal.NewLog()
	if err := db.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", "byval", func(_ string, v []byte) (string, bool) { return string(v), true }); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	apply := func(commit bool, fn func(tx *Tx, m map[string]string)) {
		t.Helper()
		tx, _ := db.Begin(TxOptions{})
		m := map[string]string{}
		for k, v := range want {
			m[k] = v
		}
		fn(tx, m)
		if !commit {
			tx.Rollback()
			return
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want = m
	}
	apply(true, func(tx *Tx, m map[string]string) {
		for i := 0; i < 400; i++ {
			tx.Insert("t", key(i), []byte("a"))
			m[key(i)] = "a"
		}
	})
	apply(true, func(tx *Tx, m map[string]string) {
		for i := 0; i < 400; i += 3 {
			tx.Update("t", key(i), []byte("b"))
			m[key(i)] = "b"
		}
		for i := 1; i < 400; i += 7 {
			tx.Delete("t", key(i))
			delete(m, key(i))
		}
	})
	apply(false, func(tx *Tx, m map[string]string) {
		for i := 0; i < 400; i += 2 {
			tx.Put("t", key(i), []byte("rolled-back"))
		}
		tx.Insert("t", "zzz", []byte("rolled-back"))
	})
	apply(true, func(tx *Tx, m map[string]string) {
		for i := 1; i < 400; i += 14 {
			tx.Insert("t", key(i), []byte("c")) // re-insert deleted keys
			m[key(i)] = "c"
		}
	})

	verify := func(label string, begin func() *Tx, indexed bool) {
		t.Helper()
		var wantRows []string
		for k, v := range want {
			wantRows = append(wantRows, k+"="+v)
		}
		sort.Strings(wantRows)
		tx := begin()
		defer tx.Rollback()
		collect := func(scan func(fn func(k string, v []byte) bool) error, sorted bool) []string {
			var rows []string
			if err := scan(func(k string, v []byte) bool { rows = append(rows, k+"="+string(v)); return true }); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if sorted && !sort.StringsAreSorted(rows) {
				t.Fatalf("%s: scan out of key order", label)
			}
			sort.Strings(rows)
			return rows
		}
		paths := map[string][]string{
			"Scan": collect(func(fn func(string, []byte) bool) error { return tx.Scan("t", "", "", fn) }, true),
		}
		if indexed {
			paths["ScanIndex"] = collect(func(fn func(string, []byte) bool) error { return tx.ScanIndex("t", "byval", "", "", fn) }, false)
		}
		for name, rows := range paths {
			if fmt.Sprint(rows) != fmt.Sprint(wantRows) {
				t.Fatalf("%s: %s returned %d rows, want %d", label, name, len(rows), len(wantRows))
			}
		}
		for i := 0; i < 400; i++ {
			v, err := tx.Get("t", key(i))
			if w, ok := want[key(i)]; ok != (err == nil) || string(v) != w {
				t.Fatalf("%s: Get(%s) = %q, %v; want %q, present=%v", label, key(i), v, err, w, ok)
			}
		}
	}
	levels := func(label string) {
		for _, level := range []IsolationLevel{Serializable, RepeatableRead, ReadCommitted, SerializableS2PL} {
			verify(fmt.Sprintf("%s/%v", label, level), func() *Tx {
				tx, err := db.Begin(TxOptions{Isolation: level})
				if err != nil {
					t.Fatal(err)
				}
				return tx
			}, true)
		}
	}
	levels("primary")
	rep := NewReplica(log)
	defer rep.Close()
	if err := rep.WaitApplied(int(log.Stats().Appends)); err != nil {
		t.Fatal(err)
	}
	verify("replica", func() *Tx {
		tx, err := rep.BeginReadOnly(ReplicaTxOptions{WaitSafe: true})
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}, false)
	db.Vacuum()
	levels("after-vacuum")
}

// TestReaderIsFlaggedByEveryLaterWriterOfTheRow pins the conservative
// side of naming a row's SIREAD target by its lifelong heap page rather
// than by the version read: a reader whose tuple lock was taken on
// version v1 is flagged by the writer of v2 and again by the later writer
// of v3. PostgreSQL's lock is keyed by the TID of v1, so it would flag
// only the first. The second edge is implied — the order reader < writer
// of v2 < writer of v3 holds either way — so this is coverage ⊇ the
// version-keyed lock's, never a missed edge, and nobody aborts over it.
func TestReaderIsFlaggedByEveryLaterWriterOfTheRow(t *testing.T) {
	db := newSessionDB(t, "t")
	seed, _ := db.Begin(TxOptions{})
	if err := seed.Insert("t", "x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	reader, _ := db.Begin(TxOptions{Isolation: Serializable})
	if v, err := reader.Get("t", "x"); err != nil || string(v) != "v1" {
		t.Fatalf("reader: %q %v", v, err)
	}
	for _, version := range []string{"v2", "v3"} {
		// A page's worth of other rows between the versions: a heap that
		// put new versions at its tail would have them on different pages.
		fill, _ := db.Begin(TxOptions{Isolation: ReadCommitted})
		for i := 0; i < 64; i++ {
			if err := fill.Insert("t", fmt.Sprintf("fill-%s-%02d", version, i), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := fill.Commit(); err != nil {
			t.Fatal(err)
		}
		before := db.SSIStats().ConflictsFlagged
		w, _ := db.Begin(TxOptions{Isolation: Serializable})
		if err := w.Update("t", "x", []byte(version)); err != nil {
			t.Fatalf("writer of %s: %v", version, err)
		}
		if err := w.Commit(); err != nil {
			t.Fatalf("writer of %s: %v", version, err)
		}
		if flagged := db.SSIStats().ConflictsFlagged - before; flagged != 1 {
			t.Fatalf("writer of %s flagged %d rw-conflicts against the reader of v1, want 1", version, flagged)
		}
	}
	if v, err := reader.Get("t", "x"); err != nil || string(v) != "v1" {
		t.Fatalf("reader after both writers: %q %v", v, err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatalf("reader has only out-edges and must commit: %v", err)
	}
}
