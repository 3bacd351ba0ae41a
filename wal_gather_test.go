package pgssi_test

import (
	"testing"
	"time"

	"pgssi"
)

// TestWALJoiners pins which transactions a commit's log flush is held
// back for (wal.Config.Joiners, counted in DB.walJoiners): open ones
// that may yet write — not declared read-only ones, not prepared ones,
// not finished ones, and not the committer itself.
func TestWALJoiners(t *testing.T) {
	const window = 3 * time.Millisecond
	db, err := pgssi.OpenDir(t.TempDir(), pgssi.Config{FsyncMode: pgssi.FsyncBatch, WALGroupWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	begin := func(opts pgssi.TxOptions) *pgssi.Tx {
		t.Helper()
		tx, err := db.Begin(opts)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	n := 0
	// commit commits one write and returns how many flushes were held
	// back for it, and how many of those to the window's end.
	commit := func() (waits, expired int64) {
		t.Helper()
		before := db.WALStats()
		tx := begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
		n++
		if err := tx.Put("t", "k", []byte{byte(n)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		after := db.WALStats()
		return after.GatherWaits - before.GatherWaits, after.GatherExpired - before.GatherExpired
	}
	expect := func(when string, wantWaits int64) {
		t.Helper()
		if waits, expired := commit(); waits != wantWaits || expired != wantWaits {
			t.Fatalf("%s: commit held back %d times (%d to the cap), want %d", when, waits, expired, wantWaits)
		}
	}

	expect("alone", 0)

	ro := begin(pgssi.TxOptions{Isolation: pgssi.Serializable, ReadOnly: true})
	expect("beside a declared read-only transaction", 0)
	ro.Rollback()

	rw := begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	expect("beside an idle read-write transaction", 1)
	if err := rw.Put("t", "other", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := rw.Prepare("gid"); err != nil {
		t.Fatal(err)
	}
	expect("beside a prepared transaction", 0)
	if err := db.CommitPrepared("gid"); err != nil {
		t.Fatal(err)
	}

	rw = begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	rw.Rollback()
	expect("after a rollback", 0)
	rw = begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	if _, err := rw.Get("t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := rw.Commit(); err != nil {
		t.Fatal(err)
	}
	expect("after a commit that wrote nothing", 0)
}
