//go:build !race

package pgssi

import (
	"fmt"
	"testing"
)

// Allocation ceilings for the streaming scan path. What a scan allocates
// must not depend on how many rows it covers: a reader with its
// leaf-sized buffer and the index walk's two — no slice, map or array of
// the range's size (the collect-then-read path allocated 21 times for
// 100 rows and 27, with three range-sized slices, for 1000). The race
// detector changes allocation counts, so this runs without it.

func TestSafeSnapshotScanAllocs(t *testing.T) {
	db := newSessionDB(t, "kv")
	loadRows(t, db, "kv", 4000)
	tx, err := db.Begin(TxOptions{Isolation: Serializable, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if !tx.OnSafeSnapshot() {
		t.Fatal("a read-only transaction begun on an idle database should be on a safe snapshot")
	}
	scan := func(rows int) func() {
		lo, hi := fmt.Sprintf("k%08d", 1000), fmt.Sprintf("k%08d", 1000+rows)
		return func() {
			n := 0
			if err := tx.Scan("kv", lo, hi, func(string, []byte) bool { n++; return true }); err != nil || n != rows {
				t.Fatalf("scan: %d rows, %v", n, err)
			}
		}
	}
	short, long := testing.AllocsPerRun(100, scan(100)), testing.AllocsPerRun(100, scan(1000))
	t.Logf("safe-snapshot scan: %.0f allocs for 100 rows, %.0f for 1000", short, long)
	if long > 6 {
		t.Fatalf("1000-row safe-snapshot scan allocates %.0f times, want <= 6", long)
	}
	if long != short {
		t.Fatalf("allocations grow with the range: %.0f for 100 rows, %.0f for 1000", short, long)
	}
}

func TestTrackedScanAllocs(t *testing.T) {
	db := newSessionDB(t, "kv")
	loadRows(t, db, "kv", 4000)
	lo, hi := fmt.Sprintf("k%08d", 1000), fmt.Sprintf("k%08d", 1100)
	// One whole transaction per run — a scan's SIREAD locks are only
	// taken the first time a transaction reads a row — so the ceiling
	// covers Begin, the tracked scan with its per-page lock batches and
	// promotions, and Rollback: nearly all of it is the lock manager's
	// (measured 113 on this freshly loaded table, whose scans meet whole
	// pages: 115 when a whole-page batch still built a target per key,
	// 141 before the scan stopped materialising its range).
	txn := func() {
		tx, err := db.Begin(TxOptions{Isolation: Serializable})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := tx.Scan("kv", lo, hi, func(string, []byte) bool { n++; return true }); err != nil || n != 100 {
			t.Fatalf("scan: %d rows, %v", n, err)
		}
		tx.Rollback()
	}
	allocs := testing.AllocsPerRun(100, txn)
	t.Logf("tracked 100-row scan transaction: %.0f allocs", allocs)
	if allocs > 115 {
		t.Fatalf("a 100-row tracked scan transaction allocates %.0f times, want <= 115", allocs)
	}
}
