//go:build !race

package pgssi

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"testing"

	"pgssi/internal/trace"
	"pgssi/internal/wal"
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
	// promotions, and Rollback (measured 43 on this freshly loaded table,
	// whose scans meet whole pages, since a locked target's holder set
	// and a transaction's lock set stopped being maps; 113 before that,
	// when the lock manager made nearly all of them; 115 when a
	// whole-page batch still built a target per key, 141 before the scan
	// stopped materialising its range).
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
	if allocs > 43 {
		t.Fatalf("a 100-row tracked scan transaction allocates %.0f times, want <= 43", allocs)
	}
}

// TestSerializablePointTxnAllocs pins what SERIALIZABLE adds to a point
// transaction — Begin, two Gets on different heap pages, one Put,
// Commit — over the same transaction at REPEATABLE READ: the SSI
// bookkeeping (the transaction's Xact, its SIREAD locks in the lock
// table and in its own lock set, the write probe, the commit's retire
// and the reclaim pass it may start) may allocate at most twice.
// (Measured 23 against 9 when every locked target and every lock set was
// a fresh map.) A target a committed predecessor still holds, until the
// background reclaimer drops it, spills its holder set into a map, at a
// rate set by the reclaimer's timing, which this does not measure: runs
// read rows 67 apart, so neighbouring runs share no heap page or index
// leaf, and a collection is forced before the count so none starts
// inside it (a collection's mark workers can keep the reclaimer off the
// CPU for long enough that runs a few hundred apart, which do share
// leaves, overlap). Both levels run warm, so the lock table's and the
// commit log's maps have grown to their working size first.
func TestSerializablePointTxnAllocs(t *testing.T) {
	const rows = 20000
	db := newSessionDB(t, "kv")
	loadRows(t, db, "kv", rows)
	// Keys are built outside the measured function; fmt allocates.
	var keys [1 << 10][3]string
	for i := range keys {
		at := func(off int) string { return fmt.Sprintf("k%08d", (67*i+off)%rows) }
		keys[i] = [3]string{at(0), at(rows / 2), at(rows / 4)}
	}
	i := 0
	measure := func(level IsolationLevel) float64 {
		txn := func() {
			k := &keys[i%len(keys)]
			i++
			tx, err := db.Begin(TxOptions{Isolation: level})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range k[:2] {
				if _, err := tx.Get("kv", r); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Put("kv", k[2], []byte("w")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		for range 500 {
			txn()
		}
		runtime.GC()
		return testing.AllocsPerRun(200, txn)
	}
	ser, rr := measure(Serializable), measure(RepeatableRead)
	t.Logf("point transaction: %.0f allocs at Serializable, %.0f at RepeatableRead", ser, rr)
	if ser > rr+2 {
		t.Fatalf("a serializable point transaction allocates %.0f times, want <= %.0f (RepeatableRead's %.0f + 2)", ser, rr+2, rr)
	}
}

// TestSummarizeUnderPinnedHorizonAllocs pins the §6.2 summarisation path
// behind an open Serializable reader, which holds the horizon so nothing
// retired can be reclaimed: every commit past MaxCommittedXacts folds the
// oldest retired transaction into the summary. What such a commit
// allocates must not grow with how many transactions the retire queue
// retains. The queue is sized by MaxCommittedXacts, so the test sets it
// to the retained count: with 1 000 and with 8 000, bytes per commit
// over 500 commits must be within 2× of each other. (Measured 10 010
// against 67 343 bytes when each such commit copied the surviving queue
// into a new slice.)
//
// Every such commit used to run a full reclaim pass first, and behind a
// pinned horizon every one of them found nothing; the pass is now
// skipped while the horizon has not moved, so the 500 measured commits
// must run no reclaim pass at all (they ran 500). No commit of the
// schedule wakes the background reclaimer after the fill's last batch
// wake, at least 100 commits and a ReclaimNow before the window.
func TestSummarizeUnderPinnedHorizonAllocs(t *testing.T) {
	const rows, commits = 1000, 500
	keys := make([]string, rows)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", i)
	}
	perCommit := func(retained int) float64 {
		var passes atomic.Int64
		db := OpenWithHooks(Config{MaxCommittedXacts: retained}, Hooks{Trace: func(ev trace.Event) {
			if ev.Point == trace.ReclaimScan {
				passes.Add(1)
			}
		}})
		defer db.Close()
		if err := db.CreateTable("kv"); err != nil {
			t.Fatal(err)
		}
		loadRows(t, db, "kv", rows)
		reader, err := db.Begin(TxOptions{Isolation: Serializable})
		if err != nil {
			t.Fatal(err)
		}
		defer reader.Rollback()
		if _, err := reader.Get("kv", keys[0]); err != nil {
			t.Fatal(err)
		}
		i := 0
		commit := func() {
			k := keys[1+i%(rows-1)]
			i++
			tx, err := db.Begin(TxOptions{Isolation: Serializable})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Get("kv", k); err != nil {
				t.Fatal(err)
			}
			if err := tx.Put("kv", k, []byte("w")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// Fill the queue, then run past it so summarisation is warm.
		for range retained + 100 {
			commit()
		}
		db.ssi.ReclaimNow()
		runtime.GC()
		passes.Store(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range commits {
			commit()
		}
		runtime.ReadMemStats(&after)
		if n := passes.Load(); n != 0 {
			t.Errorf("%d retained: %d reclaim passes in %d commits behind a pinned horizon, want 0", retained, n, commits)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / commits
	}
	small, large := perCommit(1000), perCommit(8000)
	t.Logf("bytes per commit behind a pinned horizon: %.0f with 1000 transactions retained, %.0f with 8000", small, large)
	if large > 2*small || small > 2*large {
		t.Fatalf("bytes per commit grow with the retire queue: %.0f with 1000 retained, %.0f with 8000 (want within 2x)", small, large)
	}
}

// TestBulkInsertAllocs pins what a bulk load allocates per row: one
// 5 000-row ReadCommitted transaction of ascending keys, each above
// every key already loaded, on an in-memory database with an in-memory
// log — the shape of the benchmark's preload and of cmd/pgssid's
// -preload. A row's slot, version and value go into its heap page's
// preallocated arrays and its key into its index leaf's arena; the pages,
// the index's leaves, the write set's log and the commit record grow by
// amortised appends. (Measured 0.26 allocations per row; 0.31 when a
// page's key block held the keys, 2.23 when a row's slot and its version
// were objects of their own, 3.24 when the write set was a map from key
// to a slice of versions, one slice per key.)
func TestBulkInsertAllocs(t *testing.T) {
	const rows, runs = 5000, 8
	db := Open(Config{})
	defer db.Close()
	if err := db.AttachWAL(wal.NewLog()); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	// Keys are built outside the measured function; fmt allocates.
	keys := make([]string, (runs+1)*rows)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", i)
	}
	value := []byte("0123456789abcdef")
	next := 0
	load := func() {
		tx, err := db.Begin(TxOptions{Isolation: ReadCommitted})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys[next : next+rows] {
			if err := tx.Insert("kv", k, value); err != nil {
				t.Fatal(err)
			}
		}
		next += rows
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	perRow := testing.AllocsPerRun(runs, load) / rows
	t.Logf("bulk insert: %.2f allocations per row (%.0f per run)", perRow, perRow*rows)
	if perRow > 0.27 {
		t.Fatalf("a %d-row insert transaction allocates %.2f times per row, want <= 0.27", rows, perRow)
	}
}

// TestHeapBytesPerRowAllocs pins what a loaded row costs to keep: 100 000
// rows of the benchmark's shape (10-byte key, 16-byte value) loaded in
// ascending order through ReadCommitted transactions of 5 000 rows, then
// a forced collection; the live heap bytes and heap objects the load
// added, per row, must stay under ceilings set at this representation's
// measurement, with room for what the package's earlier tests leave
// behind. (Measured 112.7 bytes alone, 113.1 after the rest of the
// package, and 0.144 objects: a row is a 48-byte version header and its
// value in its page's arena, and its key and leaf entry in a B+-tree
// leaf's arena and entries, whose leaves an ascending load leaves half
// full; 138.2 bytes and 0.160 objects when the leaves held their keys as
// strings into a key block on the row's heap page, and 196.5 bytes and
// 3.10 objects when a row was a slot object and a version object holding
// its key and value.)
func TestHeapBytesPerRowAllocs(t *testing.T) {
	const rows = 100000
	var before, after runtime.MemStats
	db := openKV(t)
	defer db.Close()
	runtime.GC()
	runtime.ReadMemStats(&before)
	loadAscending(t, db, rows)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	bytes := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / rows
	objects := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / rows
	t.Logf("loaded table: %.1f live bytes and %.3f heap objects per row", bytes, objects)
	if bytes > 115 {
		t.Errorf("a loaded row keeps %.1f bytes live, want <= 115", bytes)
	}
	if objects > 0.17 {
		t.Errorf("a loaded row keeps %.3f heap objects live, want <= 0.17", objects)
	}
}

// TestScannableBytesPerRowAllocs pins what a loaded row costs the
// garbage collector: the same 100 000-row load as
// TestHeapBytesPerRowAllocs, then a forced collection, and the growth of
// the scannable heap (runtime/metrics /gc/scan/heap:bytes, the bytes of
// live objects up to their last pointer) per row. Every cycle marks that
// much, so it is what a read-mostly workload pays the collector for the
// table's size. (Measured 5.8 bytes: the B+-tree's node headers and the
// heap pages' slice headers; a row's version header, value, key and
// leaf entry hold no pointer. 46.0 bytes when leaves held their keys as
// strings, one pointer per key.)
func TestScannableBytesPerRowAllocs(t *testing.T) {
	const rows = 100000
	scannable := func() int64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
		metrics.Read(s)
		if s[0].Value.Kind() != metrics.KindUint64 {
			t.Skip("runtime/metrics has no /gc/scan/heap:bytes")
		}
		return int64(s[0].Value.Uint64())
	}
	db := openKV(t)
	defer db.Close()
	before := scannable()
	loadAscending(t, db, rows)
	after := scannable()
	runtime.KeepAlive(db)
	perRow := float64(after-before) / rows
	t.Logf("loaded table: %.1f scannable bytes per row", perRow)
	if perRow > 12 {
		t.Errorf("a loaded row keeps %.1f scannable bytes, want <= 12", perRow)
	}
}

// openKV opens an in-memory database with an empty table "kv".
func openKV(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{})
	if err := db.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	return db
}

// loadAscending loads rows rows of the benchmark's shape into db's table
// "kv" in ascending key order, 5 000 to a ReadCommitted transaction.
func loadAscending(t *testing.T, db *DB, rows int) {
	t.Helper()
	const chunk = 5000
	value := []byte("0123456789abcdef")
	for lo := 0; lo < rows; lo += chunk {
		tx, err := db.Begin(TxOptions{Isolation: ReadCommitted})
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < min(lo+chunk, rows); i++ {
			if err := tx.Insert("kv", fmt.Sprintf("k%09d", i), value); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}
