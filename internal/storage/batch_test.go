package storage

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"pgssi/internal/btree"
	"pgssi/internal/mvcc"
	"pgssi/internal/trace"
	"pgssi/internal/waitgraph"
)

// Tests for the streaming scan read path (Table.Scan, Reader): the
// per-heap-page grouping contract of tracked scans (every item handed to
// onPage lives on the delivered page, each run of a page's rows once
// however the leaves cut it and however often the rows were updated),
// result parity with the point-read path, latch exclusion against
// writers of a page being registered, early stop, and behaviour under
// concurrent updates.

// batchKeys seeds n committed rows and returns their keys in order.
func batchKeys(t *testing.T, h *harness, n int) []string {
	t.Helper()
	seed := h.begin()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
		if err := h.insert(seed, keys[i], "v"+keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	h.mgr.Commit(seed.xid)
	return keys
}

// scanAll runs a whole-table scan for r, tracked (with onPage) or not,
// and returns the visible rows in delivery order.
func scanAll(t *testing.T, h *harness, r *txn, onPage func(page int64, items []string) error) (keys, vals []string) {
	t.Helper()
	err := h.tbl.Scan("", "", r.snap, r.xid, h.mgr, nil, onPage, func(lf *Leaf) (bool, error) {
		if len(lf.Keys) != len(lf.Vals) {
			t.Errorf("leaf has %d keys but %d results", len(lf.Keys), len(lf.Vals))
		}
		for i, v := range lf.Vals {
			if v != nil {
				keys = append(keys, lf.Keys[i])
				vals = append(vals, string(v))
			}
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, vals
}

func TestScanParityWithGet(t *testing.T) {
	for _, tracked := range []bool{true, false} {
		t.Run(fmt.Sprintf("tracked=%v", tracked), func(t *testing.T) {
			h := newHarness(t)
			keys := batchKeys(t, h, 150) // spans 3 heap pages and several leaves
			// A deleted row and an uncommitted insert must not show up.
			d := h.begin()
			if _, err := h.tbl.Delete(keys[7], d.xid, 0, d.snap, h.mgr, h.wg, nil); err != nil {
				t.Fatal(err)
			}
			h.mgr.Commit(d.xid)
			u := h.begin()
			if err := h.insert(u, "k9999", "uncommitted"); err != nil {
				t.Fatal(err)
			}
			r := h.begin()
			var onPage func(int64, []string) error
			onPaged := map[string]bool{}
			if tracked {
				onPage = func(page int64, items []string) error {
					for _, k := range items {
						if h.pageOf(k) != page {
							t.Errorf("item %q delivered under page %d but lives on page %d", k, page, h.pageOf(k))
						}
						if onPaged[k] {
							t.Errorf("key %q registered twice", k)
						}
						onPaged[k] = true
					}
					return nil
				}
			}
			gotKeys, gotVals := scanAll(t, h, r, onPage)
			var want []string
			for _, k := range keys {
				if v, ok := h.get(r, k); ok {
					want = append(want, k+"="+v)
				}
			}
			if len(gotKeys) != len(want) || len(want) != len(keys)-1 {
				t.Fatalf("scan returned %d rows, point reads %d, want %d", len(gotKeys), len(want), len(keys)-1)
			}
			for i := range gotKeys {
				if got := gotKeys[i] + "=" + gotVals[i]; got != want[i] {
					t.Fatalf("row %d: scan %q, point read %q", i, got, want[i])
				}
				if tracked && !onPaged[gotKeys[i]] {
					t.Fatalf("visible row %q never passed through onPage", gotKeys[i])
				}
			}
			h.rollback(u, "k9999")
		})
	}
}

// TestScanRegistersEachPageOnce pins the lock grain of a tracked scan:
// index leaves and heap pages divide the key space at different places,
// and a run of rows that share a heap page is still handed to onPage in
// one call — the page's rows a batch ends on wait for the next batch —
// so what the caller registers per page is what a whole-range grouping
// would have registered.
func TestScanRegistersEachPageOnce(t *testing.T) {
	h := newHarness(t)
	keys := batchKeys(t, h, 5*TuplesPerPage+17)
	want := map[int64]int{} // heap page → rows on it
	r := h.begin()
	for _, k := range keys {
		want[h.pageOf(k)]++
	}
	for _, rng := range [][2]string{{"", ""}, {keys[40], keys[300]}, {keys[63], keys[64]}, {keys[10], keys[20]}} {
		got := map[int64]int{}
		inRange := map[int64]int{}
		for _, k := range keys {
			if k >= rng[0] && (rng[1] == "" || k < rng[1]) {
				inRange[h.pageOf(k)]++
			}
		}
		delivered := 0
		err := h.tbl.Scan(rng[0], rng[1], r.snap, r.xid, h.mgr, nil,
			func(page int64, its []string) error {
				if got[page] != 0 {
					t.Errorf("range %q: heap page %d registered twice", rng, page)
				}
				got[page] += len(its)
				return nil
			},
			func(lf *Leaf) (bool, error) {
				for i, v := range lf.Vals {
					if v == nil || string(v) != "v"+lf.Keys[i] {
						t.Errorf("range %q: delivered %q unresolved", rng, lf.Keys[i])
					} else if got[h.pageOf(lf.Keys[i])] == 0 {
						t.Errorf("range %q: %q delivered before its page was registered", rng, lf.Keys[i])
					}
				}
				delivered += len(lf.Keys)
				return true, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(inRange) {
			t.Fatalf("range %q: %d pages registered, rows live on %d", rng, len(got), len(inRange))
		}
		rows := 0
		for page, n := range inRange {
			if got[page] != n {
				t.Fatalf("range %q: page %d registered with %d rows, holds %d of the range", rng, page, got[page], n)
			}
			rows += n
		}
		if delivered != rows {
			t.Fatalf("range %q: delivered %d rows, want %d", rng, delivered, rows)
		}
	}
	if len(want) < 5 {
		t.Fatalf("test data spans %d heap pages, want several", len(want))
	}
}

// TestScanHeldRowsAreBounded: updated rows among untouched ones and long
// runs with nothing visible must not make a tracked scan hold back more
// than a batch: every row is delivered, in order, with its page
// registered first.
func TestScanHeldRowsAreBounded(t *testing.T) {
	h := newHarness(t)
	keys := batchKeys(t, h, 400)
	w := h.begin()
	for i, k := range keys {
		switch {
		case i%7 == 0:
			if _, err := h.tbl.Update(k, []byte("moved"), w.xid, 0, w.snap, h.mgr, h.wg, nil); err != nil {
				t.Fatal(err)
			}
		case i >= 100 && i < 290:
			if _, err := h.tbl.Delete(k, w.xid, 0, w.snap, h.mgr, h.wg, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.mgr.Commit(w.xid)
	r := h.begin()
	registered := map[string]bool{}
	var got []string
	err := h.tbl.Scan("", "", r.snap, r.xid, h.mgr, nil,
		func(page int64, its []string) error {
			for _, k := range its {
				registered[k] = true
			}
			return nil
		},
		func(lf *Leaf) (bool, error) {
			if len(lf.Keys) > 2*btree.MaxLeaf {
				t.Errorf("delivery of %d rows", len(lf.Keys))
			}
			for i, v := range lf.Vals {
				if v != nil {
					if !registered[lf.Keys[i]] {
						t.Errorf("%q delivered unregistered", lf.Keys[i])
					}
					got = append(got, lf.Keys[i])
				}
			}
			return true, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, k := range keys {
		if _, ok := h.get(r, k); ok {
			want = append(want, k)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan delivered %d rows, point reads see %d", len(got), len(want))
	}
}

// TestScanStopsAtLeaf pins the streaming contract: a scan whose deliver
// says stop has announced (and so locked) only the leaves of the batches
// up to that one — a batch being at most btree.MaxLeaf rows, i.e. two of
// the half-full leaves sequential loading leaves — however long the
// range.
func TestScanStopsAtLeaf(t *testing.T) {
	h := newHarness(t)
	batchKeys(t, h, 1000)
	r := h.begin()
	leaves, delivered := 0, 0
	err := h.tbl.Scan("", "", r.snap, r.xid, h.mgr, func(btree.PageID) { leaves++ }, nil, func(lf *Leaf) (bool, error) {
		delivered += len(lf.Keys)
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaves > 2 || delivered == 0 || delivered > btree.MaxLeaf {
		t.Fatalf("stopped scan visited %d leaves and read %d rows, want at most 2 leaves and %d rows", leaves, delivered, btree.MaxLeaf)
	}
}

// TestScanLatchExcludesWriter parks the onPage callback while it holds a
// page's shared latch and asserts a writer superseding a version on that
// page blocks until the callback returns — the batched form of the PR 2
// invariant (registration can complete before any writer of the page
// stamps a version).
func TestScanLatchExcludesWriter(t *testing.T) {
	h := newHarness(t)
	keys := batchKeys(t, h, 2)
	r := h.begin()
	inBatch := make(chan int64, 4)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		scanAll(t, h, r, func(page int64, items []string) error {
			inBatch <- page
			<-release
			return nil
		})
	}()
	<-inBatch

	w := h.begin()
	wrote := make(chan error, 1)
	go func() {
		wrote <- h.update(w, keys[0], "clobbered")
	}()
	select {
	case err := <-wrote:
		t.Fatalf("writer finished (err=%v) while the scan held the page latch", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestScanConcurrentUpdates races whole-range tracked scans against
// updaters that keep putting new versions on the rows being read, each
// taking the page's latch exclusively between the scan's shared holds.
// The onPage invariant — an item lives on the delivered page — is
// asserted on every delivery, and every scan must see every row exactly
// once.
func TestScanConcurrentUpdates(t *testing.T) {
	h := newHarness(t)
	keys := batchKeys(t, h, 96)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for wk := 0; wk < 2; wk++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 7))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := h.begin()
				k := keys[rng.IntN(len(keys))]
				if err := h.update(w, k, "u"); err != nil {
					h.mgr.Abort(w.xid)
					continue
				}
				h.mgr.Commit(w.xid)
				h.mgr.AutoTruncate(h.mgr.OldestSnapshot()) // keep the trim horizon moving
			}
		}(uint64(wk + 1))
	}
	for i := 0; i < 40; i++ {
		r := h.begin()
		got, _ := scanAll(t, h, r, func(page int64, items []string) error {
			for _, k := range items {
				if h.pageOf(k) != page {
					t.Errorf("latched item %q on page %d delivered under page %d", k, h.pageOf(k), page)
				}
			}
			return nil
		})
		if len(got) != len(keys) {
			t.Fatalf("scan %d: %d visible rows, want %d (every key stays live)", i, len(got), len(keys))
		}
		for j := range got {
			if got[j] != keys[j] {
				t.Fatalf("scan %d: row %d is %q, want %q", i, j, got[j], keys[j])
			}
		}
		h.mgr.Abort(r.xid)
	}
	close(stop)
	wg.Wait()
}

// TestScanHookRunsUnderLatch pins the Read trace point's placement on the
// scan path: it must fire with the page latch held (a writer of the page
// cannot complete while a hooked reader is parked), mirroring the
// point-read path's contract the interleaving harness relies on.
func TestScanHookRunsUnderLatch(t *testing.T) {
	hooked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := Config{Trace: func(ev trace.Event) {
		if ev.Key == "k0000" {
			once.Do(func() {
				close(hooked)
				<-release
			})
		}
	}}
	mgr := mvcc.NewManager()
	tbl := NewTable("t", cfg)
	wg := waitgraph.New()
	seed := mgr.Begin()
	snap := mgr.TakeSnapshot()
	if _, err := tbl.Insert("k0000", []byte("v"), seed, 0, snap, mgr, wg); err != nil {
		t.Fatal(err)
	}
	mgr.Commit(seed)

	r := mgr.Begin()
	rsnap := mgr.TakeSnapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := tbl.Scan("", "", rsnap, r, mgr, nil,
			func(int64, []string) error { return nil },
			func(*Leaf) (bool, error) { return true, nil })
		if err != nil {
			t.Error(err)
		}
	}()
	<-hooked

	w := mgr.Begin()
	wsnap := mgr.TakeSnapshot()
	wrote := make(chan error, 1)
	go func() {
		_, err := tbl.Update("k0000", []byte("x"), w, 0, wsnap, mgr, wg, nil)
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("writer finished (err=%v) while the hooked scan held the latch", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestReadKeysResolvesByLookup covers the secondary-index way in: keys
// named rather than walked, absent ones included.
func TestReadKeysResolvesByLookup(t *testing.T) {
	h := newHarness(t)
	keys := batchKeys(t, h, 10)
	r := h.begin()
	registered := 0
	rd := h.tbl.NewReader(r.snap, r.xid, h.mgr, func(_ int64, items []string) error {
		registered += len(items)
		return nil
	})
	lf, err := rd.ReadKeys([]string{keys[3], "never-inserted", keys[8]})
	if err != nil {
		t.Fatal(err)
	}
	if string(lf.Vals[0]) != "v"+keys[3] || lf.Vals[1] != nil || string(lf.Vals[2]) != "v"+keys[8] {
		t.Fatalf("ReadKeys results wrong: %+v", lf.Vals)
	}
	if registered != 2 {
		t.Fatalf("registered %d rows, want the 2 visible ones", registered)
	}
}

// TestScanRunsSurviveUpdates is the point of keeping a row on its page:
// a tracked scan of rows loaded in key order makes one onPage call per
// heap page it touches (a range of n rows touches ⌈n/64⌉ pages, one more
// when it starts inside one) — and still does after every row was
// updated, once or five times. When updates moved rows to the table's
// tail this count grew with the table's update history.
func TestScanRunsSurviveUpdates(t *testing.T) {
	const rows = 1000
	for _, updates := range []int{0, 1, 5} {
		h := newHarness(t)
		keys := batchKeys(t, h, rows+100)
		for u := 0; u < updates; u++ {
			// In scattered order, the way a transactional mix updates:
			// in key order even a heap that moved every row to its tail
			// would have rebuilt whole pages.
			w := h.begin()
			for i := range keys {
				if err := h.update(w, keys[i*617%len(keys)], fmt.Sprintf("u%d", u)); err != nil {
					t.Fatal(err)
				}
			}
			h.mgr.Commit(w.xid)
			h.mgr.AutoTruncate(h.mgr.OldestSnapshot())
		}
		r := h.begin()
		calls, items := 0, 0
		err := h.tbl.Scan(keys[50], keys[50+rows], r.snap, r.xid, h.mgr, nil,
			func(_ int64, its []string) error {
				calls++
				items += len(its)
				return nil
			},
			func(*Leaf) (bool, error) { return true, nil })
		if err != nil {
			t.Fatal(err)
		}
		if want := (rows + TuplesPerPage - 1) / TuplesPerPage; items != rows || calls < want || calls > want+1 {
			t.Fatalf("after %d updates of every row: %d onPage calls for %d rows, want %d or %d for %d",
				updates, calls, items, want, want+1, rows)
		}
	}
}
