package btree

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	_, ok, page := tr.Lookup("x", nil)
	if ok {
		t.Fatal("lookup in empty tree must miss")
	}
	if page == 0 {
		t.Fatal("even a miss must name the gap page")
	}
	pages := 0
	tr.Range("", "", func(PageID) { pages++ }, func(string, string) bool { t.Fatal("no entries expected"); return false })
	if pages != 1 {
		t.Fatalf("empty range should visit exactly the root leaf, got %d pages", pages)
	}
}

func TestInsertLookup(t *testing.T) {
	tr := New()
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%04d", i)
		if _, added, _ := tr.Insert(k, k+"v"); !added {
			t.Fatalf("insert %s reported not-added", k)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tr.Len())
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%04d", i)
		v, ok, _ := tr.Lookup(k, nil)
		if !ok || v != k+"v" {
			t.Fatalf("lookup %s = %q, %v", k, v, ok)
		}
	}
	// Overwrite does not add.
	if _, added, _ := tr.Insert("k0000", "new"); added {
		t.Fatal("overwrite must not report added")
	}
	if v, _, _ := tr.Lookup("k0000", nil); v != "new" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d after an overwrite, want 500", tr.Len())
	}
}

func TestRangeOrderAndBounds(t *testing.T) {
	tr := New()
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("%04d", i*2)
		tr.Insert(k, "")
	}
	var got []string
	tr.Range("0100", "0200", nil, func(k, _ string) bool {
		got = append(got, k)
		return true
	})
	var want []string
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("%04d", i*2)
		if k >= "0100" && k < "0200" {
			want = append(want, k)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("range returned %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("range[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("range results not sorted")
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(fmt.Sprintf("%03d", i), "")
	}
	n := 0
	tr.Range("", "", nil, func(string, string) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("scan visited %d keys, want 10", n)
	}
}

func TestOnPageCallbackCoversVisitedLeaves(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(fmt.Sprintf("%05d", i), "")
	}
	// Every delivered key lives on the page most recently announced, and
	// pages are announced once each.
	var pages []PageID
	under := map[string]PageID{}
	tr.Range("", "", func(p PageID) { pages = append(pages, p) }, func(k, _ string) bool {
		under[k] = pages[len(pages)-1]
		return true
	})
	if len(pages) < 2 {
		t.Fatalf("1000 keys should span multiple leaves, got %d", len(pages))
	}
	seen := map[PageID]bool{}
	for _, p := range pages {
		if seen[p] {
			t.Fatalf("page %d announced twice", p)
		}
		seen[p] = true
	}
	for k, announced := range under {
		if _, _, p := tr.Lookup(k, nil); p != announced {
			t.Fatalf("key %s delivered under page %d, lives on %d", k, announced, p)
		}
	}
}

func TestSplitsReported(t *testing.T) {
	tr := New()
	seenSplit := false
	pageOf := map[string]PageID{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("%05d", i)
		page, _, splits := tr.Insert(k, "")
		pageOf[k] = page
		for _, sp := range splits {
			seenSplit = true
			if sp.Left == sp.Right {
				t.Fatal("split with identical pages")
			}
			// Update our view of key → page for moved keys.
			for kk := range pageOf {
				_, ok2, lp := tr.Lookup(kk, nil)
				if !ok2 {
					t.Fatalf("key %s lost after split", kk)
				}
				pageOf[kk] = lp
			}
		}
	}
	if !seenSplit {
		t.Fatal("2000 sequential inserts should split leaves")
	}
	// Reported page must match the lookup's view.
	for k, p := range pageOf {
		if _, _, lp := tr.Lookup(k, nil); lp != p {
			t.Fatalf("key %s: tracked page %d, lookup page %d", k, p, lp)
		}
	}
}

// Property: after arbitrary inserts and overwrites (entries are never
// removed), the tree agrees with a reference map and keeps its structural
// invariants.
func TestQuickTreeMatchesReferenceMap(t *testing.T) {
	f := func(seed uint64, opCount uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		tr := New()
		ref := map[string]string{}
		n := int(opCount)*4 + 50
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("%03d", rng.IntN(200))
			v := fmt.Sprintf("v%d", i)
			_, added, _ := tr.Insert(k, v)
			if _, had := ref[k]; added == had {
				return false
			}
			ref[k] = v
		}
		if tr.Len() != len(ref) {
			return false
		}
		if tr.CheckInvariants() != "" {
			return false
		}
		for k, v := range ref {
			got, ok, _ := tr.Lookup(k, nil)
			if !ok || got != v {
				return false
			}
		}
		// Full scan returns exactly the reference keys, sorted.
		var keys []string
		tr.Range("", "", nil, func(k, v string) bool {
			if ref[k] != v {
				return false
			}
			keys = append(keys, k)
			return true
		})
		return len(keys) == len(ref) && sort.StringsAreSorted(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every range query agrees with the reference map.
func TestQuickRangeMatchesReference(t *testing.T) {
	tr := New()
	ref := map[string]bool{}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("%05d", rng.IntN(10000))
		tr.Insert(k, "")
		ref[k] = true
	}
	f := func(a, b uint16) bool {
		lo := fmt.Sprintf("%05d", int(a)%10000)
		hi := fmt.Sprintf("%05d", int(b)%10000)
		if hi < lo {
			lo, hi = hi, lo
		}
		want := 0
		for k := range ref {
			if k >= lo && k < hi {
				want++
			}
		}
		got := 0
		tr.Range(lo, hi, nil, func(string, string) bool { got++; return true })
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a typed payload keeps its identity. The table's primary tree
// hands out TIDs as row slots, so whatever GetOrInsert returned for a
// key must be what Lookup, Range and Leaves return for it ever after,
// across any number of leaf and root splits, and a second GetOrInsert
// must not replace it.
func TestQuickPayloadIdentityAcrossSplits(t *testing.T) {
	type slot struct{ key string }
	f := func(seed uint64, count uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		tr := NewOf[*slot]()
		ref := map[string]*slot{}
		n := int(count)%3000 + 200
		splits := 0
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("%05d", rng.IntN(4000))
			made := 0
			got, page, added, sp := tr.GetOrInsert(k, func() *slot { made++; return &slot{key: k} })
			if (made == 1) != added {
				// The constructor runs exactly when the key is new.
				return false
			}
			splits += len(sp)
			if old, ok := ref[k]; ok {
				if added || got != old {
					return false
				}
			} else {
				if !added || got.key != k {
					return false
				}
				ref[k] = got
			}
			if _, _, p := tr.Lookup(k, nil); p != page {
				return false
			}
		}
		if splits == 0 || tr.CheckInvariants() != "" || tr.Len() != len(ref) {
			return false
		}
		for k, want := range ref {
			if got, ok, _ := tr.Lookup(k, nil); !ok || got != want {
				return false
			}
		}
		seen := 0
		tr.Range("", "", nil, func(k string, v *slot) bool {
			seen++
			return v == ref[k]
		})
		return seen == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Leaves delivers exactly what Range delivers, in order, in
// batches of at most MaxLeaf, and announces the same pages.
func TestQuickLeavesMatchesRange(t *testing.T) {
	type slot struct{ key string }
	tr := NewOf[*slot]()
	rng := rand.New(rand.NewPCG(11, 11))
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("%05d", rng.IntN(20000))
		tr.GetOrInsert(k, func() *slot { return &slot{key: k} })
	}
	f := func(a, b uint16, unbounded bool) bool {
		lo := fmt.Sprintf("%05d", int(a)%20000)
		hi := fmt.Sprintf("%05d", int(b)%20000)
		if hi < lo {
			lo, hi = hi, lo
		}
		if unbounded {
			hi = ""
		}
		var wantKeys []string
		var wantPages []PageID
		tr.Range(lo, hi, func(p PageID) { wantPages = append(wantPages, p) }, func(k string, v *slot) bool {
			wantKeys = append(wantKeys, k)
			return true
		})
		var gotKeys []string
		var gotPages []PageID
		ok := true
		tr.Leaves(lo, hi, func(p PageID) { gotPages = append(gotPages, p) }, func(keys []string, vals []*slot) bool {
			if len(keys) != len(vals) || len(keys) > MaxLeaf {
				ok = false
			}
			for i, k := range keys {
				if vals[i].key != k {
					ok = false
				}
			}
			gotKeys = append(gotKeys, keys...)
			return true
		})
		return ok && fmt.Sprint(gotKeys) == fmt.Sprint(wantKeys) && fmt.Sprint(gotPages) == fmt.Sprint(wantPages)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLeavesMatchesRangeAcrossSplits grows a tree by seeded rounds of
// ascending runs and random inserts, so its leaves split again and again,
// and after each round compares Leaves' concatenated batches and
// announced pages with Range's for random bounds. Half the bounds are
// taken from the leaves themselves — a leaf's first key, its last key, or
// just past its last — because those are where Leaves stops searching: it
// searches lo in the first leaf only and hi only in the leaf whose last
// key reaches it.
func TestLeavesMatchesRangeAcrossSplits(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 1))
	tr := New()
	high := 0
	bound := func() string {
		if rng.IntN(2) == 0 {
			return fmt.Sprintf("%06d", rng.IntN(high+100))
		}
		tr.mu.RLock()
		defer tr.mu.RUnlock()
		n := tr.descend(fmt.Sprintf("%06d", rng.IntN(high+1)))
		switch rng.IntN(3) {
		case 0:
			return n.key(0)
		case 1:
			return n.key(len(n.ents) - 1)
		}
		return n.key(len(n.ents)-1) + "0"
	}
	for round := 0; round < 40; round++ {
		for n := 50 + rng.IntN(200); n > 0; n-- {
			if rng.IntN(3) == 0 {
				tr.Insert(fmt.Sprintf("%06d", rng.IntN(high+1)), "")
			} else {
				high += 1 + rng.IntN(4)
				tr.Insert(fmt.Sprintf("%06d", high), "")
			}
		}
		for q := 0; q < 50; q++ {
			lo, hi := bound(), bound()
			switch rng.IntN(4) {
			case 0:
				hi = ""
			case 1:
				lo = ""
			}
			var want, got []string
			var wantPages, gotPages []PageID
			tr.Range(lo, hi, func(p PageID) { wantPages = append(wantPages, p) }, func(k, _ string) bool {
				want = append(want, k)
				return true
			})
			tr.Leaves(lo, hi, func(p PageID) { gotPages = append(gotPages, p) }, func(keys, _ []string) bool {
				got = append(got, keys...)
				return true
			})
			if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(gotPages) != fmt.Sprint(wantPages) {
				t.Fatalf("round %d, [%q, %q): Leaves gave %d keys over pages %v, Range %d keys over pages %v",
					round, lo, hi, len(got), gotPages, len(want), wantPages)
			}
		}
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestLeavesStopsEarly: a walk cut short by its callback has announced
// only the leaves of the batches it was handed.
func TestLeavesStopsEarly(t *testing.T) {
	tr := New()
	for i := 0; i < 5000; i++ {
		tr.Insert(fmt.Sprintf("%05d", i), "")
	}
	pages, batches := 0, 0
	tr.Leaves("", "", func(PageID) { pages++ }, func(keys []string, _ []string) bool {
		batches++
		return false
	})
	if batches != 1 || pages > 2 {
		t.Fatalf("stopped walk saw %d batches over %d pages, want 1 batch of at most 2 pages", batches, pages)
	}
}

// TestLeavesSurvivesSplitsBetweenBatches inserts into the tree from
// inside the callback — the tree lock is down there — so leaves split
// under the walk: every key present from the start is still delivered
// exactly once, in order.
func TestLeavesSurvivesSplitsBetweenBatches(t *testing.T) {
	tr := New()
	for i := 0; i < 2000; i++ {
		tr.Insert(fmt.Sprintf("%05d0", i), "orig")
	}
	var got []string
	n := 0
	tr.Leaves("", "", nil, func(keys []string, vals []string) bool {
		for i, k := range keys {
			if vals[i] == "orig" {
				got = append(got, k)
			}
		}
		// Crowd the leaves just ahead of and behind the walk.
		for j := 0; j < 40; j++ {
			n++
			tr.Insert(fmt.Sprintf("%05d%d", (n*37)%2000, 1+n%9), "new")
		}
		return true
	})
	if len(got) != 2000 || !sort.StringsAreSorted(got) {
		t.Fatalf("walk under splits delivered %d of the 2000 original keys (sorted=%v)", len(got), sort.StringsAreSorted(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("key %s delivered twice", got[i])
		}
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// descendPage is the page a full root-to-leaf descent reaches for key,
// the answer every shortcut must agree with.
func descendPage[V any](tr *Tree[V], key string) PageID {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.descend(key).page
}

// Property: the right-edge fast paths return exactly the page a descent
// would. A seeded mix of ascending runs (keys above the current
// maximum, the bulk-load shape, which fill and split the rightmost
// leaf), random inserts below it, GetOrInsert of keys already present,
// overwriting Inserts, and Lookups (hits, misses in the middle, misses
// past the maximum) runs across many splits; after every step the page
// each call returned (and announced to onPage) is the descent's page for
// its key, the payloads agree with a reference map, and CheckInvariants
// (which checks that the cached rightmost leaf is the chain's last)
// reports nothing.
func TestAppendPathMatchesDescent(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 50))
		tr := NewOf[int]()
		ref := map[string]int{}
		var keys []string
		high := 0 // ascending keys are k<high>, above every key so far
		key := func(i int) string { return fmt.Sprintf("k%07d", i) }
		fail := func(step int, op, k string, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d %s(%s): %s", seed, step, op, k, fmt.Sprintf(format, args...))
		}
		for step := 0; step < 1200; step++ {
			var op, k string
			var page PageID
			switch r := rng.IntN(10); {
			case r < 4: // an ascending run
				for n := 1 + rng.IntN(24); n > 0; n-- {
					high += 1 + rng.IntN(3)
					k = key(high)
					got, p, added, _ := tr.GetOrInsert(k, func() int { return high })
					if !added || got != high {
						fail(step, "GetOrInsert", k, "appended key: got %d added=%v", got, added)
					}
					ref[k] = high
					keys = append(keys, k)
					if want := descendPage(tr, k); p != want {
						fail(step, "GetOrInsert", k, "page %d, descent reaches %d", p, want)
					}
				}
				op, page = "GetOrInsert", descendPage(tr, k)
			case r < 6: // a random insert, usually below the maximum
				op, k = "Insert", key(rng.IntN(high+10))
				v := rng.IntN(1 << 20)
				var added bool
				page, added, _ = tr.Insert(k, v)
				if _, had := ref[k]; added == had {
					fail(step, op, k, "added=%v with key present=%v", added, had)
				}
				if _, had := ref[k]; !had {
					keys = append(keys, k)
				}
				ref[k] = v
				if k > key(high) {
					high, _ = strconv.Atoi(k[1:])
				}
			case r < 8 && len(keys) > 0: // GetOrInsert of a present key
				op, k = "GetOrInsert", keys[rng.IntN(len(keys))]
				got, p, added, _ := tr.GetOrInsert(k, func() int { t.Fatal("constructor ran for a present key"); return 0 })
				if added || got != ref[k] {
					fail(step, op, k, "got %d added=%v, want %d", got, added, ref[k])
				}
				page = p
			default: // a Lookup: hit, gap, or past the maximum
				switch rng.IntN(3) {
				case 0:
					if len(keys) > 0 {
						k = keys[rng.IntN(len(keys))]
						break
					}
					fallthrough
				case 1:
					k = key(rng.IntN(high+1)) + "x"
				default:
					k = key(high + 1 + rng.IntN(5))
				}
				op = "Lookup"
				var announced PageID
				v, ok, p := tr.Lookup(k, func(p PageID) { announced = p })
				if want, had := ref[k]; ok != had || v != want {
					fail(step, op, k, "got %d,%v want %d,%v", v, ok, want, had)
				}
				if announced != p {
					fail(step, op, k, "announced page %d, returned %d", announced, p)
				}
				page = p
			}
			if want := descendPage(tr, k); page != want {
				fail(step, op, k, "page %d, descent reaches %d", page, want)
			}
			if msg := tr.CheckInvariants(); msg != "" {
				fail(step, op, k, "invariant violated: %s", msg)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("seed %d: Len %d, reference holds %d", seed, tr.Len(), len(ref))
		}
		if tr.nextPage < 50 {
			t.Fatalf("seed %d: only %d pages; the run should cross many splits", seed, tr.nextPage-1)
		}
	}
}

// height is the number of levels from the root to the leaves.
func height[V any](tr *Tree[V]) int {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	h := 1
	for n := tr.root; !n.leaf(); n = n.children[0] {
		h++
	}
	return h
}

// TestIndexKeysSurviveInserts: a key that Range or Leaves hands out is a
// view of its leaf's arena, and must read the same for as long as it is
// held, whatever is inserted after it — a key in the middle of a leaf
// whose arena has room left (the new rightmost leaf of an ascending load
// has), leaf splits, root splits. A held key also still finds its entry
// through Lookup.
func TestIndexKeysSurviveInserts(t *testing.T) {
	tr := NewOf[int]()
	key := func(i int) string { return fmt.Sprintf("k%07d", i) }
	type held struct{ view, copy string }
	var kept []held
	take := func() {
		tr.Range("", "", nil, func(k string, _ int) bool {
			kept = append(kept, held{k, strings.Clone(k)})
			return true
		})
		tr.Leaves("", "", nil, func(keys []string, _ []int) bool {
			for _, k := range keys {
				kept = append(kept, held{k, strings.Clone(k)})
			}
			return true
		})
	}
	check := func(phase string) {
		t.Helper()
		for _, h := range kept {
			if h.view != h.copy {
				t.Fatalf("%s: a held key reads %q, was %q", phase, h.view, h.copy)
			}
			if _, ok, _ := tr.Lookup(h.view, nil); !ok {
				t.Fatalf("%s: held key %q no longer found", phase, h.view)
			}
		}
		if msg := tr.CheckInvariants(); msg != "" {
			t.Fatalf("%s: %s", phase, msg)
		}
	}

	// An ascending load, which leaves the rightmost leaf room to grow.
	const loaded = 300
	for i := 0; i < loaded; i++ {
		tr.Insert(key(i*10), i)
	}
	take()
	// Middle inserts into that leaf, until it splits.
	for i := loaded - 1; i >= loaded-40; i-- {
		tr.Insert(key(i*10+5), i)
		check("middle insert into the rightmost leaf")
	}
	take()
	// Random inserts, across leaf splits and two root splits.
	rng := rand.New(rand.NewPCG(61, 1))
	for i := 1; i <= 6000; i++ {
		tr.Insert(key(rng.IntN(1000000)), i)
		if i%1000 == 0 {
			check("random inserts")
			take()
		}
	}
	check("the end")
	if h := height(tr); h < 3 {
		t.Fatalf("tree is %d levels high; the root should have split twice", h)
	}
}

// TestLeavesConcurrentWithMiddleInserts walks the whole tree with Leaves
// on two goroutines, each of which holds every key of its walk and then,
// with the tree lock down, reads them byte by byte, while inserts land
// between existing keys. The race detector is the check: a middle insert
// that wrote into an arena in place would race with those reads. (The
// detector does not instrument reads of a string's bytes, which are
// immutable to Go; wellFormed reads them through a byte slice.)
func TestLeavesConcurrentWithMiddleInserts(t *testing.T) {
	tr := NewOf[int]()
	key := func(i int) string { return fmt.Sprintf("k%07d", i) }
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i*100), i)
	}
	var stop atomic.Bool
	var walks atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []string
			for !stop.Load() {
				held = held[:0]
				tr.Leaves("", "", nil, func(keys []string, _ []int) bool {
					held = append(held, keys...)
					return true
				})
				walks.Add(1)
				for _, k := range held {
					if !wellFormed(k) {
						t.Errorf("walk delivered %q", k)
						return
					}
				}
			}
		}()
	}
	for walks.Load() < 2 {
		runtime.Gosched()
	}
	rng := rand.New(rand.NewPCG(61, 2))
	for i := 0; i < 1500; i++ {
		tr.Insert(key(rng.IntN(100000)), -1)
		if i%16 == 0 {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// wellFormed reports whether k is a "k%07d" key, reading its bytes
// where the race detector sees the reads.
func wellFormed(k string) bool {
	b := unsafe.Slice(unsafe.StringData(k), len(k))
	if len(b) != 8 || b[0] != 'k' {
		return false
	}
	for _, c := range b[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
