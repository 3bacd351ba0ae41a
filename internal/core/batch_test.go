package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"testing"
)

// Tests for the page-grained batch acquisition path
// (AcquireTupleLockBatch), the PageSplit promotion-threshold bugfix,
// and the finished-transaction lock-accounting invariant the PR 5
// audit documented in partition.go.

func batchAcquire(t *testing.T, h *harness, x *Xact, rel string, page int64, keys ...string) bool {
	t.Helper()
	covered, err := h.mgr.AcquireTupleLockBatch(x, rel, page, keys)
	if err != nil {
		t.Fatalf("AcquireTupleLockBatch: %v", err)
	}
	return covered
}

func TestAcquireTupleLockBatchBasics(t *testing.T) {
	h := newHarness(t, Config{})
	x := h.begin(false)
	if covered := batchAcquire(t, h, x, "t", 1, "a", "b", "c"); covered {
		t.Fatal("no relation lock exists yet")
	}
	for _, k := range []string{"a", "b", "c"} {
		if !h.mgr.HoldsLock(x, TupleTarget("t", 1, k)) {
			t.Fatalf("missing tuple lock on %q", k)
		}
	}
	if got, want := h.mgr.LockCount(), 3; got != want {
		t.Fatalf("LockCount = %d, want %d", got, want)
	}
	// Re-batching the same keys (plus one new) inserts only the new one.
	batchAcquire(t, h, x, "t", 1, "a", "b", "c", "d")
	if got, want := h.mgr.LockCount(), 4; got != want {
		t.Fatalf("LockCount after dup batch = %d, want %d", got, want)
	}
	if gauge := int(h.mgr.Stats().LocksCurrent); gauge != 4 {
		t.Fatalf("LocksCurrent gauge = %d, want 4", gauge)
	}
	if err := h.commit(x); err != nil {
		t.Fatal(err)
	}
	assertQuiesced(t, h)
}

func TestAcquireTupleLockBatchCoveredByCoarserLock(t *testing.T) {
	h := newHarness(t, Config{})
	x := h.begin(false)
	h.mgr.AcquirePageLock(x, "t", 1)
	batchAcquire(t, h, x, "t", 1, "a", "b")
	if h.mgr.HoldsLock(x, TupleTarget("t", 1, "a")) {
		t.Fatal("page lock must cover the batch; no tuple locks expected")
	}
	h.mgr.AcquireRelationLock(x, "t")
	if covered := batchAcquire(t, h, x, "t", 2, "c"); !covered {
		t.Fatal("relation lock must report the batch covered")
	}
	if h.mgr.HoldsLock(x, TupleTarget("t", 2, "c")) {
		t.Fatal("relation lock must cover the batch; no tuple locks expected")
	}
	h.abort(x)
}

func TestAcquireTupleLockBatchThresholdTakesPageLockDirectly(t *testing.T) {
	h := newHarness(t, Config{PromoteTupleToPage: 4})
	x := h.begin(false)
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = strconv.Itoa(i)
	}
	batchAcquire(t, h, x, "t", 1, keys...)
	if !h.mgr.HoldsLock(x, PageTarget("t", 1)) {
		t.Fatal("batch over the tuple→page threshold must hold the page lock")
	}
	for _, k := range keys {
		if h.mgr.HoldsLock(x, TupleTarget("t", 1, k)) {
			t.Fatalf("tuple lock on %q must not survive the direct page promotion", k)
		}
	}
	if got := h.mgr.Stats().TuplePromotions; got != 1 {
		t.Fatalf("TuplePromotions = %d, want 1", got)
	}
	h.abort(x)
	assertQuiesced(t, h)
}

func TestAcquireTupleLockBatchThresholdAccumulatesAcrossBatches(t *testing.T) {
	h := newHarness(t, Config{PromoteTupleToPage: 4})
	x := h.begin(false)
	batchAcquire(t, h, x, "t", 1, "a", "b", "c")
	if h.mgr.HoldsLock(x, PageTarget("t", 1)) {
		t.Fatal("below threshold: no page lock yet")
	}
	// 3 existing + 2 new > 4: the second batch crosses the threshold.
	batchAcquire(t, h, x, "t", 1, "d", "e")
	if !h.mgr.HoldsLock(x, PageTarget("t", 1)) {
		t.Fatal("accumulated batches crossing the threshold must promote")
	}
	if h.mgr.HoldsLock(x, TupleTarget("t", 1, "a")) {
		t.Fatal("prior tuple locks must be consolidated into the page lock")
	}
	h.abort(x)
}

func TestAcquireTupleLockBatchCapacityPromotesToRelation(t *testing.T) {
	h := newHarness(t, Config{MaxPredicateLocks: 3, PromoteTupleToPage: 100})
	x := h.begin(false)
	batchAcquire(t, h, x, "t", 1, "a", "b", "c")
	if covered := batchAcquire(t, h, x, "t", 2, "d", "e"); !covered {
		t.Fatal("capacity promotion must report relation coverage")
	}
	if !h.mgr.HoldsLock(x, RelationTarget("t")) {
		t.Fatal("capacity bound must consolidate into a relation lock")
	}
	if got := h.mgr.Stats().CapacityPromotions; got != 1 {
		t.Fatalf("CapacityPromotions = %d, want 1", got)
	}
	h.abort(x)
	assertQuiesced(t, h)
}

func TestAcquireTupleLockBatchDoomedAndFinished(t *testing.T) {
	h := newHarness(t, Config{})
	x := h.begin(false)
	x.doomed.Store(true)
	if _, err := h.mgr.AcquireTupleLockBatch(x, "t", 1, []string{"a"}); !errors.Is(err, ErrSerializationFailure) {
		t.Fatalf("doomed batch = %v, want serialization failure", err)
	}
	h.abort(x)

	y := h.begin(false)
	if err := h.commit(y); err != nil {
		t.Fatal(err)
	}
	// A finished transaction's lock set must not grow (lockingDone).
	if _, err := h.mgr.AcquireTupleLockBatch(y, "t", 1, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if h.mgr.HoldsLock(y, TupleTarget("t", 1, "a")) {
		t.Fatal("committed transaction acquired a fresh lock through the batch path")
	}
	assertQuiesced(t, h)
}

// TestBatchRegisteredReadsDetectWriteSkew replays the canonical write
// skew with both readers registering through the batch path: the
// batched SIREAD locks must be exactly as visible to CheckWrite as
// per-row ones, so exactly one transaction aborts.
func TestBatchRegisteredReadsDetectWriteSkew(t *testing.T) {
	h := newHarness(t, Config{})
	t1 := h.begin(false)
	t2 := h.begin(false)
	batchAcquire(t, h, t1, "t", 1, "a", "b")
	batchAcquire(t, h, t2, "t", 1, "a", "b")
	if err := h.write(t1, "t", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := h.write(t2, "t", 1, "b"); err != nil {
		t.Fatal(err)
	}
	err1 := h.commit(t1)
	err2 := h.commit(t2)
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("exactly one of the batch readers must abort: err1=%v err2=%v", err1, err2)
	}
}

// TestPageSplitAppliesPageToRelPromotion pins the PR 5 bugfix: a
// transaction accumulating page locks purely through index splits must
// hit the §5.2.1 page→relation threshold exactly as if it had acquired
// them organically. Before the fix, PageSplit incremented the page count as
// "bookkeeping only" and never applied the threshold, so split-heavy
// transactions evaded relation promotion until their next organic
// acquire — the capacity bound leaked.
func TestPageSplitAppliesPageToRelPromotion(t *testing.T) {
	h := newHarness(t, Config{PromotePageToRel: 2})
	x := h.begin(false)
	h.mgr.AcquirePageLock(x, "i", 1)
	// Splits 1→2 and 2→3 propagate x's lock to each new right sibling;
	// the second propagation pushes the relation's page count to 3 > 2.
	h.mgr.PageSplit("i", 1, 2)
	if h.mgr.HoldsLock(x, RelationTarget("i")) {
		t.Fatal("promoted too early: threshold is 2 pages")
	}
	if !h.mgr.HoldsLock(x, PageTarget("i", 2)) {
		t.Fatal("split must propagate the lock to the right sibling")
	}
	h.mgr.PageSplit("i", 2, 3)
	if !h.mgr.HoldsLock(x, RelationTarget("i")) {
		t.Fatal("split-accumulated page locks must trigger relation promotion")
	}
	for _, p := range []int64{1, 2, 3} {
		if h.mgr.HoldsLock(x, PageTarget("i", p)) {
			t.Fatalf("page lock %d must be consolidated into the relation lock", p)
		}
	}
	if got := h.mgr.Stats().PagePromotions; got != 1 {
		t.Fatalf("PagePromotions = %d, want 1", got)
	}
	// Later splits of pages the relation lock covers add nothing.
	h.mgr.PageSplit("i", 3, 4)
	if got, want := h.mgr.LockCount(), 1; got != want {
		t.Fatalf("LockCount = %d, want only the relation lock", got)
	}
	if err := h.commit(x); err != nil {
		t.Fatal(err)
	}
	assertQuiesced(t, h)
}

// TestPageSplitQuiesceAccounting is the regression test for the PR 5
// finished-transaction audit (partition.go): PageSplit and
// PromoteRelationLocks insert locks for holders that may already be
// committed, fenced only by m.mu against the reclaimer's release path.
// If that fencing were wrong, a finished transaction could receive a
// fresh lock after its release drained x.locks — a lock the table would
// keep forever. Split churn races commits, aborts, and a ReclaimNow
// hammer; at quiesce the table must be empty with the gauge agreeing.
func TestPageSplitQuiesceAccounting(t *testing.T) {
	h := newHarness(t, Config{Partitions: 8, PromotePageToRel: 4})
	const workers = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Split churn: left pages the workers lock, right pages fresh.
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := int64(100)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for p := int64(0); p < 8; p++ {
				h.mgr.PageSplit("t", p, next)
				next++
			}
			h.mgr.PromoteRelationLocks("ddl")
		}
	}()
	// Reclaim hammer: passes racing the splits' lock insertion for
	// committed holders.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.mgr.ReclaimNow()
		}
	}()

	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(seed uint64) {
			defer workerWG.Done()
			rng := rand.New(rand.NewPCG(seed, 3))
			for i := 0; i < 120; i++ {
				x := h.begin(false)
				failed := false
				for j := 0; j < 6 && !failed; j++ {
					page := int64(rng.IntN(8))
					switch rng.IntN(3) {
					case 0:
						h.mgr.AcquirePageLock(x, "t", page)
					case 1:
						h.mgr.AcquirePageLock(x, "ddl", int64(rng.IntN(4)))
					default:
						keys := []string{strconv.Itoa(rng.IntN(8)), strconv.Itoa(8 + rng.IntN(8))}
						if _, err := h.mgr.AcquireTupleLockBatch(x, "t", page, keys); err != nil {
							failed = true
						}
					}
				}
				if failed || rng.IntN(8) == 0 {
					h.abort(x)
					continue
				}
				if err := h.commit(x); err != nil && !errors.Is(err, ErrSerializationFailure) {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(uint64(w + 1))
	}
	workerWG.Wait()
	close(stop)
	wg.Wait()
	assertQuiesced(t, h)
}

// TestBatchAcquireStress races the batch insert path against everything
// that can touch the same targets concurrently: CheckWrite probes over
// the batched keys, tuple→page and page→relation promotion (low
// thresholds), PageSplit copying locks across partitions, and the
// epoch reclaimer. Run under -race it isolates the lock half of
// TestScanBatchStress (no conflict-out sets, wider key batches that
// straddle the promotion threshold); the quiesce assertion pins the
// accounting.
func TestBatchAcquireStress(t *testing.T) {
	for _, parts := range []int{1, 8} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			h := newHarness(t, Config{
				Partitions:         parts,
				PromoteTupleToPage: 3,
				PromotePageToRel:   3,
			})
			const (
				workers    = 8
				txnsPerWkr = 120
			)
			var workerWG sync.WaitGroup
			for w := 0; w < workers; w++ {
				workerWG.Add(1)
				go func(seed uint64) {
					defer workerWG.Done()
					rng := rand.New(rand.NewPCG(seed, 17))
					for i := 0; i < txnsPerWkr; i++ {
						x := h.begin(false)
						failed := false
						for j := 0; j < 4 && !failed; j++ {
							page := int64(rng.IntN(8))
							nkeys := 1 + rng.IntN(5) // straddles the promotion threshold
							keys := make([]string, 0, nkeys)
							for k := 0; k < nkeys; k++ {
								keys = append(keys, strconv.Itoa(rng.IntN(16)))
							}
							if _, err := h.mgr.AcquireTupleLockBatch(x, "t", page, keys); err != nil {
								failed = true
								break
							}
							if rng.IntN(3) == 0 {
								if err := h.mgr.CheckWrite(x, "t", page, strconv.Itoa(rng.IntN(16))); err != nil {
									failed = true
									break
								}
							}
						}
						if failed {
							h.abort(x)
							continue
						}
						if err := h.commit(x); err != nil && !errors.Is(err, ErrSerializationFailure) {
							t.Errorf("commit: %v", err)
							return
						}
					}
				}(uint64(w + 1))
			}
			stop := make(chan struct{})
			var structWG sync.WaitGroup
			structWG.Add(1)
			go func() {
				defer structWG.Done()
				next := int64(1000)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for p := int64(0); p < 8; p++ {
						h.mgr.PageSplit("t", p, next)
						next++
					}
				}
			}()
			workerWG.Wait()
			close(stop)
			structWG.Wait()
			assertQuiesced(t, h)
		})
	}
}

// TestBatchMatchesPerKeyPath is the batch rule as a property: for random
// thresholds, prior holdings (tuple locks taken singly, some dropped
// again, a page or relation lock now and then) and duplicate-free
// batches of random size on a few pages, registering each batch through
// AcquireTupleLockBatch and registering its keys one by one through
// AcquireTupleLock leave every key covered, by the same locks, with the
// lock gauge equal — in particular for the batches that decide on
// len(keys) alone, before looking at what the transaction holds. (The
// global capacity bound is left at its default: a batch tests it once,
// the per-key path before every key, which is the documented tolerance
// and has its own test.)
func TestBatchMatchesPerKeyPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	for trial := 0; trial < 300; trial++ {
		cfg := Config{
			PromoteTupleToPage: 1 + rng.IntN(20),
			PromotePageToRel:   1 + rng.IntN(4),
		}
		batch, single := newHarness(t, cfg), newHarness(t, cfg)
		bx, sx := batch.begin(false), single.begin(false)
		both := func(f func(m *Manager, x *Xact)) {
			f(batch.mgr, bx)
			f(single.mgr, sx)
		}
		key := func(i int) string { return "k" + strconv.Itoa(i) }
		covered := func(m *Manager, x *Xact, page int64, k string) bool {
			return m.HoldsLock(x, TupleTarget("t", page, k)) || m.HoldsLock(x, PageTarget("t", page)) || m.HoldsLock(x, RelationTarget("t"))
		}
		for step := 0; step < 8; step++ {
			page := int64(rng.IntN(5))
			switch rng.IntN(10) {
			case 0:
				both(func(m *Manager, x *Xact) { m.AcquirePageLock(x, "t", page) })
				continue
			case 1:
				if rng.IntN(4) == 0 {
					both(func(m *Manager, x *Xact) { m.AcquireRelationLock(x, "t") })
				}
				continue
			case 2, 3:
				k := key(rng.IntN(40))
				both(func(m *Manager, x *Xact) { m.AcquireTupleLock(x, "t", page, k) })
				if rng.IntN(2) == 0 {
					both(func(m *Manager, x *Xact) { m.DropOwnTupleLock(x, "t", page, k) })
				}
				continue
			}
			keys := make([]string, 0, 40)
			for _, i := range rng.Perm(40)[:1+rng.IntN(40)] {
				keys = append(keys, key(i))
			}
			bCovered := batchAcquire(t, batch, bx, "t", page, keys...)
			for _, k := range keys {
				single.mgr.AcquireTupleLock(sx, "t", page, k)
			}
			if sCovered := single.mgr.HoldsLock(sx, RelationTarget("t")); bCovered != sCovered {
				t.Fatalf("trial %d step %d (%+v): batch reports relation cover %v, per-key path holds relation lock: %v", trial, step, cfg, bCovered, sCovered)
			}
			for _, k := range keys {
				if !covered(batch.mgr, bx, page, k) || !covered(single.mgr, sx, page, k) {
					t.Fatalf("trial %d step %d (%+v): key %s of a %d-key batch on page %d left uncovered", trial, step, cfg, k, len(keys), page)
				}
				if b, s := batch.mgr.HoldsLock(bx, TupleTarget("t", page, k)), single.mgr.HoldsLock(sx, TupleTarget("t", page, k)); b != s {
					t.Fatalf("trial %d step %d (%+v): tuple lock on %s: batch path %v, per-key path %v", trial, step, cfg, k, b, s)
				}
			}
			bs, ss := batch.mgr.Stats(), single.mgr.Stats()
			if bs.LocksCurrent != ss.LocksCurrent || batch.mgr.LockCount() != single.mgr.LockCount() || int(bs.LocksCurrent) != batch.mgr.LockCount() {
				t.Fatalf("trial %d step %d (%+v): after a %d-key batch on page %d the batch path holds %d locks (gauge %d), the per-key path %d (gauge %d)",
					trial, step, cfg, len(keys), page, batch.mgr.LockCount(), bs.LocksCurrent, single.mgr.LockCount(), ss.LocksCurrent)
			}
		}
		batch.abort(bx)
		single.abort(sx)
		assertQuiesced(t, batch)
		assertQuiesced(t, single)
	}
}
