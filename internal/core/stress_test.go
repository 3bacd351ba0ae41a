package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"pgssi/internal/mvcc"
)

// Concurrency stress tests for the partitioned SIREAD lock table. Run
// under -race these exercise every cross-lock interaction the partition
// scheme introduces: mutex-free tuple acquisition racing granularity
// promotion, PageSplit copying locks across partitions while holders
// acquire and release, DropOwnTupleLock racing end-of-transaction
// cleanup, DDL-style PromoteRelationLocks sweeping all partitions, and
// read-only transactions whose safe-snapshot transition drops their
// locks mid-read.

func TestPartitionedLockTableStress(t *testing.T) {
	for _, parts := range []int{1, 8} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			h := newHarness(t, Config{
				Partitions:         parts,
				PromoteTupleToPage: 3,
				PromotePageToRel:   3,
			})
			const (
				workers     = 8
				txnsPerWkr  = 150
				readsPerTxn = 12
			)

			var workerWG sync.WaitGroup
			for w := 0; w < workers; w++ {
				workerWG.Add(1)
				go func(seed uint64) {
					defer workerWG.Done()
					rng := rand.New(rand.NewPCG(seed, 99))
					for i := 0; i < txnsPerWkr; i++ {
						readOnly := rng.IntN(8) == 0
						x := h.begin(readOnly)
						failed := false
						for j := 0; j < readsPerTxn; j++ {
							page := int64(rng.IntN(8))
							key := strconv.Itoa(rng.IntN(16))
							if err := h.mgr.CheckRead(x, "t", page, key, nil, false); err != nil {
								failed = true
								break
							}
							if !readOnly && rng.IntN(4) == 0 {
								// Write a tuple this or another worker
								// reads, then drop our own SIREAD lock
								// on it (§7.3) — racing other workers'
								// cleanup and the splitter.
								if err := h.mgr.CheckWrite(x, "t", page, key); err != nil {
									failed = true
									break
								}
								h.mgr.DropOwnTupleLock(x, "t", page, key)
							}
							if rng.IntN(8) == 0 {
								h.mgr.AcquirePageLock(x, "ddl", int64(rng.IntN(4)))
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

			// Structural churn concurrent with the workers: page splits
			// whose left and right pages hash to different partitions,
			// and full-relation promotion sweeps.
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
					h.mgr.PromoteRelationLocks("ddl")
				}
			}()

			workerWG.Wait()
			close(stop)
			structWG.Wait()

			// Quiesced: no transaction is active, so a reclaim pass must
			// drop all tracked state, and the gauge must agree with a
			// real count of the table (LockCount walks the partitions).
			assertQuiesced(t, h)
		})
	}
}

// assertQuiesced runs a synchronous reclaim pass and asserts that no
// transaction state survives: nothing tracked, no locks in the table,
// and the LocksCurrent gauge agreeing with a real count.
func assertQuiesced(t *testing.T, h *harness) {
	t.Helper()
	h.mgr.ReclaimNow()
	if n := h.mgr.TrackedXacts(); n != 0 {
		t.Fatalf("tracked xacts after quiesce = %d, want 0", n)
	}
	real := h.mgr.LockCount()
	if gauge := int(h.mgr.Stats().LocksCurrent); real != gauge {
		t.Fatalf("lock table count %d disagrees with LocksCurrent gauge %d", real, gauge)
	}
	if real != 0 {
		t.Fatalf("locks leaked after quiesce: %d", real)
	}
}

// TestScanBatchStress covers the scan path's pair of entry points under
// -race, called as the engine's scans call them: per heap page, one
// AcquireTupleLockBatch for the page's visible rows, then one
// CheckScanConflicts for the MVCC conflict-out sets those rows carried.
// The rows mix conflict-free ones (the lockMu-only path),
// conflict-bearing ones naming other workers' transactions (the
// SSI-mutex path), own-write rows (no SIREAD lock) and key-less
// conflict-only rows — racing writers running CheckWrite over the same
// targets, granularity promotion (low thresholds), and PageSplit churn.
func TestScanBatchStress(t *testing.T) {
	h := newHarness(t, Config{
		Partitions:         8,
		PromoteTupleToPage: 3,
		PromotePageToRel:   4,
	})
	const (
		workers    = 8
		txnsPerWkr = 120
	)
	// recentXIDs is a lock-free ring of transaction IDs other workers
	// may cite as MVCC conflict-out writers: some will be active, some
	// committed-and-tracked, some cleaned up — all states
	// flagConflictOutLocked must handle.
	var recentXIDs [16]atomic.Uint64
	conflict := func(rng *rand.Rand) []mvcc.TxID {
		if xid := recentXIDs[rng.IntN(len(recentXIDs))].Load(); xid != 0 {
			return []mvcc.TxID{mvcc.TxID(xid)}
		}
		return nil
	}

	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(seed uint64) {
			defer workerWG.Done()
			rng := rand.New(rand.NewPCG(seed, 7))
			for i := 0; i < txnsPerWkr; i++ {
				x := h.begin(false)
				recentXIDs[rng.IntN(len(recentXIDs))].Store(uint64(x.XID))
				failed := false
				for b := 0; b < 3 && !failed; b++ {
					// One page's rows: the keys to lock (dup-free, as the
					// engine passes them) and the conflict-out sets seen.
					page := int64(rng.IntN(6))
					var keys []string
					var conflictOut []mvcc.TxID
					seen := map[string]bool{}
					for j := 0; j < 8; j++ {
						key := strconv.Itoa(rng.IntN(12))
						switch rng.IntN(6) {
						case 0:
							// Conflict-bearing row.
							conflictOut = append(conflictOut, conflict(rng)...)
						case 1:
							// Row with conflicts but no visible version: no
							// SIREAD lock to take.
							conflictOut = append(conflictOut, conflict(rng)...)
							continue
						case 2:
							// Own write: the transaction holds the write
							// lock, so the scan skips the SIREAD lock.
							continue
						}
						if !seen[key] {
							seen[key] = true
							keys = append(keys, key)
						}
					}
					if len(keys) > 0 {
						if _, err := h.mgr.AcquireTupleLockBatch(x, "t", page, keys); err != nil {
							failed = true
							break
						}
					}
					if err := h.mgr.CheckScanConflicts(x, conflictOut); err != nil {
						failed = true
						break
					}
					if rng.IntN(3) == 0 {
						page := int64(rng.IntN(6))
						key := strconv.Itoa(rng.IntN(12))
						if err := h.mgr.CheckWrite(x, "t", page, key); err != nil {
							failed = true
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
			for p := int64(0); p < 6; p++ {
				h.mgr.PageSplit("t", p, next)
				next++
			}
		}
	}()

	workerWG.Wait()
	close(stop)
	structWG.Wait()

	assertQuiesced(t, h)
}

// TestTwoPhaseCommitStress races the §7.1 two-phase path against
// concurrent read/write transactions under -race: workers read and
// write, then Prepare; a successful Prepare must make CommitPrepared
// infallible even while other workers' CheckWrite calls flag new
// conflicts against the prepared transaction's still-active SIREAD
// locks (exercising the prepared-pivot and prepared-T3 branches of the
// dangerous-structure checks). A slice of prepared transactions are
// rolled back instead, covering AbortPrepared cleanup.
func TestTwoPhaseCommitStress(t *testing.T) {
	h := newHarness(t, Config{Partitions: 8, PromoteTupleToPage: 4})
	const (
		workers    = 8
		txnsPerWkr = 120
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 31))
			for i := 0; i < txnsPerWkr; i++ {
				x := h.begin(false)
				failed := false
				for j := 0; j < 4; j++ {
					page := int64(rng.IntN(4))
					key := strconv.Itoa(rng.IntN(8))
					if err := h.mgr.CheckRead(x, "t", page, key, nil, false); err != nil {
						failed = true
						break
					}
					if rng.IntN(2) == 0 {
						if err := h.mgr.CheckWrite(x, "t", page, key); err != nil {
							failed = true
							break
						}
					}
				}
				if failed {
					h.abort(x)
					continue
				}
				if rng.IntN(2) == 0 {
					// Plain one-phase commit in the mix.
					if err := h.commit(x); err != nil && !errors.Is(err, ErrSerializationFailure) {
						t.Errorf("commit: %v", err)
						return
					}
					continue
				}
				if _, err := h.mgr.Prepare(x); err != nil {
					if !errors.Is(err, ErrSerializationFailure) {
						t.Errorf("prepare: %v", err)
						return
					}
					h.abort(x)
					continue
				}
				// Let other workers' conflict checks observe the
				// prepared state before the second phase.
				runtime.Gosched()
				if rng.IntN(8) == 0 {
					h.mv.Abort(x.XID)
					if err := h.mgr.AbortPrepared(x); err != nil {
						t.Errorf("abort prepared: %v", err)
						return
					}
					continue
				}
				// A prepared transaction is guaranteed committable:
				// CommitPrepared must never fail.
				if err := h.mgr.CommitPrepared(x, func() mvcc.SeqNo { return h.mv.Commit(x.XID) }); err != nil {
					t.Errorf("commit prepared: %v", err)
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()

	assertQuiesced(t, h)
}

// TestConcurrentPromotionVsWriteCheck hammers the specific §5.2.1
// interleaving the partition scheme must preserve: one transaction's
// tuple locks being promoted to a page lock while another transaction's
// write check walks the granularities. The write must never miss the
// reader entirely — every writer either sees a lock (and gains the
// rw-antidependency edge) at some granularity or dooms/aborts.
func TestConcurrentPromotionVsWriteCheck(t *testing.T) {
	h := newHarness(t, Config{Partitions: 8, PromoteTupleToPage: 2})
	const rounds = 400
	for i := 0; i < rounds; i++ {
		r := h.begin(false)
		w := h.begin(false)
		// The reader's tuple lock on "0" is in place before the writer
		// starts; a second lock brings the page to the promotion
		// threshold.
		for j := 0; j < 2; j++ {
			if err := h.mgr.CheckRead(r, "t", 1, strconv.Itoa(j), nil, false); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Reads past the threshold replace the tuple locks
			// (including "0") with a page lock, concurrently with the
			// writer's granularity walk.
			for j := 2; j < 5; j++ {
				if err := h.mgr.CheckRead(r, "t", 1, strconv.Itoa(j), nil, false); err != nil {
					return
				}
			}
		}()
		errCh := make(chan error, 1)
		go func() {
			defer wg.Done()
			errCh <- h.mgr.CheckWrite(w, "t", 1, "0")
		}()
		wg.Wait()
		if err := <-errCh; err != nil && !errors.Is(err, ErrSerializationFailure) {
			t.Fatalf("round %d: %v", i, err)
		}
		// The reader held a lock covering "0" (tuple or, mid-promotion,
		// page) at every instant of the writer's check, so the edge
		// r → w must have been recorded regardless of interleaving.
		h.mgr.mu.Lock()
		_, hasEdge := r.outConflicts[w]
		h.mgr.mu.Unlock()
		if !hasEdge {
			t.Fatalf("round %d: writer missed reader's lock during promotion", i)
		}
		h.abort(r)
		h.abort(w)
	}
}

// TestLifecycleReclaimStress is -race coverage for the epoch-based
// lifecycle: background reclaim passes (the natural batch wakes plus a
// ReclaimNow hammer) race pressure summarization, late CheckWrite
// probes against summarized dummy locks, commits on both the edge-lock
// fast path and the conflict-graph slow path, and Abort. A tiny
// MaxCommittedXacts forces constant summarization, and a pin
// transaction holds the reclamation horizon for each wave so retired
// state piles up and must be summarized rather than reclaimed. Each
// wave ends at a quiesce point where the lock table, the LocksCurrent
// gauge and the transactions and summaries attached to commit-log
// records are asserted consistent; the stats accessors are also
// hammered mid-run so -race sees every reader/writer pairing.
func TestLifecycleReclaimStress(t *testing.T) {
	h := newHarness(t, Config{
		Partitions:         8,
		MaxCommittedXacts:  4,
		PromoteTupleToPage: 3,
	})
	const (
		waves      = 3
		workers    = 8
		txnsPerWkr = 80
	)
	var summarizedBefore int64
	for wave := 0; wave < waves; wave++ {
		// The pin's snapshot predates every commit in this wave, so
		// nothing the wave retires can be reclaimed until it aborts —
		// overflow must go through summarization.
		pin := h.begin(false)
		if err := h.mgr.CheckRead(pin, "t", 0, "pin", nil, false); err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var hammerWG sync.WaitGroup
		hammerWG.Add(1)
		go func() {
			defer hammerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.mgr.ReclaimNow()
				_ = h.mgr.LockCount()
				_ = h.mgr.TrackedXacts()
				_ = h.mgr.SummaryTableSize()
				_ = h.mgr.Stats()
			}
		}()

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(seed, uint64(wave)+1))
				for i := 0; i < txnsPerWkr; i++ {
					x := h.begin(false)
					failed := false
					for j := 0; j < 4 && !failed; j++ {
						page := int64(rng.IntN(4))
						key := strconv.Itoa(rng.IntN(8))
						if err := h.mgr.CheckRead(x, "t", page, key, nil, false); err != nil {
							failed = true
							break
						}
						if rng.IntN(3) == 0 {
							// Late write probes: many of these targets'
							// SIREAD holders have been summarized, so
							// the probe hits the dummy transaction's
							// locks and the summary-conflict-in path.
							if err := h.mgr.CheckWrite(x, "t", page, key); err != nil {
								failed = true
								break
							}
						}
					}
					if failed || rng.IntN(10) == 0 {
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
		wg.Wait()
		close(stop)
		hammerWG.Wait()

		// While the pin holds the horizon, every transaction this wave
		// summarized keeps its summary in its commit-log record (the
		// last wave's were truncated at its quiesce).
		st := h.mgr.Stats()
		if n := int64(h.mgr.SummaryTableSize()); n != st.Summarized-summarizedBefore {
			t.Fatalf("%d summaries kept behind the pin but %d transactions were summarized", n, st.Summarized-summarizedBefore)
		}
		if st.Summarized == summarizedBefore {
			t.Fatal("pressure summarization never ran; the stress lost its teeth")
		}
		summarizedBefore = st.Summarized
		h.abort(pin)

		// Wave quiesce: everything reclaimable must reclaim, the gauge
		// must match a real count, and the summaries must have left with
		// the commit log.
		assertQuiesced(t, h)
		if n := h.mgr.SummaryTableSize(); n != 0 {
			t.Fatalf("%d summaries outlive the quiesced wave, want 0", n)
		}
	}
}
