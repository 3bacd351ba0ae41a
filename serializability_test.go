package pgssi_test

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/graphcheck"
)

// This file contains the repository's strongest correctness evidence: a
// randomized concurrent workload whose committed histories are checked
// offline against the full multiversion serialization graph (wr, ww, and
// rw edges — §3.1). Any cycle would mean the Serializable level admitted
// a non-serializable execution. The same harness run under snapshot
// isolation regularly produces cycles, confirming the oracle has teeth.

// historyRecorder accumulates committed transaction histories.
type historyRecorder struct {
	mu   sync.Mutex
	txns []graphcheck.Txn
}

func (h *historyRecorder) add(t graphcheck.Txn) {
	h.mu.Lock()
	h.txns = append(h.txns, t)
	h.mu.Unlock()
}

// runRandomHistory drives workers concurrent read-modify-write
// transactions over nKeys keys at the given isolation level and returns
// the committed histories. Values hold the version tag (the writer's
// xid; "0" initially) so reads observe exact versions.
func runRandomHistory(t *testing.T, level pgssi.IsolationLevel, workers, txnsPerWorker, nKeys int, scanFraction float64, seed uint64) []graphcheck.Txn {
	t.Helper()
	db := pgssi.Open(pgssi.Config{})
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	setup, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nKeys; i++ {
		if err := setup.Insert("t", keyName(i), []byte("0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	rec := &historyRecorder{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(w)))
			for i := 0; i < txnsPerWorker; i++ {
				for attempt := 0; attempt < 50; attempt++ {
					ok := runOneRandomTxn(t, db, level, rng, nKeys, scanFraction, rec)
					if ok {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return rec.txns
}

func keyName(i int) string { return fmt.Sprintf("k%03d", i) }

// runOneRandomTxn runs a single transaction; returns false if it was
// aborted with a serialization failure (retry).
func runOneRandomTxn(t *testing.T, db *pgssi.DB, level pgssi.IsolationLevel, rng *rand.Rand, nKeys int, scanFraction float64, rec *historyRecorder) bool {
	tx, err := db.Begin(pgssi.TxOptions{Isolation: level})
	if err != nil {
		t.Error(err)
		return true
	}
	var ops []graphcheck.Op
	fail := func(err error) bool {
		tx.Rollback()
		if pgssi.IsSerializationFailure(err) {
			return false
		}
		t.Errorf("unexpected error: %v", err)
		return true
	}

	if rng.Float64() < scanFraction {
		// Read-only scan transaction: observes every key's version.
		err := tx.Scan("t", "", "", func(k string, v []byte) bool {
			ops = append(ops, graphcheck.Op{Key: k, Saw: parseVersion(t, v)})
			return true
		})
		if err != nil {
			return fail(err)
		}
	} else {
		// Read-modify-write over a few random keys: read phase first,
		// then a scheduling pause, then the writes. The pause widens
		// the window in which two transactions have both read
		// overlapping keys but not yet written disjoint ones — the
		// write-skew shape of §2.1.1.
		reads := 2 + rng.IntN(3)
		if reads > nKeys {
			reads = nKeys
		}
		writes := 1 + rng.IntN(reads)
		perm := rng.Perm(nKeys)
		for j := 0; j < reads; j++ {
			k := keyName(perm[j])
			v, err := tx.Get("t", k)
			if err != nil {
				return fail(err)
			}
			ops = append(ops, graphcheck.Op{Key: k, Saw: parseVersion(t, v)})
		}
		time.Sleep(time.Duration(rng.IntN(200)) * time.Microsecond)
		// Write the *last* keys read so concurrent transactions tend
		// to write disjoint subsets of a shared read set.
		for j := reads - writes; j < reads; j++ {
			k := keyName(perm[j])
			if err := tx.Update("t", k, []byte(strconv.FormatUint(tx.ID(), 10))); err != nil {
				return fail(err)
			}
			ops = append(ops, graphcheck.Op{Key: k, Write: true})
		}
	}
	if err := tx.Commit(); err != nil {
		if pgssi.IsSerializationFailure(err) {
			return false
		}
		t.Errorf("commit: %v", err)
		return true
	}
	rec.add(graphcheck.Txn{ID: tx.ID(), Ops: ops})
	return true
}

func parseVersion(t *testing.T, v []byte) graphcheck.Version {
	n, err := strconv.ParseUint(string(v), 10, 64)
	if err != nil {
		t.Fatalf("bad version tag %q: %v", v, err)
	}
	return graphcheck.Version(n)
}

func TestSerializableHistoriesAreAcyclic(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized history check skipped in -short mode")
	}
	for _, tc := range []struct {
		name                          string
		workers, txnsPerWorker, nKeys int
		scanFraction                  float64
		trials                        int
		seed                          uint64 // trial i runs at seed+i
	}{
		{"scans", 8, 60, 6, 0.2, 8, 1000},
		// The defaults of the former command-line history checker:
		// hotter keys, no scans, more trials.
		{"hot-keys", 8, 50, 5, 0, 20, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < tc.trials; trial++ {
				txns := runRandomHistory(t, pgssi.Serializable, tc.workers, tc.txnsPerWorker, tc.nKeys, tc.scanFraction, tc.seed+uint64(trial))
				g, err := graphcheck.Build(txns)
				if err != nil {
					t.Fatal(err)
				}
				if cyc := g.Cycle(); cyc != nil {
					t.Fatalf("trial %d: SERIALIZABLE admitted a non-serializable history; cycle %v over %d txns",
						trial, cyc, len(txns))
				}
				if order := g.SerialOrder(); order == nil {
					t.Fatalf("trial %d: acyclic graph must have a serial order", trial)
				}
			}
		})
	}
}

func TestSnapshotIsolationHistoriesCanCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized history check skipped in -short mode")
	}
	// Confirm the oracle detects anomalies: under plain snapshot
	// isolation with high contention, at least one of many trials
	// should produce a dependency cycle (write skew). This guards
	// against a vacuous acyclicity test above.
	for trial := 0; trial < 40; trial++ {
		txns := runRandomHistory(t, pgssi.RepeatableRead, 8, 40, 4, 0.1, uint64(2000+trial))
		g, err := graphcheck.Build(txns)
		if err != nil {
			t.Fatal(err)
		}
		if g.Cycle() != nil {
			return // anomaly observed, oracle works
		}
	}
	t.Fatal("no SI anomaly observed in 40 trials; the checker may be vacuous")
}

func TestS2PLHistoriesAreAcyclic(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized history check skipped in -short mode")
	}
	for trial := 0; trial < 4; trial++ {
		txns := runRandomHistory(t, pgssi.SerializableS2PL, 6, 40, 6, 0.2, uint64(3000+trial))
		g, err := graphcheck.Build(txns)
		if err != nil {
			t.Fatal(err)
		}
		if cyc := g.Cycle(); cyc != nil {
			t.Fatalf("trial %d: S2PL admitted a non-serializable history; cycle %v", trial, cyc)
		}
	}
}
