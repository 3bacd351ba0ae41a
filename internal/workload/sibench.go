package workload

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"pgssi"
)

// SIBENCH (§8.1, from Cahill's thesis): a single table of N ⟨key, value⟩
// pairs; equal numbers of update transactions (set one random key's
// value) and query transactions (scan the whole table for the key with
// the lowest value). The query/update rw-conflict pattern is the worst
// case for locking and the showcase for SSI's read-only optimizations:
// at larger table sizes, query transactions run long enough to outlive
// the updaters active at their snapshot and drop to safe-snapshot mode.

// SIBench generates and runs the microbenchmark.
type SIBench struct {
	// Rows is the table size N (the x-axis of Figure 4).
	Rows int
	// ScanRows, if nonzero, bounds each query transaction's scan to the
	// first ScanRows keys instead of the whole table, making the
	// scan-heavy mix tunable independently of the table size (the
	// page-grained read path's O(pages) vs O(rows) behaviour is a
	// function of the scanned range, not of N). Zero means full-table
	// scans, the Figure 4 shape.
	ScanRows int
}

const siTable = "sibench"

func sibenchKey(i int) string { return fmt.Sprintf("k%06d", i) }

// Setup creates and populates the table.
func (b SIBench) Setup(db *pgssi.DB) error {
	if err := db.CreateTable(siTable); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(11, 7))
	return db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead}, func(tx *pgssi.Tx) error {
		for i := 0; i < b.Rows; i++ {
			v := strconv.Itoa(rng.IntN(1_000_000))
			if err := tx.Insert(siTable, sibenchKey(i), []byte(v)); err != nil {
				return err
			}
		}
		return nil
	})
}

// Mix returns the 50/50 update/query mix.
func (b SIBench) Mix() *Mix {
	return NewMix().
		Add(0.5, Job{Name: "update", Fn: b.update}).
		Add(0.5, Job{Name: "query", ReadOnly: true, Fn: b.query})
}

// update sets one randomly selected key to a new random value.
func (b SIBench) update(tx *pgssi.Tx, rng *rand.Rand) error {
	k := sibenchKey(rng.IntN(b.Rows))
	v := strconv.Itoa(rng.IntN(1_000_000))
	return tx.Update(siTable, k, []byte(v))
}

// query scans the table (bounded by ScanRows when set) to find the key
// with the lowest value.
func (b SIBench) query(tx *pgssi.Tx, _ *rand.Rand) error {
	hi := ""
	if b.ScanRows > 0 && b.ScanRows < b.Rows {
		hi = sibenchKey(b.ScanRows)
	}
	best := ""
	bestVal := 1 << 62
	err := tx.Scan(siTable, "", hi, func(k string, v []byte) bool {
		n, _ := strconv.Atoi(string(v))
		if best == "" || n < bestVal {
			best, bestVal = k, n
		}
		return true
	})
	return err
}
