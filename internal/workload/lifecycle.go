package workload

import (
	"math/rand/v2"

	"pgssi"
)

// Lifecycle microbenchmark: transactions that begin and commit without
// reading or writing anything, so every cost measured is transaction
// lifecycle — snapshot acquisition, SSI registration, the pre-commit
// check, and commit processing. After the SIREAD lock table was
// partitioned (PR 1) and the read path moved under page latches (PR 2),
// Begin/Commit serialization on the SSI manager was the dominant
// residual contention; this mix tracks it the way SIBENCH tracks lock
// contention.

// LifecycleMix returns a mix of empty transactions. roFraction of them
// are declared READ ONLY, exercising the fenced begin path and the §4.2
// safe-snapshot machinery; the rest take the unfenced read/write path and
// the conflict-free commit fast path.
func LifecycleMix(roFraction float64) *Mix {
	m := NewMix()
	noop := func(tx *pgssi.Tx, _ *rand.Rand) error { return nil }
	if roFraction < 1 {
		m.Add(1-roFraction, Job{Name: "lifecycle-rw", Fn: noop})
	}
	if roFraction > 0 {
		m.Add(roFraction, Job{Name: "lifecycle-ro", ReadOnly: true, Fn: noop})
	}
	return m
}
