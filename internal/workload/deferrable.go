package workload

import (
	"time"

	"pgssi"
)

// Deferrable-transaction latency probe (§8.4): while a DBT-2++ workload
// runs, repeatedly start a SERIALIZABLE READ ONLY DEFERRABLE transaction,
// run a trivial query, and measure how long acquiring a safe snapshot
// took. The paper reports a 1.98 s median, 6 s p90, 20 s max against its
// disk-bound configuration; the interesting reproduction target is that
// the latency is of the order of a few transaction lifetimes and bounded,
// not its absolute value.

// MeasureDeferrable runs the given background mix in process as opts
// describe while sampling deferrable-transaction latency every interval,
// and returns the latency histogram with the background run's result.
func MeasureDeferrable(db *pgssi.DB, mix *Mix, opts Options, interval time.Duration, trivial func(tx *pgssi.Tx) error) (*Histogram, Result) {
	lat := NewHistogram()
	done := make(chan Result)
	go func() { done <- Run(mix, InProcess(db), opts) }()
	for {
		select {
		case bg := <-done:
			return lat, bg
		case <-time.After(interval):
		}
		start := time.Now()
		tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable, ReadOnly: true, Deferrable: true})
		wait := time.Since(start)
		if err != nil {
			continue
		}
		if trivial != nil {
			_ = trivial(tx)
		}
		_ = tx.Commit()
		lat.Record(wait)
	}
}
