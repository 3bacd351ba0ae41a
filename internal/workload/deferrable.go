package workload

import (
	"sync"
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

// MeasureDeferrable runs the given background mix for the configured
// duration while sampling deferrable-transaction latency every interval,
// and returns the latency histogram with the background run's result.
func MeasureDeferrable(db *pgssi.DB, mix *Mix, opts RunOptions, interval time.Duration, trivial func(tx *pgssi.Tx) error) (*Histogram, Result) {
	lat := NewHistogram()
	stop := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(interval):
			}
			start := time.Now()
			tx, err := db.Begin(pgssi.TxOptions{
				Isolation:  pgssi.Serializable,
				ReadOnly:   true,
				Deferrable: true,
			})
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
	}()
	bg := RunClosedLoop(db, mix, opts)
	close(stop)
	probeWG.Wait()
	return lat, bg
}
