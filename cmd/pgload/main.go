// Command pgload drives pgssi load through workload.Run, the one load
// driver: the same attempt loop retries and counts every transaction in
// every subcommand. Its first argument names the subcommand:
//
//   - kv drives a pgssid server with open-loop load: arrivals at a fixed
//     or Poisson rate (not closed-loop workers, so queueing collapse is
//     visible instead of hidden), zipfian key skew over a large keyspace,
//     and HDR-style latency reporting (p50/p99/p999 measured from each
//     arrival's scheduled time, queueing delay included). It runs one
//     transaction shape over one pool of -conns connections; -writes 0
//     makes every transaction read-only, which is how to drive a
//     replica-mode pgssid. Its fail% is per arrival: failed and dropped
//     arrivals over those offered.
//   - sibench, dbt2 and rubis regenerate the paper's Figures 4, 5 and 6
//     in process: each workload runs closed-loop under every
//     concurrency-control regime (workload.Regimes) and is printed as
//     one table of txn/s, throughput relative to SI, and failure % per
//     attempt (aborted attempts over committed plus aborted).
//   - deferrable regenerates the §8.4 experiment: the latency for a
//     SERIALIZABLE READ ONLY DEFERRABLE transaction to obtain a safe
//     snapshot while a DBT-2++ workload runs.
//
// Every subcommand exits 1 if any transaction failed with a
// non-retryable error.
//
// Examples, the first against `pgssid -preload 1000000`:
//
//	pgload kv -addr :6432 -rate 3000 -duration 30s -keys 1000000 -zipf 1.1
//	pgload sibench -sizes 10,100,1000 -duration 1s
//	pgload dbt2 -config disk
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"time"

	"pgssi"
	"pgssi/internal/wire"
	"pgssi/internal/workload"
)

var subcommands = map[string]func(args []string){
	"kv":         kv,
	"sibench":    sibench,
	"dbt2":       dbt2,
	"rubis":      rubis,
	"deferrable": deferrable,
}

func main() {
	log.SetPrefix("pgload: ")
	log.SetFlags(0)
	if len(os.Args) < 2 || subcommands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: pgload kv|sibench|dbt2|rubis|deferrable [flags]")
		os.Exit(2)
	}
	subcommands[os.Args[1]](os.Args[2:])
}

// kv is the open-loop TCP load generator.
func kv(args []string) {
	fs := flag.NewFlagSet("kv", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:6432", "server address")
		rate      = fs.Float64("rate", 2000, "offered arrival rate (txn/s)")
		duration  = fs.Duration("duration", 10*time.Second, "load duration")
		arrival   = fs.String("arrival", "poisson", "arrival process: poisson or fixed")
		conns     = fs.Int("conns", 16, "client connections (transactions in flight share these)")
		keys      = fs.Int("keys", 1_000_000, "keyspace size (must match the server's -preload)")
		zipfS     = fs.Float64("zipf", 1.1, "zipfian skew exponent (<=1 = uniform)")
		reads     = fs.Int("reads", 2, "gets per transaction")
		writes    = fs.Int("writes", 1, "puts per transaction (0 = read-only transactions)")
		valueSize = fs.Int("valuesize", 16, "written value size in bytes")
		isolation = fs.String("iso", "serializable", "isolation: serializable, repeatableread, readcommitted, s2pl")
		retries   = fs.Int("retries", 3, "serialization-failure retries per arrival")
		pending   = fs.Int("maxpending", 4096, "max transactions in flight before arrivals are dropped")
		seed      = fs.Uint64("seed", 1, "rng seed")
		histPath  = fs.String("hist", "", "write the latency histogram to this file")
		table     = fs.String("table", "kv", "target table")
		wait      = fs.Duration("wait", 60*time.Second, "how long to retry the initial connection (server may still be preloading)")
	)
	fs.Parse(args)

	level, err := parseIsolation(*isolation)
	if err != nil {
		log.Fatal(err)
	}
	arr, ok := map[string]workload.Arrival{"poisson": workload.ArrivalPoisson, "fixed": workload.ArrivalFixed}[*arrival]
	if !ok {
		log.Fatalf("unknown arrival process %q", *arrival)
	}

	clients := dialPool(*addr, *conns, *wait)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	job := workload.KVJob{
		Table:     *table,
		Keys:      *keys,
		ZipfS:     *zipfS,
		Reads:     *reads,
		Writes:    *writes,
		ValueSize: *valueSize,
	}
	// One Attempt per connection; an attempt checks a connection out for
	// its whole transaction (waiting for one counts toward its latency,
	// as queueing should).
	pool := make(chan workload.Attempt, *conns)
	for _, c := range clients {
		pool <- job.Attempt(c)
	}

	log.Printf("driving %s: rate=%.0f/s %s arrivals, %s, keys=%d zipf=%.2f, %d reads + %d writes per txn, iso=%s, %d conns",
		*addr, *rate, arr, *duration, *keys, *zipfS, *reads, *writes, level, *conns)
	res := workload.Run(job.Mix(), func(j *workload.Job, level pgssi.IsolationLevel, rng *rand.Rand) error {
		attempt := <-pool
		defer func() { pool <- attempt }()
		return attempt(j, level, rng)
	}, workload.Options{
		Level:      level,
		Arrival:    arr,
		Rate:       *rate,
		MaxPending: *pending,
		Duration:   *duration,
		MaxRetries: *retries,
		Seed:       *seed,
	})

	fmt.Println(res)
	for _, c := range clients {
		if err := c.Err(); err != nil {
			log.Printf("connection error: %v", err)
			break
		}
	}
	if *histPath != "" {
		f, err := os.Create(*histPath)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := res.Hist.WriteTo(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("histogram written to %s", *histPath)
	}
	if res.Errors > 0 {
		log.Fatalf("%d non-retryable errors", res.Errors)
	}
}

// dialPool dials n connections to addr, retrying each for up to wait
// (the server may still be preloading or catching up).
func dialPool(addr string, n int, wait time.Duration) []*wire.Client {
	deadline := time.Now().Add(wait)
	clients := make([]*wire.Client, n)
	for i := range clients {
		for {
			c, err := wire.Dial(addr, wire.DialOptions{Timeout: 30 * time.Second})
			if err == nil {
				if st := c.Ping(); st.OK() {
					clients[i] = c
					break
				}
				c.Close()
			}
			if time.Now().After(deadline) {
				log.Fatalf("cannot reach %s: %v", addr, err)
			}
			time.Sleep(250 * time.Millisecond)
		}
	}
	return clients
}

func parseIsolation(s string) (pgssi.IsolationLevel, error) {
	switch s {
	case "serializable", "ssi":
		return pgssi.Serializable, nil
	case "repeatableread", "si":
		return pgssi.RepeatableRead, nil
	case "readcommitted", "rc":
		return pgssi.ReadCommitted, nil
	case "s2pl", "2pl":
		return pgssi.SerializableS2PL, nil
	default:
		return 0, fmt.Errorf("unknown isolation level %q", s)
	}
}
