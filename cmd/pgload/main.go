// Command pgload drives pgssi load. Its first argument names the
// subcommand:
//
//   - kv drives a pgssid server with open-loop load: arrivals at a fixed
//     or Poisson rate (not closed-loop workers, so queueing collapse is
//     visible instead of hidden), zipfian key skew over a large keyspace,
//     and HDR-style latency reporting (p50/p99/p999 measured from each
//     arrival's scheduled time, queueing delay included). With -replicas
//     it drives a replication fleet: writes go to the primary, and a
//     -readfrac share of arrivals are read-only transactions routed by a
//     lag-aware router (internal/router) to the replica with a
//     recent-enough safe snapshot — serializable reads on a replica
//     always begin deferrable, landing exactly on a safe snapshot, with
//     primary fallback when every replica is stale past -maxlag for
//     longer than -waitsafe.
//   - sibench, dbt2 and rubis regenerate the paper's Figures 4, 5 and 6
//     in process: each workload runs closed-loop under every
//     concurrency-control regime (workload.Regimes) and is printed as
//     one table of txn/s, throughput relative to SI, and failure %.
//   - deferrable regenerates the §8.4 experiment: the latency for a
//     SERIALIZABLE READ ONLY DEFERRABLE transaction to obtain a safe
//     snapshot while a DBT-2++ workload runs.
//
// Every subcommand exits 1 if any transaction failed with a
// non-retryable error.
//
// Examples, the first two against `pgssid -preload 1000000`:
//
//	pgload kv -addr :6432 -rate 3000 -duration 30s -keys 1000000 -zipf 1.1
//	pgload kv -addr :6432 -replicas :6433,:6434 -readfrac 0.9 -rate 3000
//	pgload sibench -sizes 10,100,1000 -duration 1s
//	pgload dbt2 -config disk
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"strings"
	"time"

	"pgssi"
	"pgssi/internal/router"
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
		replicas  = fs.String("replicas", "", "comma-separated replica addresses (enables lag-aware read routing)")
		readFrac  = fs.Float64("readfrac", 0, "fraction of arrivals that are read-only transactions (routable to replicas)")
		maxLag    = fs.Uint64("maxlag", 1000, "staleness bound: replicas lagging more commits than this receive no reads")
		waitSafe  = fs.Duration("waitsafe", 100*time.Millisecond, "how long a read waits for an eligible replica before falling back to the primary")
		rate      = fs.Float64("rate", 2000, "offered arrival rate (txn/s)")
		duration  = fs.Duration("duration", 10*time.Second, "load duration")
		arrival   = fs.String("arrival", "poisson", "arrival process: poisson or fixed")
		conns     = fs.Int("conns", 16, "client connections per fleet member (transactions in flight share these)")
		keys      = fs.Int("keys", 1_000_000, "keyspace size (must match the server's -preload)")
		zipfS     = fs.Float64("zipf", 1.1, "zipfian skew exponent (<=1 = uniform)")
		reads     = fs.Int("reads", 2, "gets per transaction")
		writes    = fs.Int("writes", 1, "puts per read-write transaction")
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
	arr := workload.ArrivalPoisson
	switch *arrival {
	case "poisson":
	case "fixed":
		arr = workload.ArrivalFixed
	default:
		log.Fatalf("unknown arrival process %q", *arrival)
	}
	var replAddrs []string
	for _, a := range strings.Split(*replicas, ",") {
		if a = strings.TrimSpace(a); a != "" {
			replAddrs = append(replAddrs, a)
		}
	}
	if len(replAddrs) > 0 && *readFrac <= 0 {
		log.Printf("note: -replicas without -readfrac > 0 sends no reads to the replicas")
	}

	deadline := time.Now().Add(*wait)
	// Per-slot connection pools: slot i owns one connection to every
	// fleet member, so a transaction's handles stay on the connection
	// that began it regardless of where the router sends it.
	clients := dialPool(*addr, *conns, deadline)
	defer closePool(clients)
	repClients := make([][]*wire.Client, len(replAddrs))
	for r, a := range replAddrs {
		repClients[r] = dialPool(a, *conns, deadline)
		defer closePool(repClients[r])
	}

	// The router polls fleet positions over dedicated connections.
	var rt *router.Router
	if len(replAddrs) > 0 {
		statusFunc := func(a string) router.StatusFunc {
			c := dialPool(a, 1, deadline)[0]
			return func() (uint64, uint64, bool) {
				applied, safe, st := c.ReplicaStatus()
				return applied, safe, st.OK()
			}
		}
		members := make([]router.Member, len(replAddrs))
		for r, a := range replAddrs {
			members[r] = router.Member{Name: a, Status: statusFunc(a)}
		}
		rt = router.New(
			router.Member{Name: *addr, Status: statusFunc(*addr)},
			members,
			router.Config{MaxLag: *maxLag, WaitSafe: *waitSafe, PollInterval: 10 * time.Millisecond},
		)
		defer rt.Close()
	}

	writeJob := workload.KVJob{
		Table:     *table,
		Keys:      *keys,
		ZipfS:     *zipfS,
		Reads:     *reads,
		Writes:    *writes,
		ValueSize: *valueSize,
		Isolation: level,
	}
	readJob := writeJob
	readJob.Writes = 0
	replicaReadJob := readJob
	replicaReadJob.Deferrable = true // land on a safe snapshot, never fail between markers

	// One transaction body per (slot, member, kind); an arrival checks a
	// slot out for its whole transaction (waiting for one counts toward
	// its latency, as queueing should).
	txnWrite := make([]func(*rand.Rand) error, *conns)
	txnRead := make([]func(*rand.Rand) error, *conns)
	txnReplica := make([][]func(*rand.Rand) error, *conns)
	for i := 0; i < *conns; i++ {
		txnWrite[i] = writeJob.Txn(clients[i])
		txnRead[i] = readJob.Txn(clients[i])
		txnReplica[i] = make([]func(*rand.Rand) error, len(replAddrs))
		for r := range replAddrs {
			txnReplica[i][r] = replicaReadJob.Txn(repClients[r][i])
		}
	}
	pool := make(chan int, *conns)
	for i := 0; i < *conns; i++ {
		pool <- i
	}

	log.Printf("driving %s (+%d replicas): rate=%.0f/s %s arrivals, %s, keys=%d zipf=%.2f, %d reads + %d writes per txn, readfrac=%.2f, iso=%s, %d conns/member",
		*addr, len(replAddrs), *rate, arr, *duration, *keys, *zipfS, *reads, *writes, *readFrac, level, *conns)
	res := workload.RunOpenLoop(workload.OpenLoopOptions{
		Rate:       *rate,
		Duration:   *duration,
		Arrival:    arr,
		MaxPending: *pending,
		MaxRetries: *retries,
		Seed:       *seed,
	}, func(rng *rand.Rand) error {
		i := <-pool
		defer func() { pool <- i }()
		if *readFrac <= 0 || rng.Float64() >= *readFrac {
			return txnWrite[i](rng)
		}
		if rt != nil {
			if r := rt.Pick(true); r >= 0 {
				err := txnReplica[i][r](rng)
				if err == nil {
					return nil
				}
				// The replica refused or failed mid-read (halted, draining,
				// connection lost): serve this arrival from the primary
				// rather than failing it.
			}
		}
		return txnRead[i](rng)
	})

	fmt.Println(res)
	if rt != nil {
		st := rt.Stats()
		fmt.Printf("routing: replica=%d primary=%d fallbacks=%d\n", st.ReplicaBegins, st.PrimaryBegins, st.Fallbacks)
	}
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

// dialPool dials n connections to addr, retrying each until deadline
// (the server may still be preloading or catching up).
func dialPool(addr string, n int, deadline time.Time) []*wire.Client {
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

// closePool closes every connection in a pool.
func closePool(clients []*wire.Client) {
	for _, c := range clients {
		c.Close()
	}
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
