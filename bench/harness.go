package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pgssi"
	"pgssi/internal/server"
	"pgssi/internal/wal"
	"pgssi/internal/wire"
	"pgssi/internal/workload"
)

const (
	// numClients is fixed, not derived from the machine: two pooled
	// connections that each wait for their reply, on a two-core box
	// that also runs the server.
	numClients = 2
	// timedFirst is the transaction index at which every pass after the
	// warm-up starts.
	timedFirst = 1 << 32
	// maxAttempts bounds a transaction's attempts: a serialization
	// failure is retried at once, and a transaction that fails
	// maxAttempts times counts as failed. It is this high so that none
	// does: skew_hot's retries start in step with the other client's
	// next transaction and fail about one time in five, which with 8
	// attempts loses one transaction in 100 000 over TCP and one in
	// 10 000 in process.
	maxAttempts = 64
)

// params is one benchmark run.
type params struct {
	spec   spec
	seed   uint64
	window time.Duration
	// setups is how many times the set-up is done and timed; the last
	// one serves the timed window and setup_s is the median of all.
	setups int
	// level is Serializable except when demonstrating that the
	// skew_hot check fails under snapshot isolation.
	level  pgssi.IsolationLevel
	outDir string
	// probe is the time each direct per-layer probe may take.
	probe time.Duration
}

func (p params) dataDir() string { return filepath.Join(p.outDir, "data-"+p.spec.name) }

// fsyncPolicy names the flush policy for the result's descriptor.
func (p params) fsyncPolicy() string {
	if p.spec.durable {
		return fmt.Sprintf("batch, group window %s, 1 MiB segments, checkpoint every 1 MiB", wal.DefaultGroupWindow)
	}
	return "none (in-memory wal.Log)"
}

// engine is a database being served on a loopback listener, configured
// as cmd/pgssid configures it.
type engine struct {
	p        params
	db       *pgssi.DB
	ld       load
	srv      *server.Server
	serveErr chan error
	clients  []*wire.Client
	// serials counts the transactions each client has started, over
	// all passes; kv workloads write it as the value.
	serials [numClients]uint64
}

func (p params) dbConfig() pgssi.Config {
	if !p.spec.durable {
		return pgssi.Config{}
	}
	return pgssi.Config{FsyncMode: wal.FsyncBatch, WALSegmentSize: 1 << 20, CheckpointEvery: 1 << 20}
}

// openDB opens and preloads the database. The durable variant loads
// through the durable path and then reopens the directory, so set-up
// contains one recovery, as a restarted pgssid's does.
func openDB(p params, ld load) (*pgssi.DB, error) {
	if !p.spec.durable {
		db := pgssi.Open(p.dbConfig())
		db.AttachWAL(wal.NewLog())
		if err := preload(db, p.spec.rows, ld); err != nil {
			db.Close()
			return nil, err
		}
		return db, nil
	}
	// Stale segments from an earlier run would be recovered and timed.
	if err := os.RemoveAll(p.dataDir()); err != nil {
		return nil, err
	}
	db, err := pgssi.OpenDir(p.dataDir(), p.dbConfig())
	if err != nil {
		return nil, err
	}
	if err := preload(db, p.spec.rows, ld); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close after preload: %w", err)
	}
	return pgssi.OpenDir(p.dataDir(), p.dbConfig())
}

// preload creates the table and inserts the rows as cmd/pgssid's
// -preload does: chunked ReadCommitted transactions.
func preload(db *pgssi.DB, rows int, ld load) error {
	if err := db.CreateTable(table); err != nil {
		return err
	}
	const chunk = 5000
	for lo := 0; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.ReadCommitted}, func(tx *pgssi.Tx) error {
			for i := lo; i < hi; i++ {
				if err := tx.Insert(table, workload.LoadKey(i), ld.initial(i)); err != nil {
					return fmt.Errorf("preload %s: %w", workload.LoadKey(i), err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// start sets the engine up to the point where the timed window can
// begin: open (and recover), preload, serve, dial, warm up, collect.
func start(p params) (*engine, error) {
	ld := p.spec.newLoad(p.spec.rows)
	db, err := openDB(p, ld)
	if err != nil {
		return nil, err
	}
	e := &engine{p: p, db: db, ld: ld, serveErr: make(chan error, 1)}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	e.srv = server.New(db, server.Config{
		MaxConns:     1024,
		IdleTimeout:  5 * time.Minute,
		WriteTimeout: 30 * time.Second,
		DrainTimeout: 10 * time.Second,
		Logf:         log.New(os.Stderr, "server: ", 0).Printf,
	})
	go func() { e.serveErr <- e.srv.Serve(l) }()
	for i := 0; i < numClients; i++ {
		c, err := wire.Dial(l.Addr().String(), wire.DialOptions{Timeout: 30 * time.Second})
		if err != nil {
			e.stop()
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	var warm atomic.Int64
	target := int64(p.spec.warmup)
	res := e.drive(pass{conns: e.tcpConns(), level: p.level, check: true,
		done: func() bool { return warm.Load() >= target }, committed: &warm})
	if res.failed > 0 {
		e.stop()
		return nil, fmt.Errorf("warm-up: %d of %d transactions failed: %v", res.failed, res.started, res.err)
	}
	runtime.GC()
	return e, nil
}

func (e *engine) tcpConns() []conn {
	cs := make([]conn, len(e.clients))
	for i, c := range e.clients {
		cs[i] = c
	}
	return cs
}

func (e *engine) sessionConns() []conn {
	cs := make([]conn, numClients)
	for i := range cs {
		cs[i] = e.db.NewSession()
	}
	return cs
}

// stopServing closes the clients and drains the server, leaving the
// database open.
func (e *engine) stopServing() error {
	for _, c := range e.clients {
		c.Close()
	}
	e.clients = nil
	if e.srv == nil {
		return nil
	}
	e.srv.Shutdown()
	err := <-e.serveErr
	e.srv = nil
	if err != nil && !errors.Is(err, server.ErrServerClosed) {
		return err
	}
	return nil
}

// stop tears the engine down and removes its data directory.
func (e *engine) stop() error {
	err := e.stopServing()
	if cerr := e.db.Close(); err == nil {
		err = cerr
	}
	if e.p.spec.durable {
		if rerr := os.RemoveAll(e.p.dataDir()); err == nil {
			err = rerr
		}
	}
	return err
}

// pass is one closed-loop drive of the clients over a set of
// connections.
type pass struct {
	conns []conn
	level pgssi.IsolationLevel
	check bool
	// first is the index of each client's first transaction. The
	// warm-up counts from 0 and every later pass from timedFirst, so
	// the passes of a traced run replay one request stream.
	first uint64
	// done is polled by each client before every transaction but its
	// first: however slow the machine, a pass measures something.
	done func() bool
	// committed, if set, is incremented on every commit (the warm-up's
	// count-based stop reads it).
	committed *atomic.Int64
	// recs, if set, receives one span recorder per client.
	recs []*recorder
}

// after returns a pass's done for a window of d starting now.
func after(d time.Duration) func() bool {
	deadline := time.Now().Add(d)
	return func() bool { return !time.Now().Before(deadline) }
}

// sample is one committed transaction.
type sample struct {
	latency time.Duration // first Begin to successful Commit, retries included
	kind    uint8
}

type passResult struct {
	elapsed time.Duration
	samples []sample
	started int64
	commits int64
	retries int64
	failed  int64
	err     error // first non-retryable status seen
}

func (r passResult) tps() float64 { return float64(r.commits) / r.elapsed.Seconds() }

// drive runs the clients until done and merges what they measured. A
// client's next transaction starts when its previous one has finished:
// zero think time.
func (e *engine) drive(ps pass) passResult {
	results := make([]passResult, len(ps.conns))
	var wg sync.WaitGroup
	begin := time.Now()
	for c := range ps.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = e.client(c, ps)
		}(c)
	}
	wg.Wait()
	total := passResult{elapsed: time.Since(begin)}
	for _, r := range results {
		total.samples = append(total.samples, r.samples...)
		total.started += r.started
		total.commits += r.commits
		total.retries += r.retries
		total.failed += r.failed
		if total.err == nil {
			total.err = r.err
		}
	}
	return total
}

// client is one closed-loop client. Transaction n of client c draws
// from PCG(seed, c, n), so the request stream depends on nothing but
// the seed — the server sees only the requests.
func (e *engine) client(c int, ps pass) passResult {
	var res passResult
	var rec *recorder // nil records nothing
	if ps.recs != nil {
		rec = ps.recs[c]
	}
	res.samples = make([]sample, 0, 1<<16)
	pcg := rand.NewPCG(0, 0)
	t := txn{cn: ps.conns[c], level: ps.level, client: c, rng: rand.New(pcg), check: ps.check}
	if rec != nil {
		t.cn = &tracedConn{conn: t.cn, rec: rec}
	}
	for n := ps.first; n == ps.first || !ps.done(); n++ {
		res.started++
		e.serials[c]++
		t.serial = e.serials[c]
		rec.open(spanTxn)
		t0 := time.Now()
		st := pgssi.StatusSerializationFailure
		for a := 0; a < maxAttempts && st.Retryable(); a++ {
			if a > 0 {
				res.retries++
			}
			pcg.Seed(e.p.seed, uint64(c)<<48|n)
			rec.open(spanAttempt)
			st = e.ld.attempt(&t)
			rec.close()
		}
		rec.close()
		if !st.OK() {
			res.failed++
			if res.err == nil {
				res.err = fmt.Errorf("client %d transaction %d: %v", c, n, st)
			}
			continue
		}
		res.samples = append(res.samples, sample{latency: time.Since(t0), kind: uint8(t.kind)})
		res.commits++
		if ps.committed != nil {
			ps.committed.Add(1)
		}
	}
	return res
}
