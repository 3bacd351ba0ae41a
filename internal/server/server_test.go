package server

import (
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/wire"
)

// testServer bundles a running server with its address and Serve's
// result channel.
type testServer struct {
	*Server
	addr     string
	serveErr <-chan error
}

// startServer launches a server on a loopback port and returns it plus
// a dialer.
func startServer(t testing.TB, db *pgssi.DB, cfg Config) (*testServer, func() *wire.Client) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startServerOn(t, db, cfg, l)
}

// startServerOn is startServer on a listener of the caller's choosing.
func startServerOn(t testing.TB, db *pgssi.DB, cfg Config, l net.Listener) (*testServer, func() *wire.Client) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv := New(db, cfg)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	addr := l.Addr().String()
	dial := func() *wire.Client {
		c, err := wire.Dial(addr, wire.DialOptions{Timeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		return c
	}
	return &testServer{Server: srv, addr: addr, serveErr: serveErr}, dial
}

// TestEndToEnd drives the basic request repertoire over a real TCP
// connection.
func TestEndToEnd(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	srv, dial := startServer(t, db, Config{})
	defer srv.Shutdown()
	c := dial()
	defer c.Close()

	if st := c.Ping(); !st.OK() {
		t.Fatalf("ping: %v", st)
	}
	if st := c.CreateTable("kv"); !st.OK() {
		t.Fatalf("create table: %v", st)
	}

	h, st := c.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatalf("begin: %v", st)
	}
	if st := c.Insert(h, "kv", "a", []byte("1")); !st.OK() {
		t.Fatalf("insert: %v", st)
	}
	if st := c.Insert(h, "kv", "b", []byte("2")); !st.OK() {
		t.Fatalf("insert: %v", st)
	}
	if st := c.Insert(h, "kv", "a", []byte("dup")); st != pgssi.StatusDuplicateKey {
		t.Fatalf("duplicate insert: got %v", st)
	}
	if st := c.Commit(h); !st.OK() {
		t.Fatalf("commit: %v", st)
	}

	h, st = c.Begin(pgssi.RepeatableRead, true, false)
	if !st.OK() {
		t.Fatalf("begin ro: %v", st)
	}
	v, st := c.Get(h, "kv", "a")
	if !st.OK() || string(v) != "1" {
		t.Fatalf("get a: %q, %v", v, st)
	}
	if _, st := c.Get(h, "kv", "missing"); st != pgssi.StatusNotFound {
		t.Fatalf("get missing: got %v", st)
	}
	rows, st := c.Scan(h, "kv", "", "", 0)
	if !st.OK() || len(rows) != 2 || rows[0].Key != "a" || rows[1].Key != "b" {
		t.Fatalf("scan: %v rows=%v", st, rows)
	}
	if _, st := c.Get(h, "notable", "a"); st != pgssi.StatusNoTable {
		t.Fatalf("get from missing table: got %v", st)
	}
	if st := c.Commit(h); !st.OK() {
		t.Fatalf("commit ro: %v", st)
	}

	// Stale/invalid handles are status errors, not connection killers.
	if st := c.Commit(h); st != pgssi.StatusInvalidHandle {
		t.Fatalf("commit stale handle: got %v", st)
	}
	if st := c.Commit(99999); st != pgssi.StatusInvalidHandle {
		t.Fatalf("commit bogus handle: got %v", st)
	}
	if st := c.Ping(); !st.OK() {
		t.Fatalf("ping after handle errors: %v", st)
	}
}

// TestSavepointsOverWire exercises the savepoint opcodes end to end.
func TestSavepointsOverWire(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	srv, dial := startServer(t, db, Config{})
	defer srv.Shutdown()
	c := dial()
	defer c.Close()

	if st := c.CreateTable("kv"); !st.OK() {
		t.Fatal(st)
	}
	h, st := c.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatal(st)
	}
	if st := c.Insert(h, "kv", "keep", []byte("1")); !st.OK() {
		t.Fatal(st)
	}
	if st := c.Savepoint(h, "sp"); !st.OK() {
		t.Fatalf("savepoint: %v", st)
	}
	if st := c.Insert(h, "kv", "discard", []byte("2")); !st.OK() {
		t.Fatal(st)
	}
	if st := c.RollbackToSavepoint(h, "sp"); !st.OK() {
		t.Fatalf("rollback to savepoint: %v", st)
	}
	if st := c.RollbackToSavepoint(h, "nope"); st != pgssi.StatusNoSavepoint {
		t.Fatalf("rollback to unknown savepoint: got %v", st)
	}
	if st := c.Commit(h); !st.OK() {
		t.Fatal(st)
	}

	h, _ = c.Begin(pgssi.ReadCommitted, true, false)
	if _, st := c.Get(h, "kv", "keep"); !st.OK() {
		t.Fatalf("keep missing after savepoint rollback: %v", st)
	}
	if _, st := c.Get(h, "kv", "discard"); st != pgssi.StatusNotFound {
		t.Fatalf("discard survived savepoint rollback: %v", st)
	}
	c.Commit(h)
}

// TestWriteSkewOverTCP runs the canonical SSI write-skew pair over two
// real TCP connections and asserts exactly one transaction aborts with
// a serialization failure — the wire layer must not weaken the
// serializability guarantee.
func TestWriteSkewOverTCP(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	srv, dial := startServer(t, db, Config{})
	defer srv.Shutdown()

	setup := dial()
	if st := setup.CreateTable("oncall"); !st.OK() {
		t.Fatal(st)
	}
	h, _ := setup.Begin(pgssi.ReadCommitted, false, false)
	setup.Insert(h, "oncall", "alice", []byte("on"))
	setup.Insert(h, "oncall", "bob", []byte("on"))
	if st := setup.Commit(h); !st.OK() {
		t.Fatal(st)
	}
	setup.Close()

	c1, c2 := dial(), dial()
	defer c1.Close()
	defer c2.Close()

	// Both transactions read both rows, then each writes the row the
	// other read: the classic dangerous structure. Interleave strictly so
	// both reads happen before either write commits.
	h1, st := c1.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatal(st)
	}
	h2, st := c2.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatal(st)
	}
	for _, k := range []string{"alice", "bob"} {
		if _, st := c1.Get(h1, "oncall", k); !st.OK() {
			t.Fatalf("c1 get %s: %v", k, st)
		}
		if _, st := c2.Get(h2, "oncall", k); !st.OK() {
			t.Fatalf("c2 get %s: %v", k, st)
		}
	}
	st1 := c1.Update(h1, "oncall", "alice", []byte("off"))
	st2 := c2.Update(h2, "oncall", "bob", []byte("off"))
	if st1.OK() {
		st1 = c1.Commit(h1)
	} else {
		c1.Rollback(h1)
	}
	if st2.OK() {
		st2 = c2.Commit(h2)
	} else {
		c2.Rollback(h2)
	}

	failures := 0
	for _, st := range []pgssi.Status{st1, st2} {
		switch st {
		case pgssi.StatusOK:
		case pgssi.StatusSerializationFailure:
			failures++
		default:
			t.Fatalf("unexpected status: %v / %v", st1, st2)
		}
	}
	if failures != 1 {
		t.Fatalf("write skew: want exactly 1 serialization failure, got %d (st1=%v st2=%v)", failures, st1, st2)
	}

	// The surviving write must be visible; both off would be the anomaly.
	check := dial()
	defer check.Close()
	h, _ = check.Begin(pgssi.ReadCommitted, true, false)
	va, _ := check.Get(h, "oncall", "alice")
	vb, _ := check.Get(h, "oncall", "bob")
	check.Commit(h)
	if string(va) == "off" && string(vb) == "off" {
		t.Fatal("write skew admitted: both rows updated")
	}
	if string(va) == "on" && string(vb) == "on" {
		t.Fatal("no update survived")
	}
}

// TestDrainOnSIGTERM sends this process a real SIGTERM and asserts the
// full drain contract: the in-flight transaction finishes its commit,
// a late Begin is refused with StatusShuttingDown, and Serve returns
// ErrServerClosed.
func TestDrainOnSIGTERM(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	srv, dial := startServer(t, db, Config{DrainTimeout: 5 * time.Second})
	srv.DrainOnSignal(syscall.SIGUSR1) // not SIGTERM: the test runner owns that

	setup := dial()
	if st := setup.CreateTable("kv"); !st.OK() {
		t.Fatal(st)
	}
	setup.Close()

	// Open a transaction and leave it in flight across the signal.
	inflight := dial()
	defer inflight.Close()
	h, st := inflight.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatal(st)
	}
	if st := inflight.Insert(h, "kv", "survivor", []byte("v")); !st.OK() {
		t.Fatal(st)
	}
	// A second connection with no open transaction: the drain should
	// close it without it having to do anything.
	idle := dial()
	defer idle.Close()
	if st := idle.Ping(); !st.OK() {
		t.Fatal(st)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.DrainStarted():
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not start after signal")
	}

	// Late Begin on the in-flight connection is refused — a read-write
	// Begin is queued, so the refusal answers its first operation, and the
	// handle is dead after it…
	late, st := inflight.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatalf("late read-write begin: %v, want it queued", st)
	}
	if _, st := inflight.Get(late, "kv", "survivor"); st != pgssi.StatusShuttingDown {
		t.Fatalf("late begin: want StatusShuttingDown, got %v", st)
	}
	if _, st := inflight.Get(late, "kv", "survivor"); st != pgssi.StatusTxDone {
		t.Fatalf("refused late handle still usable: %v", st)
	}
	// …but the in-flight transaction may still finish.
	if st := inflight.Put(h, "kv", "survivor", []byte("v2")); !st.OK() {
		t.Fatalf("in-flight write during drain: %v", st)
	}
	if st := inflight.Commit(h); !st.OK() {
		t.Fatalf("in-flight commit during drain: %v", st)
	}

	select {
	case err := <-srv.serveErr:
		if err != ErrServerClosed {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	// New connections are refused once the listener is down.
	if _, err := net.DialTimeout("tcp", srv.addr, time.Second); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}

	// The committed write survived the drain.
	sess := db.NewSession()
	h2, st := sess.Begin(pgssi.ReadCommitted, true, false)
	if !st.OK() {
		t.Fatal(st)
	}
	v, st := sess.Get(h2, "kv", "survivor")
	if !st.OK() || string(v) != "v2" {
		t.Fatalf("survivor after drain: %q, %v", v, st)
	}
	sess.Commit(h2)
}

// TestDrainAnswersBufferedRequests: during a drain, a connection with no
// transaction open is closed only once every request it has already sent
// is answered. A queued read-write Begin and the Get that carries it
// therefore read "shutting down", not a closed connection.
func TestDrainAnswersBufferedRequests(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	if err := db.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{Logf: t.Logf})
	srv.draining.Store(true)
	// Served directly rather than accepted, so the drain's sweep of idle
	// connections cannot close it first.
	client, server := net.Pipe()
	srv.wg.Add(1)
	served := make(chan struct{})
	go func() {
		srv.serveConn(srv.newConn(server))
		close(served)
	}()

	c := wire.NewClient(client, wire.DialOptions{Timeout: 10 * time.Second})
	defer c.Close()
	h, st := c.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatalf("read-write begin: %v, want it queued", st)
	}
	if _, st := c.Get(h, "kv", "k"); st != pgssi.StatusShuttingDown {
		t.Fatalf("[Begin, Get] during a drain: %v (%v), want StatusShuttingDown", st, c.Err())
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("a drained connection with nothing open and nothing buffered was kept")
	}
}

// TestDrainForceClosesStragglers: a transaction that never finishes is
// force-closed (and rolled back) once the drain timeout expires.
func TestDrainForceClosesStragglers(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	srv, dial := startServer(t, db, Config{DrainTimeout: 100 * time.Millisecond})

	setup := dial()
	setup.CreateTable("kv")
	setup.Close()

	straggler := dial()
	defer straggler.Close()
	h, st := straggler.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatal(st)
	}
	if st := straggler.Insert(h, "kv", "doomed", []byte("v")); !st.OK() {
		t.Fatal(st)
	}

	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not honor the drain timeout")
	}
	select {
	case err := <-srv.serveErr:
		if err != ErrServerClosed {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return")
	}

	// The straggler's transaction was rolled back, not committed.
	sess := db.NewSession()
	h2, _ := sess.Begin(pgssi.ReadCommitted, true, false)
	if _, st := sess.Get(h2, "kv", "doomed"); st != pgssi.StatusNotFound {
		t.Fatalf("straggler write survived force-close: %v", st)
	}
	sess.Commit(h2)
}

// TestConnectionLimit: connections beyond MaxConns are closed instead
// of served.
func TestConnectionLimit(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	srv, dial := startServer(t, db, Config{MaxConns: 2})
	defer srv.Shutdown()

	c1, c2 := dial(), dial()
	defer c1.Close()
	defer c2.Close()
	if st := c1.Ping(); !st.OK() {
		t.Fatal(st)
	}
	if st := c2.Ping(); !st.OK() {
		t.Fatal(st)
	}

	// The third connection must fail fast (refused at accept time). The
	// TCP dial itself may succeed before the server closes it, so probe
	// with a request.
	c3, err := wire.Dial(srv.addr, wire.DialOptions{Timeout: 2 * time.Second})
	if err != nil {
		return // refused outright: also acceptable
	}
	defer c3.Close()
	if st := c3.Ping(); st != pgssi.StatusNetwork {
		t.Fatalf("over-limit connection served: %v", st)
	}

	// Closing one frees a slot.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c4, err := wire.Dial(srv.addr, wire.DialOptions{Timeout: 2 * time.Second})
		if err == nil {
			if st := c4.Ping(); st.OK() {
				c4.Close()
				return
			}
			c4.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("slot was not freed after close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGarbageInput writes non-protocol bytes at a server and asserts it
// survives (closes that connection, keeps serving others).
func TestGarbageInput(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	srv, dial := startServer(t, db, Config{})
	defer srv.Shutdown()

	payloads := [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0}, // absurd length prefix
		{0, 0, 0, 5, 99, 0, 0, 0, 0},            // bad version
		{0, 0, 0, 9, 1, 0, 0, 0, 0, 1, 2, 3, 4}, // bad CRC
	}
	for i, p := range payloads {
		nc, err := net.Dial("tcp", srv.addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.Write(p)
		// The server must close the connection rather than hang or crash.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 64)
		for {
			if _, err := nc.Read(buf); err != nil {
				break
			}
		}
		nc.Close()
		// And keep serving well-formed clients.
		c := dial()
		if st := c.Ping(); !st.OK() {
			t.Fatalf("payload %d broke the server: %v", i, st)
		}
		c.Close()
	}

	// A well-framed but undecodable message gets StatusInvalidRequest
	// before the connection is dropped.
	nc, err := net.Dial("tcp", srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, []byte{0xEE, 0xEE, 0xEE}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := wire.ReadFrame(nc, nil)
	if err != nil {
		t.Fatalf("no response to undecodable message: %v", err)
	}
	resp, err := wire.DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != pgssi.StatusInvalidRequest {
		t.Fatalf("undecodable message: want StatusInvalidRequest, got %v", resp.Status)
	}
}

// TestConcurrentWireLoad hammers the server from several connections at
// once under -race; correctness of totals is asserted via a final scan.
func TestConcurrentWireLoad(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	srv, dial := startServer(t, db, Config{})
	defer srv.Shutdown()

	setup := dial()
	if st := setup.CreateTable("acct"); !st.OK() {
		t.Fatal(st)
	}
	h, _ := setup.Begin(pgssi.ReadCommitted, false, false)
	for _, k := range []string{"x", "y"} {
		setup.Insert(h, "acct", k, []byte("100"))
	}
	if st := setup.Commit(h); !st.OK() {
		t.Fatal(st)
	}
	setup.Close()

	const workers, iters = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dial()
			defer c.Close()
			for i := 0; i < iters; i++ {
				h, st := c.Begin(pgssi.Serializable, false, false)
				if !st.OK() {
					continue
				}
				if _, st = c.Get(h, "acct", "x"); !st.OK() {
					c.Rollback(h)
					continue
				}
				if st = c.Put(h, "acct", "y", []byte("w")); !st.OK() {
					c.Rollback(h)
					continue
				}
				c.Commit(h)
			}
			if err := c.Err(); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
}
