package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/wal"
	"pgssi/internal/wire"
)

// countingConn counts the Read and Write calls made on a connection —
// each is one syscall on a socket — and the frames written, and checks
// that every Write carries whole frames only.
type countingConn struct {
	net.Conn
	reads, writes, frames atomic.Int64
	torn                  atomic.Int64 // Writes that ended inside a frame
	largest               atomic.Int64 // bytes in the largest Write
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if n := int64(len(p)); n > c.largest.Load() {
		c.largest.Store(n)
	}
	for rest := p; ; {
		if len(rest) < 9 || int(binary.BigEndian.Uint32(rest))+4 > len(rest) {
			c.torn.Add(1)
			break
		}
		c.frames.Add(1)
		if rest = rest[binary.BigEndian.Uint32(rest)+4:]; len(rest) == 0 {
			break
		}
	}
	return c.Conn.Write(p)
}

// countingListener serves countingConns and hands each to the test.
type countingListener struct {
	net.Listener
	accepted chan *countingConn
}

func listenCounting(t *testing.T) *countingListener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for every connection a test opens, so Accept never waits for
	// the test to collect one.
	return &countingListener{Listener: l, accepted: make(chan *countingConn, 8)}
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: nc}
	l.accepted <- cc
	return cc, nil
}

// rawDial opens a plain TCP connection to the server with a deadline on
// everything the test does with it.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { nc.Close() })
	return nc
}

func frameOf(t *testing.T, req wire.Request) []byte {
	t.Helper()
	frame := wire.AppendRequest(wire.BeginFrame(nil), &req)
	if err := wire.FinishFrame(frame); err != nil {
		t.Fatal(err)
	}
	return frame
}

func readResponse(t *testing.T, r *bufio.Reader) wire.Response {
	t.Helper()
	body, err := wire.ReadFrame(r, nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	resp, err := wire.DecodeResponse(body)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp
}

// scanTable returns an in-memory database whose table kv holds n rows.
func scanTable(t testing.TB, n int) *pgssi.DB {
	t.Helper()
	db := pgssi.Open(pgssi.Config{})
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.ReadCommitted}, func(tx *pgssi.Tx) error {
		for i := 0; i < n; i++ {
			if err := tx.Put("kv", fmt.Sprintf("k%06d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// checkpointedDB returns a durable database with a checkpoint of rows
// rows in table acct.
func checkpointedDB(t *testing.T, rows int) *pgssi.DB {
	t.Helper()
	db, err := pgssi.OpenDir(t.TempDir(), pgssi.Config{FsyncMode: pgssi.FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable("acct"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead}, func(tx *pgssi.Tx) error {
			return tx.Put("acct", fmt.Sprintf("k%03d", i), []byte("v"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestOneSyscallPerFrame is the transport rule for requests and
// responses: every Write carries whole frames only; a request the client
// waits for — a Ping, a Scan — costs one client Write and one server
// Write; a read-only transaction of Begin, 3 Scans, Commit, whose Begin
// leaves with the first Scan and whose settled Commit leaves alone and
// unwaited, costs four of each; a read-write transaction of Begin, Get,
// Get, Put, Commit, whose Begin and Put leave with the next request,
// costs three of each; and the server needs at most one Read per burst
// of small requests.
func TestOneSyscallPerFrame(t *testing.T) {
	db := scanTable(t, 1000)
	l := listenCounting(t)
	srv, _ := startServerOn(t, db, Config{}, l)
	defer srv.Shutdown()

	nc, err := net.Dial("tcp", srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c := wire.NewClient(cc, wire.DialOptions{Timeout: 10 * time.Second})
	defer c.Close()
	sc := <-l.accepted

	ok := func(st pgssi.Status) {
		t.Helper()
		if !st.OK() {
			t.Fatal(st)
		}
	}
	// phase runs f and checks the Writes it cost each side, and the frames
	// they carried. An unwaited Commit may still be on its way when f
	// returns, so the server's count is taken once it has sent every
	// frame of the phase (or after ten seconds).
	phase := func(name string, writes, frames int64, f func()) {
		t.Helper()
		cw, cf, sw, sf, sr := cc.writes.Load(), cc.frames.Load(), sc.writes.Load(), sc.frames.Load(), sc.reads.Load()
		f()
		for deadline := time.Now().Add(10 * time.Second); sc.frames.Load()-sf < frames && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if w, n := cc.writes.Load()-cw, cc.frames.Load()-cf; w != writes || n != frames {
			t.Errorf("%s: client made %d writes of %d frames, want %d of %d", name, w, n, writes, frames)
		}
		if w, n := sc.writes.Load()-sw, sc.frames.Load()-sf; w != writes || n != frames {
			t.Errorf("%s: server made %d writes of %d frames, want %d of %d", name, w, n, writes, frames)
		}
		// One more than the bursts: the read the server parks in after the
		// previous phase may start inside this one.
		if r := sc.reads.Load() - sr; r > writes+1 {
			t.Errorf("%s: server made %d reads for %d bursts of small requests", name, r, writes)
		}
	}

	phase("20 Pings", 20, 20, func() {
		for i := 0; i < 20; i++ {
			ok(c.Ping())
		}
	})
	phase("read-only Begin, 3 Scans, Commit", 4, 5, func() {
		h, st := c.Begin(pgssi.Serializable, true, false)
		ok(st)
		for i := 0; i < 3; i++ {
			rows, st := c.Scan(h, "kv", "", "", 0)
			ok(st)
			if len(rows) != 1000 {
				t.Fatalf("scan returned %d rows", len(rows))
			}
		}
		ok(c.Commit(h))
	})
	phase("read-write Begin, Get, Get, Put, Commit", 3, 5, func() {
		h, st := c.Begin(pgssi.Serializable, false, false)
		ok(st)
		_, st = c.Get(h, "kv", "k000007")
		ok(st)
		_, st = c.Get(h, "kv", "k000009")
		ok(st)
		ok(c.Put(h, "kv", "k000008", []byte("new")))
		ok(c.Commit(h))
	})
	if cc.torn.Load() != 0 || sc.torn.Load() != 0 {
		t.Errorf("writes ending inside a frame: client %d, server %d", cc.torn.Load(), sc.torn.Load())
	}
}

// TestOneWritePerStreamedRecord is the same rule on the two hijacked
// streams: the acknowledgement and every replication or checkpoint
// record leave the server in one Write each.
func TestOneWritePerStreamedRecord(t *testing.T) {
	t.Run("replication", func(t *testing.T) {
		db := attachedDB(t, "kv")
		l := listenCounting(t)
		srv, _ := startServerOn(t, db, Config{}, l)
		defer srv.Shutdown()

		const commits = 10
		for i := 0; i < commits; i++ {
			err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
				return tx.Put("kv", fmt.Sprintf("k%d", i), []byte("v"))
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		src := &wire.ReplicaSource{Addr: srv.addr, DialTimeout: 5 * time.Second}
		ch, cancel, err := src.SubscribeFrom(0)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		sc := <-l.accepted
		received := int64(0)
		for seen := 0; seen < commits; {
			select {
			case rec, ok := <-ch:
				if !ok {
					t.Fatalf("stream ended after %d records", received)
				}
				received++
				if len(rec.Ops) > 0 {
					seen++
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("timed out after %d records", received)
			}
		}
		// The server may be ahead of what has been received, never behind.
		if w := sc.writes.Load(); w < 1+received || sc.torn.Load() != 0 {
			t.Errorf("server: %d writes (%d not a whole frame) for 1 acknowledgement + %d records", w, sc.torn.Load(), received)
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		db := checkpointedDB(t, 40)
		l := listenCounting(t)
		srv, _ := startServerOn(t, db, Config{}, l)
		defer srv.Shutdown()

		src := &wire.ReplicaSource{Addr: srv.addr, DialTimeout: 5 * time.Second}
		info, err := src.ReplayCheckpoint(func(wal.Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if info.Records == 0 {
			t.Fatal("checkpoint streamed no records")
		}
		sc := <-l.accepted
		// Acknowledgement, the records, the terminator.
		if w, want := sc.writes.Load(), int64(info.Records)+2; w != want || sc.torn.Load() != 0 {
			t.Errorf("server: %d writes (%d not a whole frame), want %d", w, sc.torn.Load(), want)
		}
	})
}

// TestRequestsHoweverTheyArrive: a request that trickles in a byte at a
// time is served like any other, and requests that arrive together —
// the server reads ahead — are answered one by one in request order.
func TestRequestsHoweverTheyArrive(t *testing.T) {
	db := scanTable(t, 3)
	srv, _ := startServer(t, db, Config{})
	defer srv.Shutdown()
	nc := rawDial(t, srv.addr)
	br := bufio.NewReader(nc)

	for _, b := range frameOf(t, wire.Request{Op: wire.OpBegin, Isolation: pgssi.Serializable}) {
		if _, err := nc.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	begin := readResponse(t, br)
	if !begin.Status.OK() || begin.Handle == 0 {
		t.Fatalf("dribbled Begin: %+v", begin)
	}

	var batch []byte
	batch = append(batch, frameOf(t, wire.Request{Op: wire.OpGet, Handle: begin.Handle, Table: "kv", Key: "k000001"})...)
	batch = append(batch, frameOf(t, wire.Request{Op: wire.OpScan, Handle: begin.Handle, Table: "kv"})...)
	batch = append(batch, frameOf(t, wire.Request{Op: wire.OpReplicaStatus})...)
	batch = append(batch, frameOf(t, wire.Request{Op: wire.OpCommit, Handle: begin.Handle})...)
	if _, err := nc.Write(batch); err != nil {
		t.Fatal(err)
	}
	if get := readResponse(t, br); !get.Status.OK() || string(get.Value) != "v1" {
		t.Fatalf("1st answer should be the Get: %+v", get)
	}
	if scan := readResponse(t, br); !scan.Status.OK() || len(scan.Rows) != 3 {
		t.Fatalf("2nd answer should be the Scan: %+v", scan)
	}
	if status := readResponse(t, br); !status.Status.OK() || !status.HasSeqs {
		t.Fatalf("3rd answer should be the ReplicaStatus: %+v", status)
	}
	if commit := readResponse(t, br); !commit.Status.OK() || commit.HasSeqs || commit.Rows != nil {
		t.Fatalf("4th answer should be the Commit: %+v", commit)
	}
}

// TestHijackWithBufferedBytes: a hijacking request that arrives with
// more bytes behind it — already in the server's read buffer when the
// request loop hands the connection over — behaves as it did when the
// server read the socket directly. For Replicate a byte from the replica
// ends the stream; FetchCheckpoint never reads again and streams the
// whole checkpoint.
func TestHijackWithBufferedBytes(t *testing.T) {
	t.Run("replicate", func(t *testing.T) {
		db := attachedDB(t, "kv")
		srv, _ := startServer(t, db, Config{})
		defer srv.Shutdown()
		nc := rawDial(t, srv.addr)
		br := bufio.NewReader(nc)

		if _, err := nc.Write(append(frameOf(t, wire.Request{Op: wire.OpReplicate}), "stray"...)); err != nil {
			t.Fatal(err)
		}
		if resp := readResponse(t, br); !resp.Status.OK() {
			t.Fatalf("handshake: %v", resp.Status)
		}
		// Nothing commits, so only the stray bytes can end the stream.
		for {
			_, err := wire.ReadFrame(br, nil)
			if err == nil {
				continue
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("stream still open: the stray bytes were lost in the server's read buffer")
			}
			break
		}
	})

	t.Run("fetch checkpoint", func(t *testing.T) {
		db := checkpointedDB(t, 40)
		want, _ := db.CheckpointInfo()
		srv, _ := startServer(t, db, Config{})
		defer srv.Shutdown()
		nc := rawDial(t, srv.addr)
		br := bufio.NewReader(nc)

		if _, err := nc.Write(append(frameOf(t, wire.Request{Op: wire.OpFetchCheckpoint}), "stray"...)); err != nil {
			t.Fatal(err)
		}
		if resp := readResponse(t, br); !resp.Status.OK() {
			t.Fatalf("handshake: %v", resp.Status)
		}
		records := 0
		for {
			body, err := wire.ReadFrame(br, nil)
			if err != nil {
				t.Fatalf("stream ended after %d records without the terminator: %v", records, err)
			}
			rec, err := wal.DecodeRecordBody(body)
			if err != nil {
				t.Fatal(err)
			}
			if rec.SafeSnapshot {
				if uint64(rec.Seq) != uint64(want.Seq) {
					t.Fatalf("terminator at seq %d, checkpoint at %d", rec.Seq, want.Seq)
				}
				break
			}
			records++
		}
		if records != want.Records {
			t.Fatalf("streamed %d records, checkpoint holds %d", records, want.Records)
		}
	})
}

// TestIdleTimeoutWithCoarseDeadline: the read deadline is only set again
// now and then, and still a connection that keeps talking is kept past
// the timeout and one that stops is closed — no sooner than the timeout
// after its last request.
func TestIdleTimeoutWithCoarseDeadline(t *testing.T) {
	const idle = 400 * time.Millisecond
	db := scanTable(t, 0)
	srv, dial := startServer(t, db, Config{IdleTimeout: idle})
	defer srv.Shutdown()

	c := dial()
	defer c.Close()
	var last time.Time
	for start := time.Now(); time.Since(start) < 3*idle; time.Sleep(idle / 10) {
		last = time.Now()
		if st := c.Ping(); !st.OK() {
			t.Fatalf("busy connection dropped %v into the test: %v (%v)", time.Since(start), st, c.Err())
		}
	}

	nc := rawDial(t, srv.addr)
	if _, err := nc.Write(frameOf(t, wire.Request{Op: wire.OpPing})); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	readResponse(t, br)
	quiet := time.Now()
	if _, err := br.ReadByte(); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("idle connection was never closed")
	}
	if got := time.Since(quiet); got < idle {
		t.Fatalf("idle connection closed after %v, before the %v timeout", got, idle)
	}

	// The busy connection has been quiet since `last`: it is closed too.
	time.Sleep(time.Until(last.Add(2 * idle)))
	if st := c.Ping(); st != pgssi.StatusNetwork {
		t.Fatalf("connection idle for %v still served: %v", time.Since(last), st)
	}
}

// TestScanRowsSurviveNextResponse: rows a client got from one response
// stay what they were when the next response reuses the client's frame
// buffer, and when the caller writes to a neighbouring row.
func TestScanRowsSurviveNextResponse(t *testing.T) {
	db := scanTable(t, 200)
	srv, dial := startServer(t, db, Config{})
	defer srv.Shutdown()
	c := dial()
	defer c.Close()

	h, st := c.Begin(pgssi.RepeatableRead, true, false)
	if !st.OK() {
		t.Fatal(st)
	}
	first, st := c.Scan(h, "kv", "k000000", "k000100", 0)
	if !st.OK() || len(first) != 100 {
		t.Fatalf("first scan: %d rows, %v", len(first), st)
	}
	for i := range first[10].Value {
		first[10].Value[i] = '#'
	}
	first[20].Value = append(first[20].Value, "-grown"...)
	second, st := c.Scan(h, "kv", "k000100", "", 0)
	if !st.OK() || len(second) != 100 {
		t.Fatalf("second scan: %d rows, %v", len(second), st)
	}
	for i, kv := range first {
		wantKey, wantValue := fmt.Sprintf("k%06d", i), fmt.Sprintf("v%d", i)
		switch i {
		case 10:
			wantValue = "###"
		case 20:
			wantValue += "-grown"
		}
		if kv.Key != wantKey || string(kv.Value) != wantValue {
			t.Fatalf("first scan's row %d is now %q=%q, want %q=%q", i, kv.Key, kv.Value, wantKey, wantValue)
		}
	}
	for i, kv := range second {
		if want := fmt.Sprintf("v%d", 100+i); string(kv.Value) != want {
			t.Fatalf("second scan's row %d is %q, want %q", i, kv.Value, want)
		}
	}
}
