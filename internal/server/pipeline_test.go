package server

import (
	"fmt"
	"net"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/wire"
)

// openOnServer returns how many transactions the server's one
// connection has open.
func openOnServer(t *testing.T, srv *Server) int {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.conns) != 1 {
		t.Fatalf("server has %d connections, want 1", len(srv.conns))
	}
	for c := range srv.conns {
		return c.sess.Open()
	}
	return 0
}

// committedValue reads key as a new transaction sees it.
func committedValue(t *testing.T, db *pgssi.DB, key string) string {
	t.Helper()
	var v []byte
	err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true}, func(tx *pgssi.Tx) error {
		var err error
		v, err = tx.Get("kv", key)
		return err
	})
	if err != nil {
		t.Fatalf("read %s: %v", key, err)
	}
	return string(v)
}

// TestQueuedPutConflictRollsBack: a queued Put that loses
// first-updater-wins rolls its transaction back on the server before the
// Commit behind it is read, so the Commit reports the Put's failure and
// no write of the transaction — not even an earlier, successful one —
// becomes visible.
func TestQueuedPutConflictRollsBack(t *testing.T) {
	db := scanTable(t, 10)
	srv, dial := startServer(t, db, Config{})
	defer srv.Shutdown()
	c := dial()
	defer c.Close()

	h, st := c.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatal(st)
	}
	// The Get carries the Begin: the snapshot is taken now.
	if _, st := c.Get(h, "kv", "k000001"); !st.OK() {
		t.Fatal(st)
	}
	err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
		return tx.Put("kv", "k000002", []byte("theirs"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Put(h, "kv", "k000003", []byte("mine")); !st.OK() {
		t.Fatalf("queued put: %v", st)
	}
	if st := c.Put(h, "kv", "k000002", []byte("mine")); !st.OK() {
		t.Fatalf("queued put: %v", st)
	}
	if st := c.Commit(h); st != pgssi.StatusSerializationFailure {
		t.Fatalf("commit behind a conflicting put: %v, want serialization failure", st)
	}
	if n := openOnServer(t, srv.Server); n != 0 {
		t.Fatalf("%d transactions still open on the server", n)
	}
	if v := committedValue(t, db, "k000003"); v != "v3" {
		t.Fatalf("k000003 = %q: a write of the failed transaction is visible", v)
	}
	if v := committedValue(t, db, "k000002"); v != "theirs" {
		t.Fatalf("k000002 = %q, want the concurrent writer's value", v)
	}
}

// TestLongQueueOfPutsCommits: a transaction of 100 000 Puts, far more
// than one queue holds, commits — the client sends and answers its queue
// whenever it would pass 64 KiB, instead of writing on while the answers
// it does not read pile up in the socket buffers.
func TestLongQueueOfPutsCommits(t *testing.T) {
	const puts = 100_000
	db := scanTable(t, 0)
	srv, _ := startServer(t, db, Config{})
	defer srv.Shutdown()
	nc, err := net.Dial("tcp", srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c := wire.NewClient(cc, wire.DialOptions{Timeout: 10 * time.Second})
	defer c.Close()

	h, st := c.Begin(pgssi.RepeatableRead, false, false)
	if !st.OK() {
		t.Fatal(st)
	}
	for i := 0; i < puts; i++ {
		if st := c.Put(h, "kv", fmt.Sprintf("p%06d", i), []byte("v")); !st.OK() {
			t.Fatalf("put %d: %v (%v)", i, st, c.Err())
		}
	}
	if st := c.Commit(h); !st.OK() {
		t.Fatalf("commit: %v (%v)", st, c.Err())
	}
	if w := cc.largest.Load(); w > 64<<10 {
		t.Fatalf("the client wrote %d bytes at once, more than 64 KiB", w)
	}
	n := 0
	err = db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true}, func(tx *pgssi.Tx) error {
		return tx.Scan("kv", "", "", func(string, []byte) bool { n++; return true })
	})
	if err != nil || n != puts {
		t.Fatalf("%d rows committed (%v), want %d", n, err, puts)
	}
}

// TestQueuedFailureGoesToItsHandle: two goroutines share one Client. A
// queued Put on A's handle fails; B's Get carries it to the server. The
// failure is A's next call's answer, never B's.
func TestQueuedFailureGoesToItsHandle(t *testing.T) {
	db := scanTable(t, 10)
	srv, dial := startServer(t, db, Config{})
	defer srv.Shutdown()
	c := dial()
	defer c.Close()

	queued, flushed, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() { // A
		defer close(done)
		a, st := c.Begin(pgssi.Serializable, false, false)
		if !st.OK() {
			t.Errorf("A begin: %v", st)
		}
		if _, st := c.Get(a, "kv", "k000001"); !st.OK() {
			t.Errorf("A get: %v", st)
		}
		if st := c.Put(a, "missing", "k", []byte("v")); !st.OK() {
			t.Errorf("A's queued put answered %v", st)
		}
		close(queued)
		<-flushed
		if _, st := c.Get(a, "kv", "k000001"); st != pgssi.StatusNoTable {
			t.Errorf("A's next call: %v, want the put's no such table", st)
		}
		if st := c.Rollback(a); !st.OK() {
			t.Errorf("A rollback of the dead handle: %v", st)
		}
	}()

	<-queued
	b, st := c.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatal(st)
	}
	if _, st := c.Get(b, "kv", "k000002"); !st.OK() {
		t.Fatalf("B's get, which carried A's failing put: %v", st)
	}
	close(flushed)
	<-done
	if st := c.Commit(b); !st.OK() {
		t.Fatalf("B commit: %v", st)
	}
	if n := openOnServer(t, srv.Server); n != 0 {
		t.Fatalf("%d transactions still open on the server", n)
	}
}

// TestReadOnlyTxnWaitsOnce counts what a transaction costs the client
// over loopback: its Writes, and its Reads, each of which is a wait for
// the server. A read-only Begin rides with the Scan behind it, and the
// Commit of a handle the server answered settled is written and not
// waited for: one wait at RepeatableRead, and at Serializable on a safe
// snapshot. A concurrent read-write transaction keeps the snapshot
// unsafe past the Scan, and then the Commit is waited for. A read-write
// transaction keeps its three.
func TestReadOnlyTxnWaitsOnce(t *testing.T) {
	db := scanTable(t, 100)
	srv, _ := startServer(t, db, Config{})
	defer srv.Shutdown()
	nc, err := net.Dial("tcp", srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c := wire.NewClient(cc, wire.DialOptions{Timeout: 10 * time.Second})
	defer c.Close()

	report := func(level pgssi.IsolationLevel) func() {
		return func() {
			h, st := c.Begin(level, true, false)
			if !st.OK() {
				t.Fatalf("begin: %v", st)
			}
			if rows, st := c.Scan(h, "kv", "k000010", "k000020", 0); !st.OK() || len(rows) != 10 {
				t.Fatalf("scan: %d rows, %v", len(rows), st)
			}
			if st := c.Commit(h); !st.OK() {
				t.Fatalf("commit: %v", st)
			}
		}
	}
	for _, tc := range []struct {
		name          string
		writer        bool // a read-write transaction stays open throughout
		txn           func()
		writes, waits int64
	}{
		{name: "repeatable read", txn: report(pgssi.RepeatableRead), writes: 2, waits: 1},
		{name: "serializable, safe snapshot", txn: report(pgssi.Serializable), writes: 2, waits: 1},
		{name: "serializable, unsafe past the scan", writer: true, txn: report(pgssi.Serializable), writes: 2, waits: 2},
		{
			name: "read-write",
			txn: func() {
				h, st := c.Begin(pgssi.Serializable, false, false)
				if !st.OK() {
					t.Fatalf("begin: %v", st)
				}
				for _, k := range []string{"k000001", "k000002"} {
					if _, st := c.Get(h, "kv", k); !st.OK() {
						t.Fatalf("get %s: %v", k, st)
					}
				}
				if st := c.Put(h, "kv", "k000003", []byte("new")); !st.OK() {
					t.Fatalf("put: %v", st)
				}
				if st := c.Commit(h); !st.OK() {
					t.Fatalf("commit: %v", st)
				}
			},
			writes: 3, waits: 3,
		},
	} {
		var writer *pgssi.Tx
		if tc.writer {
			if writer, err = db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable}); err != nil {
				t.Fatal(err)
			}
		}
		w, r := cc.writes.Load(), cc.reads.Load()
		tc.txn()
		if dw, dr := cc.writes.Load()-w, cc.reads.Load()-r; dw != tc.writes || dr != tc.waits {
			t.Errorf("%s: %d writes and %d waits, want %d and %d", tc.name, dw, dr, tc.writes, tc.waits)
		}
		if writer != nil {
			writer.Rollback()
		}
		// The Ping reads the answer to an unwaited Commit, which must be ok.
		if st := c.Ping(); !st.OK() {
			t.Fatalf("%s: ping after the transaction: %v (%v)", tc.name, st, c.Err())
		}
		waitFor(t, 5*time.Second, func() bool { return openOnServer(t, srv.Server) == 0 }, tc.name+": the transaction to finish")
	}
}

// TestPreparedPivotFailsUnsafeReadOnlyCommit: a read-only transaction
// that is not on a safe snapshot can still fail at Commit. T1 reads x
// over the wire while T2 and T4 are open; T4 reads a, T2 writes a and x
// (T4 → T2 and T1 → T2) and reads y; both prepare; T3 writes y (T2 → T3)
// and commits first. The structure T4 → T2 → T3 is dangerous, the pivot
// T2 is prepared and cannot abort (§7.1), so an active reader of T2 is
// doomed in its place: T1. Its Get was answered unsettled, so its Commit
// is waited for and reports the failure.
func TestPreparedPivotFailsUnsafeReadOnlyCommit(t *testing.T) {
	db := scanTable(t, 0)
	for _, k := range []string{"a", "b", "x", "y"} {
		if err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.ReadCommitted}, func(tx *pgssi.Tx) error {
			return tx.Put("kv", k, []byte("0"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv, dial := startServer(t, db, Config{})
	defer srv.Shutdown()
	c := dial()
	defer c.Close()

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	begin := func() *pgssi.Tx {
		tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
		must(err)
		return tx
	}
	t4, t2 := begin(), begin()
	h, st := c.Begin(pgssi.Serializable, true, false)
	if !st.OK() {
		t.Fatalf("begin T1: %v", st)
	}
	if _, st := c.Get(h, "kv", "x"); !st.OK() {
		t.Fatalf("T1 get x: %v", st)
	}
	_, err := t4.Get("kv", "a")
	must(err)
	must(t4.Put("kv", "b", []byte("4")))
	must(t2.Put("kv", "a", []byte("2")))
	must(t2.Put("kv", "x", []byte("2")))
	_, err = t2.Get("kv", "y")
	must(err)
	must(t4.Prepare("t4"))
	must(t2.Prepare("t2"))
	t3 := begin()
	must(t3.Put("kv", "y", []byte("3")))
	must(t3.Commit())

	if st := c.Commit(h); st != pgssi.StatusSerializationFailure {
		t.Fatalf("T1 commit: %v (%v), want serialization failure", st, c.Err())
	}
	if st := c.Ping(); !st.OK() {
		t.Fatalf("ping: %v (%v)", st, c.Err())
	}
	must(db.CommitPrepared("t2"))
	must(db.CommitPrepared("t4"))
}
