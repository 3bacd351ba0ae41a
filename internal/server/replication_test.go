package server

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/wal"
	"pgssi/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// attachedDB opens an in-memory database with an attached in-memory log
// and the given tables; the test's cleanup closes it.
func attachedDB(t *testing.T, tables ...string) *pgssi.DB {
	t.Helper()
	db := pgssi.Open(pgssi.Config{})
	t.Cleanup(func() { db.Close() })
	if err := db.AttachWAL(wal.NewLog()); err != nil {
		t.Fatal(err)
	}
	for _, name := range tables {
		if err := db.CreateTable(name); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestReplicationOverTCP streams a primary's WAL to a replica through a
// real server connection and serves serializable reads from it.
func TestReplicationOverTCP(t *testing.T) {
	db := attachedDB(t, "kv")
	srv, _ := startServer(t, db, Config{})
	defer srv.Shutdown()

	for i := 0; i < 3; i++ {
		err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
			return tx.Insert("kv", "k"+string(rune('a'+i)), []byte{byte(i)})
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	src := &wire.ReplicaSource{Addr: srv.addr, DialTimeout: 5 * time.Second}
	rep := pgssi.NewReplica(src)
	defer rep.Close()

	// The schema record, 3 commits and 3 safe markers (no concurrency on
	// the master).
	if err := rep.WaitApplied(7); err != nil {
		t.Fatal(err)
	}
	tx, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true, WaitSafe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if !tx.OnSafeSnapshot() {
		t.Fatal("replica serializable read not on a safe snapshot")
	}
	n := 0
	if err := tx.Scan("kv", "", "", func(string, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replica saw %d rows, want 3", n)
	}
	if seq := rep.AppliedSeq(); seq == 0 || seq != rep.SafeSeq() {
		t.Fatalf("positions: applied seq %d, safe seq %d", seq, rep.SafeSeq())
	}
}

// TestReplicaServerServesReadOnly fronts a replica with its own server
// and checks the read-only session contract over the wire.
func TestReplicaServerServesReadOnly(t *testing.T) {
	db := attachedDB(t, "kv")
	srv, _ := startServer(t, db, Config{})
	defer srv.Shutdown()

	if err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
		return tx.Insert("kv", "k", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}

	rep := pgssi.NewReplica(&wire.ReplicaSource{Addr: srv.addr, DialTimeout: 5 * time.Second})
	defer rep.Close()
	// The schema record, the commit and its marker.
	if err := rep.WaitApplied(3); err != nil {
		t.Fatal(err)
	}

	rsrv := NewReplicaServer(rep, Config{Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rsrv.Serve(l)
	defer rsrv.Shutdown()

	c, err := wire.Dial(l.Addr().String(), wire.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Writes and DDL are refused. A read-write Begin is queued, so its
	// refusal is the answer to its first operation, and the handle is dead
	// after it.
	rw, st := c.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatalf("read-write begin: %v, want it queued", st)
	}
	if _, st := c.Get(rw, "kv", "k"); st != pgssi.StatusReadOnlyTx {
		t.Fatalf("read-write begin on replica: %v, want read-only refusal", st)
	}
	if _, st := c.Get(rw, "kv", "k"); st != pgssi.StatusTxDone {
		t.Fatalf("refused read-write handle still usable: %v", st)
	}
	if st := c.Rollback(rw); !st.OK() {
		t.Fatalf("rollback of the refused handle: %v", st)
	}
	if st := c.CreateTable("other"); st != pgssi.StatusReadOnlyTx {
		t.Fatalf("ddl on replica: %v, want read-only refusal", st)
	}

	// A deferrable serializable read-only txn serves from the safe
	// snapshot.
	h, st := c.Begin(pgssi.Serializable, true, true)
	if !st.OK() {
		t.Fatalf("serializable read-only begin: %v", st)
	}
	v, st := c.Get(h, "kv", "k")
	if !st.OK() || string(v) != "v" {
		t.Fatalf("replica get = %q, %v", v, st)
	}
	if st := c.Put(h, "kv", "k", []byte("w")); st != pgssi.StatusReadOnlyTx {
		t.Fatalf("put in read-only txn: %v", st)
	}
	if st := c.Commit(h); !st.OK() {
		t.Fatalf("commit: %v", st)
	}

	// Status reports positions; primary reports its own seq for both.
	applied, safe, st := c.ReplicaStatus()
	if !st.OK() || applied == 0 || applied != safe {
		t.Fatalf("replica status = %d/%d, %v", applied, safe, st)
	}
}

// TestReplicaStatusPositions reads positions over the wire with
// wire.Client.ReplicaStatus while the primary writes: a replica-mode
// server never reports a safe position past its applied one, and its
// applied position converges to the primary's CurrentSeq once the
// writes stop; the primary answers with its own position in both
// fields. (A halted replica's answer is TestReplicaHaltReportedOverWire.)
// The primary here commits only writes: a read-only commit consumes a
// sequence number without a log record, so the marker that follows it
// can run ahead of every applied commit.
func TestReplicaStatusPositions(t *testing.T) {
	db := attachedDB(t, "kv")
	srv, dial := startServer(t, db, Config{})
	defer srv.Shutdown()
	primary := dial()
	defer primary.Close()

	rep := pgssi.NewReplica(&wire.ReplicaSource{Addr: srv.addr, DialTimeout: 5 * time.Second})
	defer rep.Close()
	rsrv := NewReplicaServer(rep, Config{Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rsrv.Serve(l)
	defer rsrv.Shutdown()
	c, err := wire.Dial(l.Addr().String(), wire.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const commits = 300
	done := make(chan error, 1)
	go func() {
		for i := 0; i < commits; i++ {
			if err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
				return tx.Put("kv", fmt.Sprintf("k%d", i%10), []byte{byte(i)})
			}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var last uint64
	check := func() (uint64, uint64) {
		applied, safe, st := c.ReplicaStatus()
		if !st.OK() {
			t.Fatalf("replica status: %v", st)
		}
		if safe > applied {
			t.Fatalf("replica status: safe %d past applied %d", safe, applied)
		}
		if applied < last {
			t.Fatalf("replica status: applied went back from %d to %d", last, applied)
		}
		last = applied
		return applied, safe
	}
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
			check()
		}
	}

	want := db.CurrentSeq()
	if want != commits {
		t.Fatalf("primary at seq %d after %d commits", want, commits)
	}
	// The marker that makes the last commit safe can trail its apply:
	// wait for both positions before asserting on safe.
	waitFor(t, 5*time.Second, func() bool {
		applied, safe := check()
		return applied == want && safe == want
	}, "replica status to reach the primary's position")
	if _, safe, _ := c.ReplicaStatus(); safe != want {
		t.Fatalf("quiescent replica: safe %d, want %d", safe, want)
	}
	if applied, safe, st := primary.ReplicaStatus(); !st.OK() || applied != want || safe != want {
		t.Fatalf("primary status = %d/%d, %v; want its own position %d in both", applied, safe, st, want)
	}
}

// TestReplicaStatusPositionAfterReadOnlyCommits: read-only commits use
// up sequence numbers on the primary without a commit record, so a
// caught-up replica's applied position stays at the last write while
// its safe position follows the markers. max(applied, safe) is the
// replica's position, and at quiescence it equals the primary's.
func TestReplicaStatusPositionAfterReadOnlyCommits(t *testing.T) {
	db := attachedDB(t, "kv")
	srv, _ := startServer(t, db, Config{})
	defer srv.Shutdown()

	rep := pgssi.NewReplica(&wire.ReplicaSource{Addr: srv.addr, DialTimeout: 5 * time.Second})
	defer rep.Close()
	rsrv := NewReplicaServer(rep, Config{Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rsrv.Serve(l)
	defer rsrv.Shutdown()
	c, err := wire.Dial(l.Addr().String(), wire.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
		return tx.Put("kv", "k", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable, ReadOnly: true}, func(tx *pgssi.Tx) error {
			_, err := tx.Get("kv", "k")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := db.CurrentSeq()
	if want != 5 {
		t.Fatalf("primary at seq %d after 5 commits", want)
	}
	var applied, safe uint64
	waitFor(t, 5*time.Second, func() bool {
		var st pgssi.Status
		applied, safe, st = c.ReplicaStatus()
		if !st.OK() {
			t.Fatalf("replica status: %v", st)
		}
		return max(applied, safe) == want
	}, "replica position max(applied, safe) to reach the primary's")
	// The one commit record is seq 1; the markers carry the rest.
	if applied != 1 || safe != want {
		t.Fatalf("quiescent replica: applied %d, safe %d; want 1 and %d", applied, safe, want)
	}
}

// TestReplicateWithoutWAL: a primary with no WAL refuses replication
// with a typed status, and ReplicaSource surfaces it as wal.ErrNoStream.
func TestReplicateWithoutWAL(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	srv, _ := startServer(t, db, Config{})
	defer srv.Shutdown()

	conn, err := net.Dial("tcp", srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := wire.AppendRequest(nil, &wire.Request{Op: wire.OpReplicate})
	if err := wire.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	body, err := wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != pgssi.StatusNoReplication {
		t.Fatalf("replicate on WAL-less primary: %v, want StatusNoReplication", resp.Status)
	}

	src := &wire.ReplicaSource{Addr: srv.addr, DialTimeout: 5 * time.Second}
	if ch, _, err := src.SubscribeFrom(0); !errors.Is(err, wal.ErrNoStream) || ch != nil {
		t.Fatalf("SubscribeFrom(0) on WAL-less primary = %v (channel %v), want wal.ErrNoStream", err, ch)
	}
}

// TestReplicaHaltsOnNoReplication: a replica attached to a primary that
// refuses replication outright (no WAL stream) must halt with the
// refusal surfaced — not retry forever while looking healthy at seq 0.
func TestReplicaHaltsOnNoReplication(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	srv, _ := startServer(t, db, Config{})
	defer srv.Shutdown()

	src := &wire.ReplicaSource{Addr: srv.addr, DialTimeout: 5 * time.Second}
	rep := pgssi.NewReplica(src)
	defer rep.Close()
	waitFor(t, 5*time.Second, func() bool { return rep.Err() != nil }, "halt on refused replication")
	if !errors.Is(rep.Err(), pgssi.ErrReplicaHalted) {
		t.Fatalf("halt error = %v, want ErrReplicaHalted", rep.Err())
	}
	if !errors.Is(rep.Err(), wal.ErrNoStream) {
		t.Fatalf("halt error = %v, want it to wrap wal.ErrNoStream", rep.Err())
	}
	if _, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true}); !errors.Is(err, pgssi.ErrReplicaHalted) {
		t.Fatalf("begin on halted replica = %v, want ErrReplicaHalted", err)
	}
}

// TestReplicaCatchesUpAcrossMasterRestart: a durable master is stopped
// and reopened on the same address while a replica is attached. The
// replica must reconnect, resume from its applied position, and apply
// the new records exactly once.
func TestReplicaCatchesUpAcrossMasterRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := pgssi.OpenDir(dir, pgssi.Config{FsyncMode: pgssi.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	srv, _ := startServer(t, db, Config{})

	put := func(d *pgssi.DB, k, v string) {
		t.Helper()
		if err := d.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
			return tx.Put("kv", k, []byte(v))
		}); err != nil {
			t.Fatal(err)
		}
	}
	put(db, "a", "1")
	put(db, "b", "2")

	rep := pgssi.NewReplica(&wire.ReplicaSource{Addr: srv.addr, DialTimeout: 5 * time.Second})
	defer rep.Close()
	// Durable stream: schema record + 2 commits + 2 markers.
	if err := rep.WaitApplied(5); err != nil {
		t.Fatal(err)
	}
	applied1, err := rep.AppliedRecords()
	if err != nil {
		t.Fatal(err)
	}
	seq1 := rep.AppliedSeq()

	// Restart the master on the same address.
	srv.Shutdown()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := pgssi.OpenDir(dir, pgssi.Config{FsyncMode: pgssi.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	l, err := net.Listen("tcp", srv.addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", srv.addr, err)
	}
	srv2 := New(db2, Config{Logf: t.Logf})
	go srv2.Serve(l)
	defer srv2.Shutdown()

	put(db2, "c", "3")

	waitFor(t, 10*time.Second, func() bool {
		if err := rep.Err(); err != nil {
			t.Fatalf("replica halted during catch-up: %v", err)
		}
		return rep.AppliedSeq() > seq1
	}, "replica to catch up past the restart")

	tx, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true, WaitSafe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		v, err := tx.Get("kv", k)
		if err != nil || string(v) != want {
			t.Fatalf("after catch-up, %s = %q (%v), want %q", k, v, err, want)
		}
	}
	// Exactly once: the reconnect resumed after seq1, so the total
	// applied count grows only by the new records (1 commit + markers),
	// never re-applying the prefix.
	applied2, err := rep.AppliedRecords()
	if err != nil {
		t.Fatal(err)
	}
	grown := applied2 - applied1
	if grown <= 0 || grown > 4 {
		t.Fatalf("applied count grew by %d across restart (was %d, now %d): prefix re-applied?", grown, applied1, applied2)
	}
}

// TestReplicaHaltReportedOverWire: a replica that halts on an apply
// error reports StatusReplicaHalted from both Begin and ReplicaStatus —
// it must never quietly serve stale snapshots. The client queues the
// Begin, so its refusal arrives on the first read of the handle.
func TestReplicaHaltReportedOverWire(t *testing.T) {
	log := wal.NewLog()
	rep := pgssi.NewReplica(log)
	defer rep.Close()
	// A commit against a table the replica does not have: apply fails.
	log.Append(wal.Record{Seq: 1, Xid: 1, Ops: []wal.Op{{Table: "nope", Key: "k", Value: []byte("v")}}})
	waitFor(t, 5*time.Second, func() bool { return rep.Err() != nil }, "replica halt")
	if !errors.Is(rep.Err(), pgssi.ErrReplicaHalted) {
		t.Fatalf("halt error = %v", rep.Err())
	}

	rsrv := NewReplicaServer(rep, Config{Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rsrv.Serve(l)
	defer rsrv.Shutdown()
	c, err := wire.Dial(l.Addr().String(), wire.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, st := c.ReplicaStatus(); st != pgssi.StatusReplicaHalted {
		t.Fatalf("status on halted replica: %v, want StatusReplicaHalted", st)
	}
	h, st := c.Begin(pgssi.Serializable, true, false)
	if !st.OK() {
		t.Fatalf("queued begin: %v", st)
	}
	if _, st := c.Scan(h, "kv", "", "", 0); st != pgssi.StatusReplicaHalted {
		t.Fatalf("first read on a halted replica: %v, want StatusReplicaHalted", st)
	}
	if st := c.Rollback(h); !st.OK() {
		t.Fatalf("rollback of the refused handle: %v, want ok", st)
	}
}
