package pgssi_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/mvcc"
	"pgssi/internal/wal"
)

// TestReplicaHaltsOnApplyError pins the apply-error contract: the first
// failing apply halts the replica, and the error surfaces from every
// observable — never a silently stale read.
func TestReplicaHaltsOnApplyError(t *testing.T) {
	log := wal.NewLog()
	rep := pgssi.NewReplica(log)
	defer rep.Close()

	// A commit against a table the replica does not have fails to apply.
	log.Append(wal.Record{Seq: 1, Xid: 1, Ops: []wal.Op{{Table: "missing", Key: "k", Value: []byte("v")}}})

	deadline := time.Now().Add(5 * time.Second)
	for rep.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("replica did not halt on the failing apply")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(rep.Err(), pgssi.ErrReplicaHalted) {
		t.Fatalf("halt error = %v, want ErrReplicaHalted", rep.Err())
	}
	if _, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{}); !errors.Is(err, pgssi.ErrReplicaHalted) {
		t.Fatalf("BeginReadOnly on halted replica = %v, want ErrReplicaHalted", err)
	}
	n, err := rep.AppliedRecords()
	if !errors.Is(err, pgssi.ErrReplicaHalted) {
		t.Fatalf("AppliedRecords on halted replica = %v, want ErrReplicaHalted", err)
	}
	if n != 0 {
		t.Fatalf("halted replica applied %d records, want 0 (frozen at divergence)", n)
	}
	if err := rep.WaitApplied(1); !errors.Is(err, pgssi.ErrReplicaHalted) {
		t.Fatalf("WaitApplied on halted replica = %v, want ErrReplicaHalted", err)
	}

	// Appending more records must not revive it.
	log.Append(wal.Record{Seq: 2, Xid: 2, SafeSnapshot: true})
	time.Sleep(10 * time.Millisecond)
	if n, _ := rep.AppliedRecords(); n != 0 {
		t.Fatalf("halted replica kept applying (%d records)", n)
	}
}

// scriptedSource is a wal.Source that refuses every subscription with
// err while err is set, and otherwise serves log.
type scriptedSource struct {
	log   *wal.DurableLog
	mu    sync.Mutex
	err   error
	calls int
}

func (s *scriptedSource) SubscribeFrom(after mvcc.SeqNo) (<-chan wal.Record, func(), error) {
	s.mu.Lock()
	s.calls++
	err := s.err
	s.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return s.log.SubscribeFrom(after)
}

func (s *scriptedSource) ReplayCheckpoint(fn func(wal.Record) error) (wal.CheckpointInfo, error) {
	return s.log.ReplayCheckpoint(fn)
}

// serve ends the refusals.
func (s *scriptedSource) serve() {
	s.mu.Lock()
	s.err = nil
	s.mu.Unlock()
}

// subscriptions reports how many times SubscribeFrom was called.
func (s *scriptedSource) subscriptions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// waitUntil polls cond until it holds, failing the test after d.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestReplicaHaltsOnNoStream: a source that refuses with (a wrap of)
// wal.ErrNoStream can never feed the replica, so it halts at the first
// refusal with the cause surfaced, instead of retrying forever.
func TestReplicaHaltsOnNoStream(t *testing.T) {
	src := &scriptedSource{log: wal.NewLog(), err: fmt.Errorf("scripted: %w", wal.ErrNoStream)}
	defer src.log.Close()
	rep := pgssi.NewReplica(src)
	defer rep.Close()
	waitUntil(t, 5*time.Second, "the replica to halt", func() bool { return rep.Err() != nil })
	if err := rep.Err(); !errors.Is(err, pgssi.ErrReplicaHalted) || !errors.Is(err, wal.ErrNoStream) {
		t.Fatalf("halt error = %v, want ErrReplicaHalted wrapping wal.ErrNoStream", err)
	}
	time.Sleep(20 * time.Millisecond)
	if calls := src.subscriptions(); calls != 1 {
		t.Fatalf("halted replica subscribed %d times, want 1", calls)
	}
}

// TestReplicaRetriesTransientSubscribeErrors: any other refusal is
// transient — after 20 of them the replica is still unhalted and still
// retrying, and once the source serves again it catches up.
func TestReplicaRetriesTransientSubscribeErrors(t *testing.T) {
	db, walLog := attachedDB(t)
	mustExec(t, db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
		return tx.Put("kv", "a", []byte("1"))
	}))
	src := &scriptedSource{log: walLog, err: errors.New("scripted: connection refused")}
	rep := pgssi.NewReplica(src)
	defer rep.Close()
	// The backoff doubles to a one-second cap, so 20 refusals take ~11 s.
	waitUntil(t, 60*time.Second, "20 refused subscriptions", func() bool {
		if err := rep.Err(); err != nil {
			t.Fatalf("replica halted on a transient refusal: %v", err)
		}
		return src.subscriptions() >= 20
	})
	if err := rep.Err(); err != nil {
		t.Fatalf("replica halted on a transient refusal: %v", err)
	}
	src.serve()
	waitUntil(t, 10*time.Second, "the replica to catch up", func() bool { return rep.AppliedSeq() >= db.CurrentSeq() })
	tx, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true, WaitSafe: true})
	mustExec(t, err)
	defer tx.Rollback()
	if v, err := tx.Get("kv", "a"); err != nil || string(v) != "1" {
		t.Fatalf("after catch-up, a = %q (%v), want 1", v, err)
	}
}

// attachedDB opens an in-memory database with table kv and an attached
// in-memory log, and returns both.
func attachedDB(t *testing.T) (*pgssi.DB, *wal.DurableLog) {
	t.Helper()
	walLog := wal.NewLog()
	db := pgssi.Open(pgssi.Config{})
	t.Cleanup(func() { db.Close() })
	mustExec(t, db.AttachWAL(walLog))
	mustExec(t, db.CreateTable("kv"))
	return db, walLog
}

// TestReplicaSeqPositions pins AppliedSeq/SafeSeq: they track the
// master's commit sequence and converge at quiescence.
func TestReplicaSeqPositions(t *testing.T) {
	db, walLog := attachedDB(t)
	rep := pgssi.NewReplica(walLog)
	defer rep.Close()
	if rep.AppliedSeq() != 0 || rep.SafeSeq() != 0 {
		t.Fatalf("fresh replica at %d/%d, want 0/0", rep.AppliedSeq(), rep.SafeSeq())
	}

	for i := 0; i < 3; i++ {
		mustExec(t, db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
			return tx.Insert("kv", fmt.Sprintf("k%d", i), []byte("v"))
		}))
	}
	mustExec(t, rep.WaitApplied(logLen(walLog)))
	if rep.AppliedSeq() != 3 || rep.SafeSeq() != 3 {
		t.Fatalf("replica at %d/%d after 3 commits, want 3/3", rep.AppliedSeq(), rep.SafeSeq())
	}
}

// TestAbortCompletesSafeSnapshot pins the liveness fix for wait-for-
// safe: a commit that happens while another transaction is in flight
// gets no marker, and if that other transaction then ABORTS, the abort
// must complete the safe point (§7.2 — a snapshot is safe once
// concurrent transactions complete, however they end). Without the
// abort-path marker the deferrable begin below blocks forever.
func TestAbortCompletesSafeSnapshot(t *testing.T) {
	db, walLog := attachedDB(t)
	rep := pgssi.NewReplica(walLog)
	defer rep.Close()

	// loser is concurrent with the commit of winner, so winner's commit
	// emits no safe-snapshot marker.
	loser, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, err)
	mustExec(t, loser.Put("kv", "doomed", []byte("x")))
	mustExec(t, db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
		return tx.Put("kv", "winner", []byte("1"))
	}))

	// The replica applies the commit (after the schema record) but has
	// no safe point past it yet.
	mustExec(t, rep.WaitApplied(2))
	if rep.SafeSeq() >= rep.AppliedSeq() {
		t.Fatalf("expected replica past its safe point (applied %d, safe %d)", rep.AppliedSeq(), rep.SafeSeq())
	}
	// A replica session refuses a non-deferrable serializable begin
	// here instead of serving it off the unsafe position.
	sess := rep.NewSession()
	defer sess.Close()
	if _, st := sess.Begin(pgssi.Serializable, true, false); st != pgssi.StatusNotSafe {
		t.Fatalf("non-deferrable session begin between markers: %v, want %v", st, pgssi.StatusNotSafe)
	}

	begun := make(chan error, 1)
	go func() {
		tx, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true, WaitSafe: true})
		if err == nil {
			defer tx.Rollback()
			if !tx.OnSafeSnapshot() {
				err = errors.New("deferrable begin returned a non-safe snapshot")
			} else if v, gerr := tx.Get("kv", "winner"); gerr != nil || string(v) != "1" {
				err = fmt.Errorf("safe snapshot missing the winner commit: %q, %v", v, gerr)
			}
		}
		begun <- err
	}()
	select {
	case err := <-begun:
		t.Fatalf("wait-for-safe returned before the concurrent transaction finished: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	// The abort is what makes the snapshot safe.
	mustExec(t, loser.Rollback())
	select {
	case err := <-begun:
		mustExec(t, err)
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not complete the safe point: wait-for-safe still blocked")
	}
}

// TestReplicaWaitSafeUnderWorkload hammers wait-for-safe begins while
// the master runs a concurrent write workload; every begin must land on
// a safe snapshot. Run under -race this also exercises the apply-loop /
// reader synchronization.
func TestReplicaWaitSafeUnderWorkload(t *testing.T) {
	db, walLog := attachedDB(t)
	rep := pgssi.NewReplica(walLog)
	defer rep.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
					return tx.Put("kv", fmt.Sprintf("w%d", w), []byte{byte(i)})
				})
			}
		}(w)
	}

	for i := 0; i < 100; i++ {
		tx, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true, WaitSafe: true})
		mustExec(t, err)
		if !tx.OnSafeSnapshot() {
			t.Fatalf("begin %d: serializable replica read not on a safe snapshot", i)
		}
		if err := tx.Scan("kv", "", "", func(string, []byte) bool { return true }); err != nil {
			t.Fatalf("begin %d scan: %v", i, err)
		}
		mustExec(t, tx.Commit())
	}
	close(stop)
	wg.Wait()
}

// TestReplicaSessionServesOnlySafeSnapshots begins serializable
// read-only transactions through sessions on two replicas of one log,
// as a replica-mode server does, while the master writes. A deferrable
// begin must land on a safe snapshot; a non-deferrable one must land on
// one or be refused with StatusNotSafe. No begin may serve a read off a
// position that is not safe.
func TestReplicaSessionServesOnlySafeSnapshots(t *testing.T) {
	db, walLog := attachedDB(t)
	var sessions []*pgssi.Session
	for r := 0; r < 2; r++ {
		rep := pgssi.NewReplica(walLog)
		defer rep.Close()
		sess := rep.NewSession()
		defer sess.Close()
		sessions = append(sessions, sess)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
					return tx.Put("kv", fmt.Sprintf("w%d", w), []byte{byte(i)})
				})
			}
		}(w)
	}

	served, refused := 0, 0
	for i := 0; i < 50; i++ {
		for r, sess := range sessions {
			for _, deferrable := range []bool{true, false} {
				h, st := sess.Begin(pgssi.Serializable, true, deferrable)
				if st == pgssi.StatusNotSafe && !deferrable {
					refused++
					continue
				}
				if !st.OK() {
					t.Fatalf("replica %d begin %d (deferrable %v): %v", r, i, deferrable, st)
				}
				if !pgssi.SessionTx(sess, h).OnSafeSnapshot() {
					t.Fatalf("replica %d begin %d (deferrable %v): serializable replica read not on a safe snapshot", r, i, deferrable)
				}
				if _, st := sess.Get(h, "kv", "w0"); !st.OK() && st != pgssi.StatusNotFound {
					t.Fatalf("replica %d begin %d get: %v", r, i, st)
				}
				if st := sess.Commit(h); !st.OK() {
					t.Fatalf("replica %d begin %d commit: %v", r, i, st)
				}
				served++
			}
		}
	}
	close(stop)
	wg.Wait()
	if served == 0 {
		t.Fatal("no serializable reads were served by the replica sessions")
	}
	t.Logf("%d begins served, %d non-deferrable begins refused between markers", served, refused)
}

// TestReplicaSessionRefusesWrites pins the replica session contract
// over the shared session surface.
func TestReplicaSessionRefusesWrites(t *testing.T) {
	db, walLog := attachedDB(t)
	mustExec(t, db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
		return tx.Insert("kv", "k", []byte("v"))
	}))

	rep := pgssi.NewReplica(walLog)
	defer rep.Close()
	mustExec(t, rep.WaitApplied(logLen(walLog)))

	sess := rep.NewSession()
	defer sess.Close()
	if _, st := sess.Begin(pgssi.Serializable, false, false); st != pgssi.StatusReadOnlyTx {
		t.Fatalf("read-write begin on replica session: %v", st)
	}
	if st := sess.CreateTable("t2"); st != pgssi.StatusReadOnlyTx {
		t.Fatalf("ddl on replica session: %v", st)
	}
	h, st := sess.Begin(pgssi.Serializable, true, true)
	if !st.OK() {
		t.Fatalf("read-only begin: %v", st)
	}
	if v, st := sess.Get(h, "kv", "k"); !st.OK() || string(v) != "v" {
		t.Fatalf("get = %q, %v", v, st)
	}
	if st := sess.Put(h, "kv", "k", []byte("w")); st != pgssi.StatusReadOnlyTx {
		t.Fatalf("put in read-only txn: %v", st)
	}
	if st := sess.Commit(h); !st.OK() {
		t.Fatalf("commit: %v", st)
	}
}

// TestSessionBeginRefusalStatuses pins the Status each refused
// Session.Begin reports, primary and replica: a front-end forwards it
// to the client unchanged, so a remapping is a protocol change.
func TestSessionBeginRefusalStatuses(t *testing.T) {
	closed := func(t *testing.T) *pgssi.Session {
		db := pgssi.Open(pgssi.Config{})
		db.Close()
		return db.NewSession()
	}
	primary := func(t *testing.T) *pgssi.Session {
		db := pgssi.Open(pgssi.Config{})
		t.Cleanup(func() { db.Close() })
		return db.NewSession()
	}
	poisoned := func(t *testing.T) *pgssi.Session {
		ffs := wal.NewFaultFS()
		db, err := pgssi.OpenDirWithHooks(t.TempDir(), pgssi.Config{FsyncMode: pgssi.FsyncAlways}, pgssi.Hooks{WALFS: ffs})
		mustExec(t, err)
		t.Cleanup(func() { db.Close() })
		mustExec(t, db.CreateTable("t"))
		ffs.FailSyncs(errors.New("disk on fire"))
		if err := db.RunTx(pgssi.TxOptions{}, func(tx *pgssi.Tx) error { return tx.Put("t", "k", []byte("v")) }); err == nil {
			t.Fatal("commit acknowledged over a failed fsync")
		}
		ffs.FailSyncs(nil)
		return db.NewSession()
	}
	betweenMarkers := func(t *testing.T) *pgssi.Session {
		// A commit while another transaction is open gets no marker, so
		// the replica applies it with no safe point past it.
		db, walLog := attachedDB(t)
		rep := pgssi.NewReplica(walLog)
		t.Cleanup(func() { rep.Close() })
		open, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
		mustExec(t, err)
		t.Cleanup(func() { open.Rollback() })
		mustExec(t, db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
			return tx.Put("kv", "k", []byte("v"))
		}))
		mustExec(t, rep.WaitApplied(2))
		return rep.NewSession()
	}
	halted := func(t *testing.T) *pgssi.Session {
		log := wal.NewLog()
		rep := pgssi.NewReplica(log)
		t.Cleanup(func() { rep.Close() })
		// A commit against a table the replica does not have halts it.
		log.Append(wal.Record{Seq: 1, Xid: 1, Ops: []wal.Op{{Table: "nope", Key: "k", Value: []byte("v")}}})
		for deadline := time.Now().Add(5 * time.Second); rep.Err() == nil; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("replica did not halt")
			}
		}
		return rep.NewSession()
	}

	for _, c := range []struct {
		name                 string
		session              func(*testing.T) *pgssi.Session
		level                pgssi.IsolationLevel
		readOnly, deferrable bool
		want                 pgssi.Status
	}{
		{"closed DB", closed, pgssi.Serializable, false, false, pgssi.StatusShuttingDown},
		{"deferrable read-write", primary, pgssi.Serializable, false, true, pgssi.StatusInvalidRequest},
		{"deferrable repeatable read", primary, pgssi.RepeatableRead, true, true, pgssi.StatusInvalidRequest},
		{"poisoned WAL", poisoned, pgssi.Serializable, false, false, pgssi.StatusDurabilityLost},
		{"replica between markers", betweenMarkers, pgssi.Serializable, true, false, pgssi.StatusNotSafe},
		{"halted replica", halted, pgssi.Serializable, true, false, pgssi.StatusReplicaHalted},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.session(t)
			defer s.Close()
			if _, st := s.Begin(c.level, c.readOnly, c.deferrable); st != c.want {
				t.Fatalf("Begin = %v, want %v", st, c.want)
			}
		})
	}
}
