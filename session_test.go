package pgssi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newSessionDB(t *testing.T, tables ...string) *DB {
	t.Helper()
	db := Open(Config{})
	t.Cleanup(func() { db.Close() })
	for _, tbl := range tables {
		if err := db.CreateTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestSessionBasics(t *testing.T) {
	db := newSessionDB(t, "kv")
	s := db.NewSession()

	h, st := s.Begin(Serializable, false, false)
	if !st.OK() || h == 0 {
		t.Fatalf("begin: h=%d st=%v", h, st)
	}
	if st := s.Insert(h, "kv", "a", []byte("1")); !st.OK() {
		t.Fatalf("insert: %v", st)
	}
	if st := s.Insert(h, "kv", "a", []byte("x")); st != StatusDuplicateKey {
		t.Fatalf("dup insert: %v", st)
	}
	if st := s.Put(h, "kv", "a", []byte("2")); !st.OK() {
		t.Fatalf("put existing: %v", st)
	}
	if st := s.Put(h, "kv", "b", []byte("3")); !st.OK() {
		t.Fatalf("put new (upsert): %v", st)
	}
	v, st := s.Get(h, "kv", "a")
	if !st.OK() || string(v) != "2" {
		t.Fatalf("get: %q %v", v, st)
	}
	rows, st := s.Scan(h, "kv", "", "", 0)
	if !st.OK() || len(rows) != 2 {
		t.Fatalf("scan: %v %v", st, rows)
	}
	if st := s.Delete(h, "kv", "b"); !st.OK() {
		t.Fatalf("delete: %v", st)
	}
	if _, st := s.Get(h, "kv", "b"); st != StatusNotFound {
		t.Fatalf("get deleted: %v", st)
	}
	if _, st := s.Get(h, "none", "a"); st != StatusNoTable {
		t.Fatalf("get no table: %v", st)
	}
	if s.Open() != 1 {
		t.Fatalf("Open() = %d, want 1", s.Open())
	}
	if st := s.Commit(h); !st.OK() {
		t.Fatalf("commit: %v", st)
	}
	if s.Open() != 0 {
		t.Fatalf("Open() after commit = %d", s.Open())
	}

	// The handle is gone after commit.
	if _, st := s.Get(h, "kv", "a"); st != StatusInvalidHandle {
		t.Fatalf("get on committed handle: %v", st)
	}
	if st := s.Rollback(h); st != StatusInvalidHandle {
		t.Fatalf("rollback committed handle: %v", st)
	}
	if _, st := s.Get(0, "kv", "a"); st != StatusInvalidHandle {
		t.Fatalf("zero handle: %v", st)
	}
}

func TestSessionReadOnly(t *testing.T) {
	db := newSessionDB(t, "kv")
	s := db.NewSession()
	h, st := s.Begin(Serializable, true, false)
	if !st.OK() {
		t.Fatal(st)
	}
	if st := s.Put(h, "kv", "a", []byte("1")); st != StatusReadOnlyTx {
		t.Fatalf("write in read-only tx: %v", st)
	}
	if st := s.Commit(h); !st.OK() {
		t.Fatal(st)
	}
}

func TestSessionSavepoints(t *testing.T) {
	db := newSessionDB(t, "kv")
	s := db.NewSession()
	h, _ := s.Begin(Serializable, false, false)
	s.Insert(h, "kv", "keep", []byte("1"))
	if st := s.Savepoint(h, "sp"); !st.OK() {
		t.Fatalf("savepoint: %v", st)
	}
	s.Insert(h, "kv", "drop", []byte("2"))
	if st := s.RollbackToSavepoint(h, "sp"); !st.OK() {
		t.Fatalf("rollback to sp: %v", st)
	}
	if st := s.ReleaseSavepoint(h, "missing"); st != StatusNoSavepoint {
		t.Fatalf("release missing sp: %v", st)
	}
	if st := s.Commit(h); !st.OK() {
		t.Fatal(st)
	}
	h, _ = s.Begin(ReadCommitted, true, false)
	if _, st := s.Get(h, "kv", "keep"); !st.OK() {
		t.Fatalf("keep lost: %v", st)
	}
	if _, st := s.Get(h, "kv", "drop"); st != StatusNotFound {
		t.Fatalf("drop survived: %v", st)
	}
	s.Commit(h)
}

// TestSessionWriteSkew runs write skew through two in-process sessions:
// exactly one must fail with StatusSerializationFailure.
func TestSessionWriteSkew(t *testing.T) {
	db := newSessionDB(t, "oncall")
	setup := db.NewSession()
	h, _ := setup.Begin(ReadCommitted, false, false)
	setup.Insert(h, "oncall", "alice", []byte("on"))
	setup.Insert(h, "oncall", "bob", []byte("on"))
	if st := setup.Commit(h); !st.OK() {
		t.Fatal(st)
	}

	s1, s2 := db.NewSession(), db.NewSession()
	h1, _ := s1.Begin(Serializable, false, false)
	h2, _ := s2.Begin(Serializable, false, false)
	for _, k := range []string{"alice", "bob"} {
		if _, st := s1.Get(h1, "oncall", k); !st.OK() {
			t.Fatal(st)
		}
		if _, st := s2.Get(h2, "oncall", k); !st.OK() {
			t.Fatal(st)
		}
	}
	st1 := s1.Update(h1, "oncall", "alice", []byte("off"))
	st2 := s2.Update(h2, "oncall", "bob", []byte("off"))
	if st1.OK() {
		st1 = s1.Commit(h1)
	} else {
		s1.Rollback(h1)
	}
	if st2.OK() {
		st2 = s2.Commit(h2)
	} else {
		s2.Rollback(h2)
	}
	failures := 0
	for _, st := range []Status{st1, st2} {
		if st == StatusSerializationFailure {
			failures++
		} else if st != StatusOK {
			t.Fatalf("unexpected status %v (st1=%v st2=%v)", st, st1, st2)
		}
	}
	if failures != 1 {
		t.Fatalf("want exactly 1 serialization failure, got %d (st1=%v st2=%v)", failures, st1, st2)
	}
}

// TestSessionRetryable: serialization failures are the retryable ones.
func TestSessionRetryable(t *testing.T) {
	if !StatusSerializationFailure.Retryable() {
		t.Fatal("serialization failure must be retryable")
	}
	for _, st := range []Status{StatusOK, StatusNotFound, StatusDuplicateKey, StatusInvalidHandle, StatusShuttingDown} {
		if st.Retryable() {
			t.Fatalf("%v must not be retryable", st)
		}
	}
}

// TestStatusRoundTrip: Status→error→Status is the identity for every
// code that maps to an error, and StatusOf inverts Err.
func TestStatusRoundTrip(t *testing.T) {
	for st := StatusOK; st <= StatusInternal; st++ {
		err := st.Err()
		if st == StatusOK {
			if err != nil {
				t.Fatalf("StatusOK.Err() = %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%v.Err() = nil", st)
		}
		// StatusInvalidRequest and StatusInternal have no sentinel of
		// their own; their errors legitimately map back to StatusInternal.
		if got := StatusOf(err); got != st && st != StatusInternal && st != StatusInvalidRequest {
			t.Fatalf("StatusOf(%v.Err()) = %v", st, got)
		}
		if st.String() == "" {
			t.Fatalf("status %d has no name", uint8(st))
		}
	}
	if StatusOf(nil) != StatusOK {
		t.Fatal("StatusOf(nil)")
	}
	if StatusOf(fmt.Errorf("unknown")) != StatusInternal {
		t.Fatal("StatusOf(unknown error)")
	}
}

// TestSessionClose rolls back open handles but leaves the session
// usable.
func TestSessionClose(t *testing.T) {
	db := newSessionDB(t, "kv")
	s := db.NewSession()
	h, _ := s.Begin(Serializable, false, false)
	s.Insert(h, "kv", "doomed", []byte("1"))
	h2, _ := s.Begin(Serializable, false, false)
	if s.Open() != 2 {
		t.Fatalf("Open() = %d", s.Open())
	}
	s.Close()
	if s.Open() != 0 {
		t.Fatalf("Open() after Close = %d", s.Open())
	}
	if _, st := s.Get(h, "kv", "doomed"); st != StatusInvalidHandle {
		t.Fatalf("handle survived Close: %v", st)
	}
	if st := s.Commit(h2); st != StatusInvalidHandle {
		t.Fatalf("handle survived Close: %v", st)
	}
	// The session itself is still usable after Close.
	h3, st := s.Begin(ReadCommitted, true, false)
	if !st.OK() {
		t.Fatalf("begin after Close: %v", st)
	}
	if _, st := s.Get(h3, "kv", "doomed"); st != StatusNotFound {
		t.Fatalf("doomed write survived session Close: %v", st)
	}
	s.Commit(h3)
}

// TestSessionConcurrent exercises the session's own locking: many
// goroutines, each with its own handle, under -race.
func TestSessionConcurrent(t *testing.T) {
	db := newSessionDB(t, "kv")
	s := db.NewSession()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				h, st := s.Begin(Serializable, false, false)
				if !st.OK() {
					t.Errorf("begin: %v", st)
					return
				}
				key := fmt.Sprintf("g%d-%d", g, i)
				if st := s.Put(h, "kv", key, []byte("v")); !st.OK() {
					s.Rollback(h)
					continue
				}
				if st := s.Commit(h); st != StatusOK && st != StatusSerializationFailure {
					t.Errorf("commit: %v", st)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRunTxAttemptsBounded: a transaction body that always fails with a
// serialization error stops after runTxAttempts (64) calls and surfaces
// both the exhaustion sentinel and the retryability of the underlying
// cause. The exhausted run sleeps through RunTx's backoff, ≈ 0.6 s.
func TestRunTxAttemptsBounded(t *testing.T) {
	db := newSessionDB(t, "kv")
	calls := 0
	err := db.RunTx(TxOptions{}, func(tx *Tx) error {
		calls++
		return ErrSerialization
	})
	if calls != 64 {
		t.Fatalf("calls=%d, want 64", calls)
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if !IsSerializationFailure(err) {
		t.Fatalf("exhausted error should still report as serialization failure: %v", err)
	}

	// Success on a later attempt stops the loop and reports no error.
	calls = 0
	err = db.RunTx(TxOptions{}, func(tx *Tx) error {
		calls++
		if calls < 3 {
			return ErrSerialization
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("calls=%d err=%v, want 3/nil", calls, err)
	}

	// Non-retryable errors do not consume extra attempts.
	calls = 0
	sentinel := errors.New("boom")
	err = db.RunTx(TxOptions{}, func(tx *Tx) error {
		calls++
		return sentinel
	})
	if calls != 1 || !errors.Is(err, sentinel) {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}

// TestDBClose: Begin after Close fails with ErrClosed; Close is
// idempotent; transactions begun before Close can still finish.
func TestDBClose(t *testing.T) {
	db := Open(Config{})
	if err := db.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(TxOptions{Isolation: Serializable})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("kv", "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := db.Begin(TxOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin after Close: %v, want ErrClosed", err)
	}
	if err := db.RunTx(TxOptions{}, func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunTx after Close: %v, want ErrClosed", err)
	}
	// The in-flight transaction still completes.
	if err := tx.Commit(); err != nil {
		t.Fatalf("in-flight commit after Close: %v", err)
	}
}

// TestTxPutUpsert: Put inserts when missing and updates when present,
// at the Tx layer directly.
func TestTxPutUpsert(t *testing.T) {
	db := newSessionDB(t, "kv")
	err := db.RunTx(TxOptions{Isolation: Serializable}, func(tx *Tx) error {
		if err := tx.Put("kv", "k", []byte("1")); err != nil {
			return fmt.Errorf("put new: %w", err)
		}
		if err := tx.Put("kv", "k", []byte("2")); err != nil {
			return fmt.Errorf("put existing: %w", err)
		}
		v, err := tx.Get("kv", "k")
		if err != nil || string(v) != "2" {
			return fmt.Errorf("get: %q %v", v, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
