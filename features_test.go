package pgssi_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pgssi"
)

// Tests for the engine features of §4 (safe snapshots, deferrable
// transactions), §6 (memory bounds), and §7 (two-phase commit,
// replication, savepoints), plus general engine behaviour.

func kvDB(t *testing.T, cfg pgssi.Config) *pgssi.DB {
	t.Helper()
	db := pgssi.Open(cfg)
	mustExec(t, db.CreateTable("kv"))
	seed, err := db.Begin(pgssi.TxOptions{})
	mustExec(t, err)
	for i := 0; i < 10; i++ {
		mustExec(t, seed.Insert("kv", fmt.Sprintf("k%d", i), []byte("v")))
	}
	mustExec(t, seed.Commit())
	return db
}

func TestBasicCRUDAndVisibility(t *testing.T) {
	db := kvDB(t, pgssi.Config{})
	tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, err)
	if _, err := tx.Get("kv", "nope"); !errors.Is(err, pgssi.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	mustExec(t, tx.Insert("kv", "new", []byte("1")))
	v, err := tx.Get("kv", "new")
	mustExec(t, err)
	if string(v) != "1" {
		t.Fatalf("own write = %q", v)
	}
	mustExec(t, tx.Update("kv", "new", []byte("2")))
	mustExec(t, tx.Delete("kv", "new"))
	if _, err := tx.Get("kv", "new"); !errors.Is(err, pgssi.ErrNotFound) {
		t.Fatalf("own delete should hide row, got %v", err)
	}
	mustExec(t, tx.Commit())
	if err := tx.Commit(); !errors.Is(err, pgssi.ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestReadOnlyTxRejectsWrites(t *testing.T) {
	db := kvDB(t, pgssi.Config{})
	tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable, ReadOnly: true})
	mustExec(t, err)
	if err := tx.Update("kv", "k1", []byte("x")); !errors.Is(err, pgssi.ErrReadOnlyTx) {
		t.Fatalf("want ErrReadOnlyTx, got %v", err)
	}
	tx.Rollback()
}

func TestReadCommittedFollowsUpdates(t *testing.T) {
	db := kvDB(t, pgssi.Config{})
	rc, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.ReadCommitted})
	mustExec(t, err)
	v1, err := rc.Get("kv", "k1")
	mustExec(t, err)
	if string(v1) != "v" {
		t.Fatalf("v1 = %q", v1)
	}
	// Another transaction updates and commits; READ COMMITTED sees it
	// on the next statement (fresh snapshot per statement).
	other, err := db.Begin(pgssi.TxOptions{})
	mustExec(t, err)
	mustExec(t, other.Update("kv", "k1", []byte("w")))
	mustExec(t, other.Commit())
	v2, err := rc.Get("kv", "k1")
	mustExec(t, err)
	if string(v2) != "w" {
		t.Fatalf("READ COMMITTED should see the new value, got %q", v2)
	}
	// And its own update does not fail on the concurrent committed
	// update (it retries with a fresh snapshot).
	mustExec(t, rc.Update("kv", "k1", []byte("x")))
	mustExec(t, rc.Commit())
}

func TestRepeatableReadStableSnapshot(t *testing.T) {
	db := kvDB(t, pgssi.Config{})
	rr, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	mustExec(t, err)
	v1, _ := rr.Get("kv", "k1")
	other, _ := db.Begin(pgssi.TxOptions{})
	mustExec(t, other.Update("kv", "k1", []byte("w")))
	mustExec(t, other.Commit())
	v2, _ := rr.Get("kv", "k1")
	if string(v1) != string(v2) {
		t.Fatalf("repeatable read changed mid-transaction: %q vs %q", v1, v2)
	}
	rr.Rollback()
}

func TestSavepointRollbackRestoresWrites(t *testing.T) {
	db := kvDB(t, pgssi.Config{})
	tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, err)
	mustExec(t, tx.Update("kv", "k1", []byte("outer")))
	mustExec(t, tx.Savepoint("sp1"))
	mustExec(t, tx.Update("kv", "k1", []byte("inner")))
	mustExec(t, tx.Insert("kv", "subrow", []byte("inner")))
	v, _ := tx.Get("kv", "k1")
	if string(v) != "inner" {
		t.Fatalf("pre-rollback value = %q", v)
	}
	mustExec(t, tx.RollbackToSavepoint("sp1"))
	v, err = tx.Get("kv", "k1")
	mustExec(t, err)
	if string(v) != "outer" {
		t.Fatalf("after rollback-to-savepoint, value = %q, want outer", v)
	}
	if _, err := tx.Get("kv", "subrow"); !errors.Is(err, pgssi.ErrNotFound) {
		t.Fatalf("subxact insert should be undone, got %v", err)
	}
	// The savepoint still exists; write again and roll back again.
	mustExec(t, tx.Update("kv", "k1", []byte("inner2")))
	mustExec(t, tx.RollbackToSavepoint("sp1"))
	v, _ = tx.Get("kv", "k1")
	if string(v) != "outer" {
		t.Fatalf("second rollback, value = %q", v)
	}
	mustExec(t, tx.ReleaseSavepoint("sp1"))
	mustExec(t, tx.Commit())
	check, _ := db.Begin(pgssi.TxOptions{})
	v, _ = check.Get("kv", "k1")
	if string(v) != "outer" {
		t.Fatalf("committed value = %q, want outer", v)
	}
	check.Rollback()
}

func TestSavepointRollbackReleasesWriteLock(t *testing.T) {
	db := kvDB(t, pgssi.Config{})
	tx, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, tx.Savepoint("sp"))
	mustExec(t, tx.Update("kv", "k2", []byte("locked")))
	mustExec(t, tx.RollbackToSavepoint("sp"))
	// The tuple write lock must be gone: another transaction can
	// update k2 without blocking on tx.
	done := make(chan error, 1)
	go func() {
		o, err := db.Begin(pgssi.TxOptions{})
		if err != nil {
			done <- err
			return
		}
		if err := o.Update("kv", "k2", []byte("other")); err != nil {
			done <- err
			return
		}
		done <- o.Commit()
	}()
	select {
	case err := <-done:
		mustExec(t, err)
	case <-time.After(2 * time.Second):
		t.Fatal("writer blocked on a rolled-back subtransaction's lock")
	}
	tx.Rollback()
}

func TestSIREADLockSurvivesSavepointRollback(t *testing.T) {
	// §7.3: SIREAD locks acquired inside a rolled-back subtransaction
	// are retained, because the data read may have been externalized.
	db := kvDB(t, pgssi.Config{})
	tx, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, tx.Savepoint("sp"))
	if _, err := tx.Get("kv", "k3"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, tx.RollbackToSavepoint("sp"))
	// A concurrent writer of k3 must still pick up the conflict: build
	// a write-skew 2-cycle through k3/k4 and check someone aborts.
	other, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	if _, err := other.Get("kv", "k4"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, other.Update("kv", "k3", []byte("x"))) // other → ... tx read k3
	err1 := tx.Update("kv", "k4", []byte("y"))         // tx writes what other read
	var err2 error
	if err1 == nil {
		err1 = tx.Commit()
	} else {
		tx.Rollback()
	}
	err2 = other.Commit()
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("write skew through a rolled-back subtransaction's read must abort one txn: %v / %v", err1, err2)
	}
}

func TestTwoPhaseCommitLifecycle(t *testing.T) {
	db := kvDB(t, pgssi.Config{})
	tx, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, tx.Update("kv", "k1", []byte("2pc")))
	mustExec(t, tx.Prepare("gid-1"))
	// Prepared transactions accept no further work.
	if err := tx.Update("kv", "k2", []byte("x")); !errors.Is(err, pgssi.ErrPrepared) {
		t.Fatalf("want ErrPrepared, got %v", err)
	}
	// Effects invisible until COMMIT PREPARED.
	check, _ := db.Begin(pgssi.TxOptions{})
	v, _ := check.Get("kv", "k1")
	if string(v) != "v" {
		t.Fatalf("prepared effects leaked: %q", v)
	}
	check.Rollback()
	if got := db.PreparedTransactions(); len(got) != 1 || got[0] != "gid-1" {
		t.Fatalf("prepared list = %v", got)
	}
	mustExec(t, db.CommitPrepared("gid-1"))
	check2, _ := db.Begin(pgssi.TxOptions{})
	v, _ = check2.Get("kv", "k1")
	if string(v) != "2pc" {
		t.Fatalf("after COMMIT PREPARED, value = %q", v)
	}
	check2.Rollback()
}

func TestRollbackPrepared(t *testing.T) {
	db := kvDB(t, pgssi.Config{})
	tx, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, tx.Update("kv", "k1", []byte("doomed")))
	mustExec(t, tx.Prepare("gid-2"))
	mustExec(t, db.RollbackPrepared("gid-2"))
	check, _ := db.Begin(pgssi.TxOptions{})
	v, _ := check.Get("kv", "k1")
	if string(v) != "v" {
		t.Fatalf("rolled-back prepared txn leaked: %q", v)
	}
	check.Rollback()
}

func TestCrashRecoveryConservativeFlags(t *testing.T) {
	// §7.1: after recovery, a prepared transaction is assumed to have
	// conflicts both in and out; a reader of its writes is doomed.
	db := kvDB(t, pgssi.Config{})
	tx, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, tx.Update("kv", "k1", []byte("2pc")))
	mustExec(t, tx.Prepare("gid-3"))
	mustExec(t, db.SimulateCrashRecovery())
	// Reading the old version of k1 creates reader → prepared, which
	// with the conservative flags is a dangerous structure.
	r, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	_, err := r.Get("kv", "k1")
	if !pgssi.IsSerializationFailure(err) {
		t.Fatalf("reader of recovered-prepared data should be doomed, got %v", err)
	}
	r.Rollback()
	mustExec(t, db.CommitPrepared("gid-3"))
	check, _ := db.Begin(pgssi.TxOptions{})
	v, _ := check.Get("kv", "k1")
	if string(v) != "2pc" {
		t.Fatalf("value after recovery commit = %q", v)
	}
	check.Rollback()
}

func TestDeferrableWaitsForWriters(t *testing.T) {
	db := kvDB(t, pgssi.Config{})
	w, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, w.Update("kv", "k1", []byte("x")))

	started := make(chan struct{})
	got := make(chan *pgssi.Tx, 1)
	go func() {
		close(started)
		tx, err := db.Begin(pgssi.TxOptions{
			Isolation: pgssi.Serializable, ReadOnly: true, Deferrable: true,
		})
		if err != nil {
			t.Error(err)
		}
		got <- tx
	}()
	<-started
	select {
	case <-got:
		t.Fatal("deferrable transaction must wait for the concurrent writer")
	case <-time.After(100 * time.Millisecond):
	}
	mustExec(t, w.Commit())
	select {
	case tx := <-got:
		if !tx.OnSafeSnapshot() {
			t.Fatal("deferrable transaction must run on a safe snapshot")
		}
		// It sees the writer's commit (fresh snapshot after retry) or
		// a safe earlier one; either way it can read freely.
		if _, err := tx.Get("kv", "k1"); err != nil {
			t.Fatal(err)
		}
		mustExec(t, tx.Commit())
	case <-time.After(2 * time.Second):
		t.Fatal("deferrable transaction did not proceed after writers finished")
	}
}

func TestDeferrableRequiresReadOnlySerializable(t *testing.T) {
	db := kvDB(t, pgssi.Config{})
	if _, err := db.Begin(pgssi.TxOptions{Deferrable: true}); err == nil {
		t.Fatal("DEFERRABLE without READ ONLY must be rejected")
	}
}

// TestDeferrableWithoutSafeSnapshots: with the read-only optimizations
// off no snapshot is ever proven safe, so a DEFERRABLE Begin must fail
// at once, not wait for a safe snapshot that cannot come.
func TestDeferrableWithoutSafeSnapshots(t *testing.T) {
	db := kvDB(t, pgssi.Config{DisableReadOnlyOpt: true})
	defer db.Close()
	done := make(chan error, 1)
	go func() {
		tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable, ReadOnly: true, Deferrable: true})
		if err == nil {
			tx.Rollback()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, pgssi.ErrNoSafeSnapshots) {
			t.Fatalf("DEFERRABLE Begin with DisableReadOnlyOpt: %v, want ErrNoSafeSnapshots", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DEFERRABLE Begin with DisableReadOnlyOpt did not return")
	}
}

func TestMemoryBoundUnderLongRunningReader(t *testing.T) {
	// §6: a long-running transaction must not let SSI state grow
	// without bound; the lock table stays within its budget and old
	// committed transactions get summarized.
	cfg := pgssi.Config{MaxPredicateLocks: 500, MaxCommittedXacts: 16}
	db := kvDB(t, cfg)
	pin, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	if _, err := pin.Get("kv", "k1"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
					if _, err := tx.Get("kv", fmt.Sprintf("k%d", i%10)); err != nil {
						return err
					}
					return tx.Insert("kv", key, []byte("x"))
				})
				if err != nil && !pgssi.IsSerializationFailure(err) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.SSIStats()
	if st.Summarized == 0 {
		t.Fatal("expected summarization under a committed-transaction budget of 16")
	}
	if int(st.LocksCurrent) > cfg.MaxPredicateLocks+16 {
		t.Fatalf("lock table %d exceeds budget %d", st.LocksCurrent, cfg.MaxPredicateLocks)
	}
	pin.Rollback()
}

func TestReplicaSerializableReadsOnlyOnSafeSnapshots(t *testing.T) {
	db, walLog := attachedDB(t)
	rep := pgssi.NewReplica(walLog)
	defer rep.Close()

	for i := 0; i < 3; i++ {
		err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
			return tx.Insert("kv", fmt.Sprintf("k%d", i), []byte("v"))
		})
		mustExec(t, err)
	}
	rep.WaitApplied(logLen(walLog))

	tx, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true, WaitSafe: true})
	mustExec(t, err)
	n := 0
	mustExec(t, tx.Scan("kv", "", "", func(string, []byte) bool { n++; return true }))
	if n != 3 {
		t.Fatalf("replica saw %d rows, want 3", n)
	}
	mustExec(t, tx.Commit())
}

func TestWALEmitsSafeSnapshotMarkers(t *testing.T) {
	db, walLog := attachedDB(t)
	err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
		return tx.Insert("kv", "a", []byte("1"))
	})
	mustExec(t, err)
	recs := logRecords(t, walLog)
	if len(recs) != 3 || recs[0].CreateTable != "kv" {
		t.Fatalf("expected schema record, commit, marker; got %+v", recs)
	}
	recs = recs[1:]
	if recs[0].SafeSnapshot || !recs[1].SafeSnapshot {
		t.Fatalf("expected marker after the commit record: %+v", recs)
	}
}

func TestVacuumShrinksVersionChains(t *testing.T) {
	db := kvDB(t, pgssi.Config{})
	// A reader open across the updates holds the horizon below all of
	// them, so prune-on-write (driven by background reclaim passes)
	// cannot trim the chain before Vacuum does.
	reader, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	mustExec(t, err)
	for i := 0; i < 20; i++ {
		err := db.RunTx(pgssi.TxOptions{}, func(tx *pgssi.Tx) error {
			return tx.Update("kv", "k1", []byte(fmt.Sprintf("%d", i)))
		})
		mustExec(t, err)
	}
	mustExec(t, reader.Rollback())
	if removed := db.Vacuum(); removed < 19 {
		t.Fatalf("vacuum removed %d versions, want >= 19", removed)
	}
	check, _ := db.Begin(pgssi.TxOptions{})
	v, _ := check.Get("kv", "k1")
	if string(v) != "19" {
		t.Fatalf("value after vacuum = %q", v)
	}
	check.Rollback()
}

// TestVacuumKeepsWhatAnOpenSnapshotReads: Vacuum cuts version chains at
// the oldest snapshot an open transaction holds, not at a snapshot of
// its own, so a reader that began before the updates still finds the
// version its snapshot sees.
func TestVacuumKeepsWhatAnOpenSnapshotReads(t *testing.T) {
	for _, level := range []pgssi.IsolationLevel{pgssi.RepeatableRead, pgssi.Serializable} {
		t.Run(level.String(), func(t *testing.T) {
			db := kvDB(t, pgssi.Config{})
			reader, err := db.Begin(pgssi.TxOptions{Isolation: level})
			mustExec(t, err)
			for i := 0; i < 5; i++ {
				err := db.RunTx(pgssi.TxOptions{}, func(tx *pgssi.Tx) error {
					return tx.Update("kv", "k1", []byte(fmt.Sprintf("%d", i)))
				})
				mustExec(t, err)
			}
			removed := db.Vacuum()
			v, err := reader.Get("kv", "k1")
			if err != nil || string(v) != "v" {
				t.Fatalf("reader after Vacuum removed %d versions: got %q, %v; want \"v\"", removed, v, err)
			}
			mustExec(t, reader.Rollback())
		})
	}
}

func TestRunTxRetriesUntilCommit(t *testing.T) {
	db := kvDB(t, pgssi.Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
					v, err := tx.Get("kv", "k0")
					if err != nil {
						return err
					}
					return tx.Update("kv", "k0", append([]byte{}, v...))
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	mustExec(t, db.CreateTable("people"))
	mustExec(t, db.CreateIndex("people", "by_city", func(_ string, v []byte) (string, bool) {
		return string(v), true // value is the city
	}))
	err := db.RunTx(pgssi.TxOptions{}, func(tx *pgssi.Tx) error {
		mustExec(t, tx.Insert("people", "ann", []byte("boston")))
		mustExec(t, tx.Insert("people", "bob", []byte("madison")))
		mustExec(t, tx.Insert("people", "cam", []byte("boston")))
		return nil
	})
	mustExec(t, err)
	tx, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	var got []string
	mustExec(t, tx.ScanIndex("people", "by_city", "boston", "boston\xff", func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	}))
	if len(got) != 2 {
		t.Fatalf("index scan found %v", got)
	}
	// Update moves bob to boston; a stale madison entry must not
	// surface him, and a boston scan must find him.
	mustExec(t, tx.Update("people", "bob", []byte("boston")))
	var madison []string
	mustExec(t, tx.ScanIndex("people", "by_city", "madison", "madison\xff", func(k string, _ []byte) bool {
		madison = append(madison, k)
		return true
	}))
	if len(madison) != 0 {
		t.Fatalf("stale index entry surfaced: %v", madison)
	}
	got = got[:0]
	mustExec(t, tx.ScanIndex("people", "by_city", "boston", "boston\xff", func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	}))
	if len(got) != 3 {
		t.Fatalf("after update, boston scan found %v", got)
	}
	mustExec(t, tx.Commit())
}

func TestPhantomPreventionOnRangeScan(t *testing.T) {
	// A serializable scan of a range conflicts with a concurrent
	// insert into that range (index-gap SIREAD locking, §5.2.1).
	db := kvDB(t, pgssi.Config{})
	scanner, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	n := 0
	mustExec(t, scanner.Scan("kv", "k", "l", func(string, []byte) bool { n++; return true }))
	// Make the scanner read/write so the cycle can close.
	mustExec(t, scanner.Insert("kv", "scanner-marker", []byte("x")))

	inserter, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	// The inserter reads something the scanner wrote region-wise: scan
	// the region containing scanner's marker.
	m := 0
	mustExec(t, inserter.Scan("kv", "scanner", "scannes", func(string, []byte) bool { m++; return true }))
	insErr := inserter.Insert("kv", "k5x", []byte("phantom")) // lands in scanner's range
	var commitScanner, commitInserter error
	if insErr == nil {
		commitInserter = inserter.Commit()
	} else {
		inserter.Rollback()
		commitInserter = insErr
	}
	commitScanner = scanner.Commit()
	if (commitScanner == nil) == (commitInserter == nil) {
		t.Fatalf("phantom write skew must abort exactly one txn: scanner=%v inserter=%v",
			commitScanner, commitInserter)
	}
}
