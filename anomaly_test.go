package pgssi_test

import (
	"errors"
	"strings"
	"testing"

	"pgssi"
)

// Tests in this file reproduce the paper's §2.1 anomaly examples and
// verify that snapshot isolation admits them while the SSI-based
// Serializable level rejects them.

func newDoctorsDB(t *testing.T) *pgssi.DB {
	t.Helper()
	db := pgssi.Open(pgssi.Config{})
	if err := db.CreateTable("doctors"); err != nil {
		t.Fatal(err)
	}
	seed, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, seed.Insert("doctors", "alice", []byte("oncall")))
	mustExec(t, seed.Insert("doctors", "bob", []byte("oncall")))
	mustExec(t, seed.Commit())
	return db
}

func mustExec(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// countOnCall counts doctors currently on call in tx.
func countOnCall(t *testing.T, tx *pgssi.Tx) int {
	t.Helper()
	n := 0
	err := tx.Scan("doctors", "", "", func(_ string, v []byte) bool {
		if string(v) == "oncall" {
			n++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// runWriteSkew executes the Figure 1 interleaving at the given isolation
// level and returns the two commit errors.
func runWriteSkew(t *testing.T, db *pgssi.DB, level pgssi.IsolationLevel) (err1, err2 error) {
	t.Helper()
	t1, err := db.Begin(pgssi.TxOptions{Isolation: level})
	mustExec(t, err)
	t2, err := db.Begin(pgssi.TxOptions{Isolation: level})
	mustExec(t, err)

	if countOnCall(t, t1) >= 2 {
		mustExec(t, t1.Update("doctors", "alice", []byte("off")))
	}
	if countOnCall(t, t2) >= 2 {
		if err := t2.Update("doctors", "bob", []byte("off")); err != nil {
			t2.Rollback()
			err1 = t1.Commit()
			return err1, err
		}
	}
	err1 = t1.Commit()
	err2 = t2.Commit()
	return err1, err2
}

func TestWriteSkewAllowedUnderSnapshotIsolation(t *testing.T) {
	db := newDoctorsDB(t)
	err1, err2 := runWriteSkew(t, db, pgssi.RepeatableRead)
	if err1 != nil || err2 != nil {
		t.Fatalf("snapshot isolation should admit write skew: %v / %v", err1, err2)
	}
	// The invariant "at least one doctor on call" is now violated —
	// exactly the silent corruption §2.1.1 describes.
	check, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	if n := countOnCall(t, check); n != 0 {
		t.Fatalf("expected the anomaly to leave 0 doctors on call, got %d", n)
	}
	check.Rollback()
}

func TestWriteSkewPreventedUnderSerializable(t *testing.T) {
	db := newDoctorsDB(t)
	err1, err2 := runWriteSkew(t, db, pgssi.Serializable)
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("exactly one transaction should fail: err1=%v err2=%v", err1, err2)
	}
	failed := err1
	if failed == nil {
		failed = err2
	}
	if !pgssi.IsSerializationFailure(failed) {
		t.Fatalf("failure should be a serialization failure, got %v", failed)
	}
	check, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	if n := countOnCall(t, check); n != 1 {
		t.Fatalf("invariant broken: %d doctors on call, want 1", n)
	}
	check.Rollback()
}

func TestWriteSkewSafeRetry(t *testing.T) {
	db := newDoctorsDB(t)
	err1, err2 := runWriteSkew(t, db, pgssi.Serializable)
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("exactly one transaction should fail: err1=%v err2=%v", err1, err2)
	}
	// Retrying the failed transaction immediately must succeed (§5.4):
	// it is no longer concurrent with the committed one.
	victim := "bob"
	if err1 != nil {
		victim = "alice"
	}
	retry, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, err)
	if countOnCall(t, retry) >= 2 {
		mustExec(t, retry.Update("doctors", victim, []byte("off")))
	}
	if err := retry.Commit(); err != nil {
		t.Fatalf("immediate retry failed again: %v", err)
	}
}

// batchDB sets up the §2.1.2 receipts schema: a control row holding the
// current batch number and a receipts table keyed batch|id.
func batchDB(t *testing.T) *pgssi.DB {
	t.Helper()
	db := pgssi.Open(pgssi.Config{})
	mustExec(t, db.CreateTable("control"))
	mustExec(t, db.CreateTable("receipts"))
	seed, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	mustExec(t, err)
	mustExec(t, seed.Insert("control", "batch", []byte("1")))
	mustExec(t, seed.Commit())
	return db
}

// runBatchAnomaly executes the Figure 2 interleaving:
//
//	T2 (NEW-RECEIPT) reads batch=1;
//	T3 (CLOSE-BATCH) increments to 2, commits;
//	T1 (REPORT) reads batch=2, scans batch-1 receipts, commits;
//	T2 inserts its batch-1 receipt, commits.
//
// It returns the errors of T1's commit, T2's insert+commit, and the
// number of batch-1 receipts T1 saw.
func runBatchAnomaly(t *testing.T, db *pgssi.DB, level pgssi.IsolationLevel, reportReadsControl bool) (reportErr, receiptErr error, seen int) {
	t.Helper()
	t2, err := db.Begin(pgssi.TxOptions{Isolation: level})
	mustExec(t, err)
	if _, err := t2.Get("control", "batch"); err != nil {
		t.Fatal(err)
	}

	t3, err := db.Begin(pgssi.TxOptions{Isolation: level})
	mustExec(t, err)
	if err := t3.Update("control", "batch", []byte("2")); err != nil {
		t.Fatalf("close-batch update: %v", err)
	}
	mustExec(t, t3.Commit())

	t1, err := db.Begin(pgssi.TxOptions{Isolation: level, ReadOnly: true})
	mustExec(t, err)
	if reportReadsControl {
		if _, err := t1.Get("control", "batch"); err != nil {
			t.Fatal(err)
		}
	}
	scanErr := t1.Scan("receipts", "1|", "1|\xff", func(string, []byte) bool {
		seen++
		return true
	})
	if scanErr != nil {
		reportErr = scanErr
		t1.Rollback()
	} else {
		reportErr = t1.Commit()
	}

	receiptErr = t2.Insert("receipts", "1|r1", []byte("42"))
	if receiptErr == nil {
		receiptErr = t2.Commit()
	} else {
		t2.Rollback()
	}
	return reportErr, receiptErr, seen
}

func TestBatchAnomalyAllowedUnderSnapshotIsolation(t *testing.T) {
	db := batchDB(t)
	reportErr, receiptErr, seen := runBatchAnomaly(t, db, pgssi.RepeatableRead, true)
	if reportErr != nil || receiptErr != nil {
		t.Fatalf("SI should admit the batch anomaly: %v / %v", reportErr, receiptErr)
	}
	if seen != 0 {
		t.Fatalf("report should have seen 0 receipts, saw %d", seen)
	}
	// The receipt exists now even though the batch-1 report ran after
	// the batch closed: the invariant of §2.1.2 is violated.
	check, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	if _, err := check.Get("receipts", "1|r1"); err != nil {
		t.Fatalf("receipt should exist: %v", err)
	}
	check.Rollback()
}

func TestBatchAnomalyPreventedUnderSerializable(t *testing.T) {
	db := batchDB(t)
	reportErr, receiptErr, _ := runBatchAnomaly(t, db, pgssi.Serializable, true)
	if reportErr == nil && receiptErr == nil {
		t.Fatal("SSI must abort one of the transactions in the Figure 2 interleaving")
	}
	failed := reportErr
	if failed == nil {
		failed = receiptErr
	}
	if !pgssi.IsSerializationFailure(failed) {
		t.Fatalf("expected serialization failure, got %v", failed)
	}
}

func TestBatchWithoutReportIsSerializableUnderSSI(t *testing.T) {
	// §3.3: with the read-only T1 removed, the execution has a single
	// rw-antidependency (T2 → T3) and is serializable as ⟨T2, T3⟩; SSI
	// must allow it even though S2PL or OCC would not.
	db := batchDB(t)
	t2, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, err)
	if _, err := t2.Get("control", "batch"); err != nil {
		t.Fatal(err)
	}
	t3, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, err)
	mustExec(t, t3.Update("control", "batch", []byte("2")))
	mustExec(t, t3.Commit())
	mustExec(t, t2.Insert("receipts", "1|r1", []byte("42")))
	if err := t2.Commit(); err != nil {
		t.Fatalf("single antidependency must not abort: %v", err)
	}
}

func TestReadOnlyOptimizationAvoidsFalsePositive(t *testing.T) {
	// §3.3.1 / §4.1: if the REPORT takes its snapshot *before*
	// CLOSE-BATCH commits and reads only the receipts table, the
	// execution is serializable as ⟨T1, T2, T3⟩. The commit-ordering
	// check alone would still spuriously abort; the read-only snapshot
	// ordering rule (Theorem 3) clears it because T3 commits after
	// T1's snapshot.
	//
	// With no read/write transaction running at its Begin, T1 is on a
	// safe snapshot (§4.2) and takes no SIREAD locks, so nothing is
	// flagged at all. In the writerOpen leg an unrelated read/write
	// transaction spans T1's Begin, T1 must track its reads, and the
	// structure forms: only Theorem 3 clears it.
	for _, leg := range []struct{ disable, writerOpen bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		db := pgssi.Open(pgssi.Config{DisableReadOnlyOpt: leg.disable})
		mustExec(t, db.CreateTable("control"))
		mustExec(t, db.CreateTable("receipts"))
		seed, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
		mustExec(t, seed.Insert("control", "batch", []byte("1")))
		mustExec(t, seed.Commit())

		var writer *pgssi.Tx
		if leg.writerOpen {
			var err error
			writer, err = db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
			mustExec(t, err)
		}

		// T1 (REPORT, declared read-only) takes its snapshot first
		// and reads only receipts.
		t1, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable, ReadOnly: true})
		mustExec(t, err)
		seen := 0
		scanErr := t1.Scan("receipts", "1|", "1|\xff", func(string, []byte) bool { seen++; return true })

		// T2 reads the control row and inserts a receipt.
		t2, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
		mustExec(t, err)
		_, gerr := t2.Get("control", "batch")
		mustExec(t, gerr)
		insErr := t2.Insert("receipts", "1|r1", []byte("42"))

		// T3 closes the batch and commits first.
		t3, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
		mustExec(t, err)
		upErr := t3.Update("control", "batch", []byte("2"))
		commit3 := t3.Commit()

		commit2 := t2.Commit()
		var commit1 error
		if scanErr == nil {
			commit1 = t1.Commit()
		} else {
			t1.Rollback()
		}

		failures := 0
		for _, e := range []error{scanErr, insErr, upErr, commit1, commit2, commit3} {
			if e != nil && pgssi.IsSerializationFailure(e) {
				failures++
			} else if e != nil {
				t.Fatalf("unexpected error: %v", e)
			}
		}
		if writer != nil {
			mustExec(t, writer.Commit())
		}
		if !leg.disable && failures != 0 {
			t.Fatalf("%+v: read-only optimization should avoid any abort, got %d failures", leg, failures)
		}
		if leg.disable && failures == 0 {
			t.Fatalf("%+v: without the read-only optimization this dangerous structure should abort", leg)
		}
	}
}

// TestWriteSkewPreventedUnderS2PL completes the §2.1.1 example's
// coverage across all three regimes (SI admits it, SSI detects it, S2PL
// blocks it): under strict two-phase locking the two on-call scans hold
// shared tuple locks, each update then needs an exclusive lock the other
// transaction's shared lock denies, and the resulting deadlock aborts
// exactly one transaction. The interleaving of Figure 1 cannot commit on
// both sides.
func TestWriteSkewPreventedUnderS2PL(t *testing.T) {
	db := newDoctorsDB(t)
	t1, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.SerializableS2PL})
	mustExec(t, err)
	t2, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.SerializableS2PL})
	mustExec(t, err)

	n1 := countOnCall(t, t1)
	n2 := countOnCall(t, t2)

	// T1's update blocks on T2's shared lock; run it in a goroutine so
	// T2's update can form (and break) the deadlock.
	err1Ch := make(chan error, 1)
	go func() {
		err1Ch <- func() error {
			if n1 >= 2 {
				if err := t1.Update("doctors", "alice", []byte("off")); err != nil {
					t1.Rollback()
					return err
				}
			}
			return t1.Commit()
		}()
	}()

	var err2 error
	if n2 >= 2 {
		err2 = t2.Update("doctors", "bob", []byte("off"))
	}
	if err2 == nil {
		err2 = t2.Commit()
	} else {
		t2.Rollback()
	}
	err1 := <-err1Ch

	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("deadlock detection should abort exactly one transaction: err1=%v err2=%v", err1, err2)
	}
	failed := err1
	if failed == nil {
		failed = err2
	}
	if !pgssi.IsSerializationFailure(failed) {
		t.Fatalf("deadlock abort should be a retryable serialization failure, got %v", failed)
	}
	check, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.SerializableS2PL})
	if n := countOnCall(t, check); n != 1 {
		t.Fatalf("invariant broken under S2PL: %d doctors on call, want 1", n)
	}
	check.Rollback()
}

// TestBatchAnomalyPreventedUnderS2PL completes the §2.1.2 example's
// coverage: under S2PL the Figure 2 interleaving cannot even be
// scheduled. CLOSE-BATCH's update of the control row blocks behind
// NEW-RECEIPT's shared lock until the receipt transaction commits, which
// forces the serial order ⟨NEW-RECEIPT, CLOSE-BATCH, REPORT⟩ — so the
// batch-1 report always includes the batch-1 receipt.
func TestBatchAnomalyPreventedUnderS2PL(t *testing.T) {
	db := batchDB(t)

	// T2 (NEW-RECEIPT) reads the current batch, taking a shared lock.
	t2, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.SerializableS2PL})
	mustExec(t, err)
	if _, err := t2.Get("control", "batch"); err != nil {
		t.Fatal(err)
	}

	// T3 (CLOSE-BATCH) tries to advance the batch: blocks on T2.
	t3done := make(chan error, 1)
	go func() {
		t3, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.SerializableS2PL})
		if err != nil {
			t3done <- err
			return
		}
		if err := t3.Update("control", "batch", []byte("2")); err != nil {
			t3.Rollback()
			t3done <- err
			return
		}
		t3done <- t3.Commit()
	}()

	// Lock semantics guarantee T3 cannot have finished; this check is
	// best-effort (it can only pass spuriously, never fail spuriously,
	// if the goroutine has not been scheduled yet).
	select {
	case err := <-t3done:
		t.Fatalf("CLOSE-BATCH finished (%v) despite NEW-RECEIPT's shared lock", err)
	default:
	}

	mustExec(t, t2.Insert("receipts", "1|r1", []byte("42")))
	mustExec(t, t2.Commit())
	mustExec(t, <-t3done)

	// T1 (REPORT) now reads batch 2 and must see the batch-1 receipt.
	t1, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.SerializableS2PL})
	mustExec(t, err)
	b, err := t1.Get("control", "batch")
	mustExec(t, err)
	if string(b) != "2" {
		t.Fatalf("report read batch %q, want 2", b)
	}
	seen := 0
	mustExec(t, t1.Scan("receipts", "1|", "1|\xff", func(string, []byte) bool {
		seen++
		return true
	}))
	mustExec(t, t1.Commit())
	if seen != 1 {
		t.Fatalf("report saw %d batch-1 receipts, want 1 — the §2.1.2 anomaly leaked through S2PL", seen)
	}
}

func TestSerializationErrorWording(t *testing.T) {
	db := newDoctorsDB(t)
	_, err2 := runWriteSkew(t, db, pgssi.Serializable)
	if err2 == nil {
		return
	}
	if !errors.Is(err2, pgssi.ErrSerialization) {
		t.Fatalf("error should wrap ErrSerialization: %v", err2)
	}
	if !strings.Contains(err2.Error(), "serialize") {
		t.Fatalf("error text should mention serialization: %v", err2)
	}
}
