package pgssi_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/trace"
	"pgssi/internal/wal"
)

// TestWALCommitRecordOrdering hammers concurrent committers and aborters
// and then audits the log against the ordering invariants the replica's
// resume contract depends on (Stream.SubscribeFrom filters by sequence,
// so any out-of-order append becomes a silently dropped commit after a
// reconnect) and that recovery's prefix rule depends on (docs/wal.md
// "Ordering"):
//
//   - commit records appear in strictly increasing sequence order;
//   - a safe-snapshot marker is never appended below a commit record
//     already in the log, and marker sequences never regress;
//   - a commit record appended after a marker carries a higher sequence
//     (the marker really did cover everything before it).
//
// It audits both logs: an attached in-memory log as a subscriber reads
// it, and the durable log as recovery reads it back from disk.
func TestWALCommitRecordOrdering(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		walLog := wal.NewLog()
		db := pgssi.Open(pgssi.Config{})
		defer db.Close()
		mustExec(t, db.AttachWAL(walLog))
		mustExec(t, db.CreateTable("kv"))
		hammerCommitsAndAborts(db)
		checkWALOrder(t, logRecords(t, walLog))
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		db, err := pgssi.OpenDir(dir, pgssi.Config{})
		mustExec(t, err)
		mustExec(t, db.CreateTable("kv"))
		hammerCommitsAndAborts(db)
		mustExec(t, db.Close())

		wl, err := wal.OpenDir(dir, wal.Config{})
		mustExec(t, err)
		defer wl.Close()
		var recs []wal.Record
		mustExec(t, wl.Replay(func(rec wal.Record) error {
			recs = append(recs, rec)
			return nil
		}))
		if len(recs) == 0 {
			t.Fatal("durable log read back empty")
		}
		checkWALOrder(t, recs)
	})
}

// hammerCommitsAndAborts runs concurrent writers of table kv alongside
// aborters that race them into the abort-path marker emission.
func hammerCommitsAndAborts(db *pgssi.DB) {
	const writers, aborters, iters = 8, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
					return tx.Put("kv", fmt.Sprintf("w%d", w), []byte{byte(i)})
				})
			}
		}(w)
	}
	for a := 0; a < aborters; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
				if err != nil {
					return
				}
				tx.Put("kv", fmt.Sprintf("doomed%d", a), []byte("x"))
				tx.Rollback()
			}
		}(a)
	}
	wg.Wait()
}

// logRecords reads l back through a subscription: every record it was
// given (Stats().Appends of them), in log order.
func logRecords(t *testing.T, l *wal.DurableLog) []wal.Record {
	t.Helper()
	n := logLen(l)
	ch, cancel, err := l.SubscribeFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	recs := make([]wal.Record, 0, n)
	timeout := time.After(10 * time.Second)
	for len(recs) < n {
		select {
		case rec, ok := <-ch:
			if !ok {
				t.Fatalf("log stream closed after %d of %d records", len(recs), n)
			}
			recs = append(recs, rec)
		case <-timeout:
			t.Fatalf("log stream delivered %d of %d records", len(recs), n)
		}
	}
	return recs
}

// logLen is the number of records appended to l.
func logLen(l *wal.DurableLog) int { return int(l.Stats().Appends) }

// checkWALOrder asserts the three ordering invariants over recs, in log
// order. Schema records precede the workload and order nothing.
func checkWALOrder(t *testing.T, recs []wal.Record) {
	t.Helper()
	var lastCommit, lastMarker uint64
	for i, rec := range recs {
		seq := uint64(rec.Seq)
		if rec.CreateTable != "" {
			continue
		}
		if rec.SafeSnapshot {
			if seq < lastCommit {
				t.Fatalf("record %d: marker at seq %d below commit record seq %d already in the log", i, seq, lastCommit)
			}
			if seq < lastMarker {
				t.Fatalf("record %d: marker sequence regressed %d -> %d", i, lastMarker, seq)
			}
			lastMarker = seq
		} else {
			if seq <= lastCommit {
				t.Fatalf("record %d: commit seq %d appended after commit seq %d", i, seq, lastCommit)
			}
			if seq <= lastMarker {
				t.Fatalf("record %d: commit seq %d appended after a marker at seq %d claimed to cover it", i, seq, lastMarker)
			}
			lastCommit = seq
		}
	}
}

// TestReplicaRejectsStaleMarker pins the replica-side defense for safe
// snapshots: a marker whose sequence is below an applied commit (or a
// previous safe point) must not declare the current position safe and
// must not regress SafeSeq — only a marker at or past everything applied
// certifies a safe snapshot.
func TestReplicaRejectsStaleMarker(t *testing.T) {
	log := wal.NewLog()
	rep := pgssi.NewReplica(log)
	defer rep.Close()

	log.Append(wal.Record{CreateTable: "kv"})
	log.Append(wal.Record{Seq: 1, Xid: 1, Ops: []wal.Op{{Table: "kv", Key: "a", Value: []byte("1")}}})
	log.Append(wal.Record{Seq: 2, Xid: 2, Ops: []wal.Op{{Table: "kv", Key: "b", Value: []byte("2")}}})
	log.Append(wal.Record{Seq: 1, SafeSnapshot: true}) // stale: below commit 2
	mustExec(t, rep.WaitApplied(4))
	if rep.SafeSeq() != 0 {
		t.Fatalf("stale marker set SafeSeq=%d, want 0", rep.SafeSeq())
	}
	if _, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true}); !errors.Is(err, pgssi.ErrNotSafePoint) {
		t.Fatalf("serializable begin at a stale marker = %v, want ErrNotSafePoint", err)
	}

	// A marker at the applied position is honored.
	log.Append(wal.Record{Seq: 2, SafeSnapshot: true})
	mustExec(t, rep.WaitApplied(5))
	if rep.SafeSeq() != 2 {
		t.Fatalf("SafeSeq=%d after current marker, want 2", rep.SafeSeq())
	}
	tx, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true})
	mustExec(t, err)
	if !tx.OnSafeSnapshot() {
		t.Fatal("serializable replica read not on a safe snapshot")
	}
	mustExec(t, tx.Rollback())

	// A later stale marker must not regress the safe position.
	log.Append(wal.Record{Seq: 1, SafeSnapshot: true})
	mustExec(t, rep.WaitApplied(6))
	if rep.SafeSeq() != 2 {
		t.Fatalf("stale marker regressed SafeSeq to %d, want 2", rep.SafeSeq())
	}
}

// TestReplicaMarkerDoesNotAdvanceResume pins the resume-position rule:
// markers (and schema records) may legitimately carry sequences ahead of
// the last commit record — read-only commits consume sequence numbers
// without emitting records — so only commit records may advance
// AppliedSeq. If the marker below advanced it to 3, a reconnect would
// call SubscribeFrom(3) and permanently filter out commits 2 and 3
// should they exist. The marker is still a valid safe point.
func TestReplicaMarkerDoesNotAdvanceResume(t *testing.T) {
	log := wal.NewLog()
	rep := pgssi.NewReplica(log)
	defer rep.Close()

	log.Append(wal.Record{CreateTable: "kv"})
	log.Append(wal.Record{Seq: 1, Xid: 1, Ops: []wal.Op{{Table: "kv", Key: "a", Value: []byte("1")}}})
	log.Append(wal.Record{Seq: 3, SafeSnapshot: true})
	mustExec(t, rep.WaitApplied(3))
	if rep.AppliedSeq() != 1 {
		t.Fatalf("AppliedSeq=%d, want 1: only commit records may advance the resume position", rep.AppliedSeq())
	}
	if rep.SafeSeq() != 3 {
		t.Fatalf("SafeSeq=%d, want 3", rep.SafeSeq())
	}
	tx, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true})
	mustExec(t, err)
	defer tx.Rollback()
	if !tx.OnSafeSnapshot() {
		t.Fatal("marker ahead of the last commit record should still be a safe snapshot")
	}
}

// TestWALEnqueueFollowsCSN is the deterministic test of publishCommit's
// rule that a commit's record is enqueued inside the DB.walMu section
// that published its CSN. Committer A is parked at the WALEnqueue point,
// after its CSN is published and before its enqueue, while committer B
// commits: B cannot publish until A leaves the section, so the log must
// hold A's record before B's, in CSN order.
func TestWALEnqueueFollowsCSN(t *testing.T) {
	p := newPauser()
	db := pgssi.OpenWithHooks(pgssi.Config{}, pgssi.Hooks{Trace: p.trace})
	defer db.Close()
	walLog := wal.NewLog()
	mustExec(t, db.AttachWAL(walLog))
	mustExec(t, db.CreateTable("kv"))
	a, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.ReadCommitted})
	mustExec(t, err)
	b, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.ReadCommitted})
	mustExec(t, err)
	mustExec(t, a.Put("kv", "a", []byte("1")))
	mustExec(t, b.Put("kv", "b", []byte("1")))

	p.arm(trace.WALEnqueue, ofXID(a.ID()))
	aDone, bDone := make(chan error, 1), make(chan error, 1)
	go func() { aDone <- a.Commit() }()
	<-p.inWindow
	go func() { bDone <- b.Commit() }()
	select {
	case err := <-bDone:
		t.Fatalf("B committed (err %v) while A was parked between its CSN and its enqueue", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(p.release)
	mustExec(t, <-aDone)
	mustExec(t, <-bDone)
	mustExec(t, walLog.SyncBarrier())

	var order []string
	for _, rec := range logRecords(t, walLog) {
		for _, op := range rec.Ops {
			order = append(order, op.Key)
		}
	}
	if fmt.Sprint(order) != "[a b]" {
		t.Fatalf("log holds the commits' writes in the order %v, want [a b]", order)
	}
}
