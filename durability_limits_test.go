package pgssi_test

import (
	"errors"
	"strings"
	"testing"

	"pgssi"
	"pgssi/internal/wal"
)

// Tests for the engine-level halves of the WAL write-side contracts: a
// commit the log can never accept (oversize record) must fail BEFORE it
// is published or acknowledged, and a CreateTable whose durable append
// fails must not leave a memory-only table behind.

func TestCommitOversizeRecordFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	db, err := pgssi.OpenDir(dir, pgssi.Config{FsyncMode: pgssi.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("t", "big", make([]byte, wal.MaxRecordSize)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, wal.ErrRecordTooLarge) {
		t.Fatalf("oversize commit = %v, want ErrRecordTooLarge", err)
	}
	// The failed commit was never published: the key is invisible, and
	// the log is not poisoned — ordinary commits still work.
	tx2, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Get("t", "big"); !errors.Is(err, pgssi.ErrNotFound) {
		t.Fatalf("aborted oversize commit visible: Get err = %v", err)
	}
	if err := tx2.Put("t", "small", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("commit after oversize rejection: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := pgssi.OpenDir(dir, pgssi.Config{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	rtx, err := re.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rtx.Rollback()
	if _, err := rtx.Get("t", "big"); !errors.Is(err, pgssi.ErrNotFound) {
		t.Fatalf("oversize key resurrected by recovery: %v", err)
	}
	if v, err := rtx.Get("t", "small"); err != nil || string(v) != "v" {
		t.Fatalf("acknowledged commit lost: %q, %v", v, err)
	}
}

func TestPrepareOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := pgssi.OpenDir(dir, pgssi.Config{FsyncMode: pgssi.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("t", "big", make([]byte, wal.MaxRecordSize)); err != nil {
		t.Fatal(err)
	}
	// The yes-vote must be refused up front: CommitPrepared is promised
	// to succeed, and this record can never be logged.
	if err := tx.Prepare("g1"); !errors.Is(err, wal.ErrRecordTooLarge) {
		t.Fatalf("oversize Prepare = %v, want ErrRecordTooLarge", err)
	}
	if gids := db.PreparedTransactions(); len(gids) != 0 {
		t.Fatalf("rejected transaction left prepared: %v", gids)
	}
	if err := tx.Rollback(); !errors.Is(err, pgssi.ErrTxDone) {
		t.Fatalf("rejected transaction not rolled back: %v", err)
	}
}

func TestCreateTableUndoneOnWALFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS()
	db, err := pgssi.OpenDirWithHooks(dir, pgssi.Config{FsyncMode: pgssi.FsyncAlways}, pgssi.Hooks{WALFS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("a"); err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncs(errors.New("disk on fire"))
	err = db.CreateTable("b")
	if err == nil {
		t.Fatal("CreateTable acknowledged despite fsync failure")
	}
	if strings.Contains(err.Error(), "already exists") {
		t.Fatalf("wrong error: %v", err)
	}
	// The poisoned log refuses new transactions outright — nothing it
	// admits could ever durably commit.
	if _, terr := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead}); !errors.Is(terr, pgssi.ErrWALPoisoned) {
		t.Fatalf("Begin on poisoned WAL = %v, want ErrWALPoisoned", terr)
	}
	if !db.WALStats().Poisoned {
		t.Fatal("WALStats().Poisoned = false on a poisoned log")
	}
	// The non-durable table must not linger in memory: a retry must
	// report the real (sticky) failure, not a lying "already exists".
	if err := db.CreateTable("b"); err == nil || strings.Contains(err.Error(), "already exists") {
		t.Fatalf("retry after failed CreateTable: %v", err)
	}
}
