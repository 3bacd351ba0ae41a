package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgssi/internal/mvcc"
)

// ckptFill returns a WriteCheckpoint fill that emits one schema record
// and one row image per key in [1, rows].
func ckptFill(rows int) func(emit func(Record) error) error {
	return func(emit func(Record) error) error {
		if err := emit(Record{CreateTable: "t"}); err != nil {
			return err
		}
		for i := 1; i <= rows; i++ {
			rec := Record{Ops: []Op{{Table: "t", Key: fmt.Sprintf("k%03d", i), Value: []byte("img")}}}
			if err := emit(rec); err != nil {
				return err
			}
		}
		return nil
	}
}

func listFiles(t *testing.T, dir, suffix string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), suffix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestCheckpointGCAndSuffixRecovery is the tentpole's round trip: force
// several segment rotations, checkpoint at a marker, and verify (a) the
// covered segments are gone from disk, (b) resuming below the GC floor
// is a loud ErrSeqTruncated, and (c) a reopened log recovers from the
// checkpoint plus only the suffix of the WAL.
func TestCheckpointGCAndSuffixRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, Record{CreateTable: "t"})
	const total, ckptAt = 30, 20
	for i := 1; i <= total; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%03d", i), "value-payload"))
		if i == ckptAt {
			mustAppend(t, l, Record{Seq: ckptAt, SafeSnapshot: true})
		}
	}
	segsBefore := len(listFiles(t, dir, ".wal"))
	if segsBefore < 4 {
		t.Fatalf("want >= 4 segments before checkpoint, got %d", segsBefore)
	}

	info, err := l.WriteCheckpoint(ckptAt, ckptFill(ckptAt))
	if err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if info.Seq != ckptAt || info.Records != ckptAt+1 {
		t.Fatalf("checkpoint info = %+v, want seq %d, %d records", info, ckptAt, ckptAt+1)
	}
	st := l.Stats()
	if st.Checkpoints != 1 || st.SegmentsGCed == 0 {
		t.Fatalf("stats after checkpoint: %+v", st)
	}
	if st.CheckpointSeq != ckptAt || st.GCFloorSeq == 0 || st.GCFloorSeq > ckptAt {
		t.Fatalf("checkpoint seq/floor: %+v", st)
	}
	segsAfter := len(listFiles(t, dir, ".wal"))
	if int64(segsBefore-segsAfter) != st.SegmentsGCed {
		t.Fatalf("disk lost %d segments, stats say %d", segsBefore-segsAfter, st.SegmentsGCed)
	}
	if got := listFiles(t, dir, ".ckpt"); len(got) != 1 {
		t.Fatalf("want exactly one .ckpt file, got %v", got)
	}

	// Below the floor: a loud truncation error and no channel, never a
	// silent gap.
	if ch, _, err := l.SubscribeFrom(mvcc.SeqNo(st.GCFloorSeq - 1)); !errors.Is(err, ErrSeqTruncated) || ch != nil {
		t.Fatalf("SubscribeFrom below floor: %v (channel %v), want ErrSeqTruncated and no channel", err, ch)
	}

	// At the checkpoint seq: the suffix arrives complete and in order.
	ch, cancel := subscribe(t, l, ckptAt)
	next := uint64(ckptAt)
	for next < total {
		rec := <-ch
		if rec.SafeSnapshot {
			continue
		}
		if uint64(rec.Seq) != next+1 {
			t.Fatalf("suffix out of order: got seq %d after %d", rec.Seq, next)
		}
		next = uint64(rec.Seq)
	}
	cancel()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: checkpoint + suffix-only replay.
	l2, err := OpenDir(dir, Config{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	ci, ok := l2.CheckpointInfo()
	if !ok || ci.Seq != ckptAt || ci.Records != ckptAt+1 {
		t.Fatalf("recovered checkpoint info = %+v ok=%v", ci, ok)
	}
	var ckptRecs []Record
	if _, err := l2.ReplayCheckpoint(func(r Record) error {
		ckptRecs = append(ckptRecs, r)
		return nil
	}); err != nil {
		t.Fatalf("ReplayCheckpoint: %v", err)
	}
	if len(ckptRecs) != ckptAt+1 || ckptRecs[0].CreateTable != "t" {
		t.Fatalf("checkpoint records: %d, first %+v", len(ckptRecs), ckptRecs[0])
	}
	for _, r := range ckptRecs {
		if r.Seq != ckptAt {
			t.Fatalf("checkpoint record not stamped with checkpoint seq: %+v", r)
		}
	}
	suffix := replayAll(t, l2)
	for _, r := range suffix {
		if !r.SafeSnapshot && uint64(r.Seq) <= ckptAt {
			t.Fatalf("replay delivered pre-checkpoint commit seq %d", r.Seq)
		}
	}
	if got := l2.RecoveredRecords(); got >= total {
		t.Fatalf("recovered %d records, want only the post-checkpoint suffix (< %d)", got, total)
	}
	if got := l2.RecoveredMaxSeq(); got != total {
		t.Fatalf("RecoveredMaxSeq = %d, want %d", got, total)
	}
	if st := l2.Stats(); st.CheckpointSeq != ckptAt || st.GCFloorSeq == 0 {
		t.Fatalf("reopened stats lost checkpoint state: %+v", st)
	}
	// Appending continues past the recovered history.
	mustAppend(t, l2, commitRec(total+1, "after-reopen", "v"))
}

// TestOpenIgnoresLeftoverManifest: a data directory written by a version
// that kept a CHECKPOINT manifest beside its checkpoints still opens,
// recovers from its newest checkpoint, and checkpoints again.
func TestOpenIgnoresLeftoverManifest(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, Record{CreateTable: "t"})
	for i := 1; i <= 10; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%03d", i), "value-payload"))
	}
	mustAppend(t, l, Record{Seq: 10, SafeSnapshot: true})
	if _, err := l.WriteCheckpoint(10, ckptFill(10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The old manifest: one frame of magic, checkpoint seq and GC floor.
	body := append([]byte("PGSSICKM"), 0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 4)
	if err := os.WriteFile(filepath.Join(dir, "CHECKPOINT"), body, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: 256})
	if err != nil {
		t.Fatalf("open with a leftover manifest: %v", err)
	}
	defer l2.Close()
	if ci, ok := l2.CheckpointInfo(); !ok || ci.Seq != 10 {
		t.Fatalf("recovered checkpoint = %+v ok=%v, want seq 10", ci, ok)
	}
	if got := l2.RecoveredMaxSeq(); got != 10 {
		t.Fatalf("RecoveredMaxSeq = %d, want 10", got)
	}
	mustAppend(t, l2, commitRec(11, "k011", "v"))
	mustAppend(t, l2, Record{Seq: 11, SafeSnapshot: true})
	if _, err := l2.WriteCheckpoint(11, ckptFill(11)); err != nil {
		t.Fatalf("checkpoint after reopening: %v", err)
	}
}

// TestCheckpointRejectsBadSequences pins the guard rails: no checkpoint
// at seq 0, none at or below the previous checkpoint.
func TestCheckpointRejectsBadSequences(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.WriteCheckpoint(0, ckptFill(0)); err == nil {
		t.Fatal("checkpoint at seq 0 accepted")
	}
	mustAppend(t, l, commitRec(1, "a", "1"))
	mustAppend(t, l, commitRec(2, "b", "2"))
	if _, err := l.WriteCheckpoint(2, ckptFill(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.WriteCheckpoint(2, ckptFill(2)); err == nil {
		t.Fatal("duplicate checkpoint seq accepted")
	}
	if _, err := l.WriteCheckpoint(1, ckptFill(1)); err == nil {
		t.Fatal("checkpoint below previous accepted")
	}
}

// supersedeOnOpenFS runs hook once, at the first Open of a checkpoint
// file and before it: inside ReplayCheckpoint, that is between its read
// of the newest checkpoint's path and its open of the file. Only the
// caller's goroutine opens checkpoint files, so hook needs no lock.
type supersedeOnOpenFS struct {
	FS
	hook func()
}

func (f *supersedeOnOpenFS) Open(name string) (File, error) {
	if strings.HasSuffix(name, ".ckpt") && f.hook != nil {
		hook := f.hook
		f.hook = nil
		hook()
	}
	return f.FS.Open(name)
}

// TestReplayCheckpointSupersededBeforeOpen: a checkpoint written while
// ReplayCheckpoint is between choosing a checkpoint and opening it
// removes the chosen file. The replay must stream the newer checkpoint,
// not fail with the removed file's not-exist error (which halted a
// re-seeding replica for good).
func TestReplayCheckpointSupersededBeforeOpen(t *testing.T) {
	fsys := &supersedeOnOpenFS{FS: NewMemFS()}
	l, err := OpenDir("/wal", Config{Fsync: FsyncAlways, SegmentSize: 256, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, Record{CreateTable: "t"})
	for i := 1; i <= 20; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%03d", i), "v"))
		if i%10 == 0 {
			mustAppend(t, l, Record{Seq: mvcc.SeqNo(i), SafeSnapshot: true})
		}
	}
	if _, err := l.WriteCheckpoint(10, ckptFill(10)); err != nil {
		t.Fatal(err)
	}
	fsys.hook = func() {
		if _, err := l.WriteCheckpoint(20, ckptFill(20)); err != nil {
			t.Errorf("superseding WriteCheckpoint: %v", err)
		}
	}
	n := 0
	info, err := l.ReplayCheckpoint(func(Record) error { n++; return nil })
	if fsys.hook != nil {
		t.Fatal("the superseding checkpoint never ran: ReplayCheckpoint opened no checkpoint file")
	}
	if err != nil {
		t.Fatalf("ReplayCheckpoint across a superseding checkpoint: %v", err)
	}
	if info.Seq != 20 || info.Records != 21 || n != 21 {
		t.Fatalf("replayed %+v (%d records streamed), want the newer checkpoint: seq 20, 21 records", info, n)
	}
}

// TestCheckpointFillErrorLeavesLogUsable: a failed fill must not leave a
// torn .ckpt behind or disturb the log.
func TestCheckpointFillErrorLeavesLogUsable(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, commitRec(1, "a", "1"))
	boom := errors.New("fill failed")
	if _, err := l.WriteCheckpoint(1, func(emit func(Record) error) error {
		if err := emit(Record{Ops: []Op{{Table: "t", Key: "a", Value: []byte("1")}}}); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("WriteCheckpoint: %v, want fill error", err)
	}
	if got := listFiles(t, dir, ".ckpt"); len(got) != 0 {
		t.Fatalf("aborted checkpoint left files: %v", got)
	}
	if _, ok := l.CheckpointInfo(); ok {
		t.Fatal("aborted checkpoint recorded in CheckpointInfo")
	}
	mustAppend(t, l, commitRec(2, "b", "2"))
	if _, err := l.WriteCheckpoint(2, ckptFill(2)); err != nil {
		t.Fatalf("retry after failed fill: %v", err)
	}
}

// TestTornCheckpointDiscardedAtCrash is the lying-disk edge: the
// checkpoint "succeeds" and GCs segments, but none of it was ever
// synced. After the crash the torn checkpoint must be discarded, the
// unlinked segments restored, and recovery must replay the full durable
// history — the crash loses the checkpoint, never committed data.
func TestTornCheckpointDiscardedAtCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: 256, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	const total = 20
	for i := 1; i <= total; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%03d", i), "value-payload"))
	}
	// Everything so far is durable. From here on the disk lies: writes
	// and unlinks appear to succeed but nothing reaches the platter.
	ffs.DropFutureSyncs()
	info, err := l.WriteCheckpoint(total, ckptFill(total))
	if err != nil || info.Seq != total {
		t.Fatalf("WriteCheckpoint on lying disk: %+v, %v", info, err)
	}
	if st := l.Stats(); st.SegmentsGCed == 0 {
		t.Fatalf("checkpoint GC'd nothing: %+v", st)
	}
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenDir(dir, Config{SegmentSize: 256, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, ok := l2.CheckpointInfo(); ok {
		t.Fatal("torn checkpoint survived the crash")
	}
	recs := replayAll(t, l2)
	var commits int
	for _, r := range recs {
		if !r.SafeSnapshot {
			commits++
		}
	}
	if commits != total {
		t.Fatalf("recovered %d commits, want all %d (GC'd segments must resurrect)", commits, total)
	}
}

// TestCrashDuringCheckpointKeepsPrevious: with an older durable
// checkpoint in place, a torn successor must not dislodge it.
func TestCrashDuringCheckpointKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: 256, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%03d", i), "value-payload"))
	}
	if _, err := l.WriteCheckpoint(10, ckptFill(10)); err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 20; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%03d", i), "value-payload"))
	}
	ffs.DropFutureSyncs()
	if _, err := l.WriteCheckpoint(20, ckptFill(20)); err != nil {
		t.Fatalf("WriteCheckpoint on lying disk: %v", err)
	}
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenDir(dir, Config{SegmentSize: 256, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	ci, ok := l2.CheckpointInfo()
	if !ok || ci.Seq != 10 {
		t.Fatalf("recovered checkpoint = %+v ok=%v, want the previous one at seq 10", ci, ok)
	}
	// The torn seq-20 checkpoint file must be gone from the directory.
	for _, name := range listFiles(t, dir, ".ckpt") {
		if name != ckptName(10) {
			t.Fatalf("stray checkpoint file %s survived", name)
		}
	}
	// The checkpoint plus the replayed suffix still covers seqs 11..20.
	recs := replayAll(t, l2)
	seen := map[uint64]bool{}
	for _, r := range recs {
		if !r.SafeSnapshot {
			seen[uint64(r.Seq)] = true
		}
	}
	for i := uint64(11); i <= 20; i++ {
		if !seen[i] {
			t.Fatalf("suffix missing seq %d after crash: %v", i, seen)
		}
	}
}

// TestCheckpointOnPoisonedLogRefused: a poisoned log must refuse to
// checkpoint (and above all must not GC anything).
func TestCheckpointOnPoisonedLogRefused(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: 256, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 10; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%03d", i), "value-payload"))
	}
	ffs.FailSyncs(errors.New("disk on fire"))
	l.Append(commitRec(11, "k", "boom")).Wait()
	if l.PoisonErr() == nil {
		t.Fatal("log not poisoned after failed fsync")
	}
	ffs.FailSyncs(nil)
	if _, err := l.WriteCheckpoint(11, ckptFill(11)); err == nil {
		t.Fatal("poisoned log accepted a checkpoint")
	}
	if st := l.Stats(); st.SegmentsGCed != 0 || st.Checkpoints != 0 {
		t.Fatalf("poisoned checkpoint attempt touched the log: %+v", st)
	}
}
