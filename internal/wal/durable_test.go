package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pgssi/internal/mvcc"
)

func commitRec(seq uint64, key, val string) Record {
	return Record{
		Seq: mvcc.SeqNo(seq),
		Xid: mvcc.TxID(seq),
		Ops: []Op{{Table: "t", Key: key, Value: []byte(val)}},
	}
}

func mustAppend(t *testing.T, l *DurableLog, rec Record) {
	t.Helper()
	if err := l.Append(rec).Wait(); err != nil {
		t.Fatalf("append seq %d: %v", rec.Seq, err)
	}
}

func replayAll(t *testing.T, l *DurableLog) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, Record{Seq: 0, CreateTable: "t"})
	mustAppend(t, l, commitRec(1, "a", "1"))
	mustAppend(t, l, commitRec(2, "b", "2"))
	mustAppend(t, l, Record{Seq: 2, SafeSnapshot: true})
	del := Record{Seq: 3, Xid: 3, Ops: []Op{{Table: "t", Key: "a", Delete: true}}}
	mustAppend(t, l, del)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.RecoveredRecords(); got != 5 {
		t.Fatalf("recovered %d records, want 5", got)
	}
	recs := replayAll(t, l2)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	if recs[0].CreateTable != "t" || recs[1].Seq != 1 || !recs[3].SafeSnapshot {
		t.Fatalf("bad records: %+v", recs)
	}
	if op := recs[4].Ops[0]; !op.Delete || op.Key != "a" || len(op.Value) != 0 {
		t.Fatalf("bad delete op: %+v", op)
	}
	if string(recs[2].Ops[0].Value) != "2" || recs[2].Xid != 2 {
		t.Fatalf("bad commit record: %+v", recs[2])
	}
}

func TestSegmentRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 1; i <= n; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%03d", i), "value-payload"))
	}
	if s := l.Stats(); s.Segments < 5 {
		t.Fatalf("expected rotation, got %d segments", s.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenDir(dir, Config{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := replayAll(t, l2)
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != mvcc.SeqNo(i+1) {
			t.Fatalf("record %d out of order: seq %d", i, r.Seq)
		}
	}
	// Appends continue in the recovered tail segment.
	mustAppend(t, l2, commitRec(n+1, "after", "recovery"))
	if recs := replayAll(t, l2); len(recs) != n+1 || recs[n].Ops[0].Key != "after" {
		t.Fatalf("replay after append = %d records (last %+v)", len(recs), recs[len(recs)-1])
	}
}

// corruptLastSegment applies fn to the newest segment file's bytes.
func corruptLastSegment(t *testing.T, dir string, fn func([]byte) []byte) {
	t.Helper()
	names, err := (osFS{}).ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			last = n
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	path := filepath.Join(dir, last)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeLog(t *testing.T, dir string, cfg Config, n int) {
	t.Helper()
	l, err := OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%03d", i), "torn-write-test-value"))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryStopsAtTornRecord(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, Config{Fsync: FsyncAlways}, 5)
	// Tear the last record: drop its final 7 bytes.
	corruptLastSegment(t, dir, func(b []byte) []byte { return b[:len(b)-7] })

	l, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.RecoveredRecords(); got != 4 {
		t.Fatalf("recovered %d records, want 4", got)
	}
	// The log stays appendable at the truncation point.
	mustAppend(t, l, commitRec(6, "post", "damage"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := replayAll(t, l2)
	if len(recs) != 5 || recs[4].Ops[0].Key != "post" {
		t.Fatalf("after repair: %d records (%+v)", len(recs), recs)
	}
}

func TestRecoveryStopsAtBitFlip(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, Config{Fsync: FsyncAlways}, 5)
	// Flip one bit somewhere in the middle of the file body.
	corruptLastSegment(t, dir, func(b []byte) []byte {
		b[len(b)/2] ^= 0x40
		return b
	})
	l, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := l.RecoveredRecords()
	if n >= 5 {
		t.Fatalf("recovered %d records despite corruption", n)
	}
	// Everything that did survive decodes cleanly and in order.
	recs := replayAll(t, l)
	if len(recs) != n {
		t.Fatalf("replay %d != recovered %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != mvcc.SeqNo(i+1) {
			t.Fatalf("record %d: seq %d", i, r.Seq)
		}
	}
}

func TestRecoveryDiscardsSegmentsAfterDamage(t *testing.T) {
	dir := t.TempDir()
	// Small segments: 30 records spread over several files.
	writeLog(t, dir, Config{Fsync: FsyncAlways, SegmentSize: 256}, 30)
	names, _ := (osFS{}).ReadDir(dir)
	if len(names) < 3 {
		t.Fatalf("want ≥3 segments, got %v", names)
	}
	// Corrupt the SECOND segment: its tail and every later segment must
	// be discarded.
	path := filepath.Join(dir, names[1])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[segmentHeaderSize+10] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := OpenDir(dir, Config{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := replayAll(t, l)
	for i, r := range recs {
		if r.Seq != mvcc.SeqNo(i+1) {
			t.Fatalf("record %d: seq %d", i, r.Seq)
		}
	}
	if len(recs) >= 30 {
		t.Fatal("damage in segment 2 did not drop any records")
	}
	after, _ := (osFS{}).ReadDir(dir)
	if len(after) >= len(names) {
		t.Fatalf("later segments not removed: before %v after %v", names, after)
	}
}

func TestRecoverySegmentGap(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, Config{Fsync: FsyncAlways, SegmentSize: 256}, 30)
	names, _ := (osFS{}).ReadDir(dir)
	if len(names) < 3 {
		t.Fatalf("want ≥3 segments, got %v", names)
	}
	// Remove a middle segment: everything after the gap is unreachable.
	if err := os.Remove(filepath.Join(dir, names[1])); err != nil {
		t.Fatal(err)
	}
	l, err := OpenDir(dir, Config{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := replayAll(t, l)
	for i, r := range recs {
		if r.Seq != mvcc.SeqNo(i+1) {
			t.Fatalf("record %d: seq %d", i, r.Seq)
		}
	}
	after, _ := (osFS{}).ReadDir(dir)
	if len(after) > 2 { // segment 1 + possibly a fresh tail
		t.Fatalf("segments after gap not removed: %v", after)
	}
}

func TestCrashLosesOnlyUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%d", i), "synced"))
	}
	// The final fsyncs silently disappear: records 4 and 5 are written
	// and acknowledged by the (lying) disk, but live only in the page
	// cache.
	ffs.DropFutureSyncs()
	for i := 4; i <= 5; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%d", i), "unsynced"))
	}
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := replayAll(t, l2)
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want exactly the 3 synced ones", len(recs))
	}
	for i, r := range recs {
		if r.Seq != mvcc.SeqNo(i+1) || string(r.Ops[0].Value) != "synced" {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}

func TestFsyncFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, commitRec(1, "a", "ok"))
	ffs.FailSyncs(errors.New("disk on fire"))
	if err := l.Append(commitRec(2, "b", "boom")).Wait(); err == nil {
		t.Fatal("append acknowledged despite fsync failure")
	}
	// Sticky: later appends fail too, even if the disk "recovers".
	ffs.FailSyncs(nil)
	if err := l.Append(commitRec(3, "c", "late")).Wait(); err == nil {
		t.Fatal("append acknowledged on a poisoned log")
	}
}

func TestFsyncOffNoSyncsUntilClose(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	l, err := OpenDir(dir, Config{Fsync: FsyncOff, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if p := l.Append(commitRec(uint64(i), fmt.Sprintf("k%d", i), "v")); p.done != nil {
			t.Fatal("FsyncOff Append waits for a flush")
		}
	}
	// Close flushes and syncs even in off mode, so a clean shutdown is
	// durable.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if ffs.Syncs() == 0 {
		t.Fatal("Close did not sync in FsyncOff mode")
	}
	l2, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.RecoveredRecords(); got != 10 {
		t.Fatalf("recovered %d records after clean FsyncOff close, want 10", got)
	}
}

func TestGroupCommitAmortizesFsync(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncBatch, GroupWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const workers, per = 8, 25
	var wg sync.WaitGroup
	var seq mvcc.SeqNo
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				mu.Lock()
				seq++
				s := seq
				mu.Unlock()
				rec := Record{Seq: s, Xid: mvcc.TxID(s), Ops: []Op{{Table: "t", Key: fmt.Sprintf("w%dk%d", w, i), Value: []byte("v")}}}
				if err := l.Append(rec).Wait(); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := l.Stats()
	if s.Appends != workers*per {
		t.Fatalf("appends = %d, want %d", s.Appends, workers*per)
	}
	if s.Fsyncs == 0 || s.Fsyncs >= s.Appends {
		t.Fatalf("group commit did not amortize: %d appends, %d fsyncs", s.Appends, s.Fsyncs)
	}
	t.Logf("group commit: %d appends / %d fsyncs = %.1f per fsync", s.Appends, s.Fsyncs, float64(s.Appends)/float64(s.Fsyncs))
}

// TestDurableAppenderNeverBlockedByDeadSubscriber pins the
// overflow-disconnect policy on the durable log: a subscriber that
// stops draining is disconnected rather than allowed to stall Enqueue
// (which runs inside the MVCC commit publication critical section).
func TestDurableAppenderNeverBlockedByDeadSubscriber(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ch, cancel := subscribe(t, l, 0)
	defer cancel()
	_ = ch // dead subscriber: never drained
	done := make(chan struct{})
	go func() {
		for i := 1; i <= 3*subscriberBuffer; i++ {
			l.Append(commitRec(uint64(i), "k", "v"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("appender blocked by a dead subscriber")
	}
}

// TestLogAppenderNeverBlockedByDeadSubscriber pins the same policy on
// the in-memory log (the PR-6-era fan-out blocked committers when a
// subscriber died without cancelling).
func TestLogAppenderNeverBlockedByDeadSubscriber(t *testing.T) {
	l := NewLog()
	ch, cancel := subscribe(t, l, 0)
	defer cancel()
	_ = ch // dead subscriber: never drained
	done := make(chan struct{})
	go func() {
		for i := 1; i <= 3*subscriberBuffer; i++ {
			l.Append(Record{Seq: mvcc.SeqNo(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("appender blocked by a dead subscriber")
	}
}

func TestDurableSubscribeBacklogThenLive(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, commitRec(1, "a", "1"))
	mustAppend(t, l, commitRec(2, "b", "2"))
	ch, cancel := subscribe(t, l, 0)
	defer cancel()
	got := func() Record {
		select {
		case r := <-ch:
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for record")
			return Record{}
		}
	}
	if r := got(); r.Seq != 1 {
		t.Fatalf("backlog[0] = %+v", r)
	}
	if r := got(); r.Seq != 2 {
		t.Fatalf("backlog[1] = %+v", r)
	}
	mustAppend(t, l, commitRec(3, "c", "3"))
	if r := got(); r.Seq != 3 || string(r.Ops[0].Value) != "3" {
		t.Fatalf("live = %+v", r)
	}
}

func TestRecordTooLargeRejected(t *testing.T) {
	dir := t.TempDir()
	// A frame advertising a huge length must be rejected before
	// allocation, not trusted.
	seg := encodeSegHeader(1)
	var frame [frameHeaderSize]byte
	frame[0], frame[1], frame[2], frame[3] = 0xff, 0xff, 0xff, 0xff
	content := append(seg, frame[:]...)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), content, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.RecoveredRecords(); got != 0 {
		t.Fatalf("recovered %d records from garbage", got)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(commitRec(1, "a", "v")).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 1, Xid: 7, Ops: []Op{{Table: "t", Key: "k", Value: []byte("v")}, {Table: "u", Key: "x", Delete: true}}},
		{Seq: 2, SafeSnapshot: true},
		{Seq: 3, CreateTable: "orders"},
		{Seq: 4, Xid: 9, Ops: []Op{}},
		{Seq: 5, Xid: 10, Ops: []Op{{Table: "", Key: "", Value: []byte{}}}},
	}
	for i, in := range recs {
		frame := encodeFrame(in)
		body, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("record %d: readFrame: %v", i, err)
		}
		out, err := decodeRecord(body)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if out.Seq != in.Seq || out.Xid != in.Xid || out.SafeSnapshot != in.SafeSnapshot || out.CreateTable != in.CreateTable || len(out.Ops) != len(in.Ops) {
			t.Fatalf("record %d: round trip %+v -> %+v", i, in, out)
		}
		for j := range in.Ops {
			if out.Ops[j].Table != in.Ops[j].Table || out.Ops[j].Key != in.Ops[j].Key || out.Ops[j].Delete != in.Ops[j].Delete || !bytes.Equal(out.Ops[j].Value, in.Ops[j].Value) {
				t.Fatalf("record %d op %d: %+v -> %+v", i, j, in.Ops[j], out.Ops[j])
			}
		}
	}
}

func TestPatchSeqKeepsFrameValid(t *testing.T) {
	frame := encodeFrame(Record{Xid: 42, Ops: []Op{{Table: "t", Key: "k", Value: []byte("v")}}})
	patchSeq(frame, 777)
	body, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("patched frame unreadable: %v", err)
	}
	rec, err := decodeRecord(body)
	if err != nil {
		t.Fatalf("patched frame undecodable: %v", err)
	}
	if rec.Seq != 777 || rec.Xid != 42 {
		t.Fatalf("patched record: %+v", rec)
	}
}

func TestParseFsyncMode(t *testing.T) {
	for s, want := range map[string]FsyncMode{"always": FsyncAlways, "batch": FsyncBatch, "off": FsyncOff} {
		got, err := ParseFsyncMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestOversizeRecordRejectedBeforeLogging pins the write-side half of
// the MaxRecordSize contract: a record whose frame readFrame would
// refuse must fail the append explicitly — if it were written and
// acknowledged, recovery would see it as damage and silently truncate
// the log there, discarding the acknowledged commit and everything
// after it.
func TestOversizeRecordRejectedBeforeLogging(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	big := Record{Seq: 1, Xid: 1, Ops: []Op{{Table: "t", Key: "k", Value: make([]byte, MaxRecordSize)}}}
	if err := ValidateRecord(big); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("ValidateRecord = %v, want ErrRecordTooLarge", err)
	}
	p := l.PrepareRecord(big)
	if !errors.Is(p.Err(), ErrRecordTooLarge) {
		t.Fatalf("PrepareRecord.Err = %v, want ErrRecordTooLarge", p.Err())
	}
	// Even if a caller ignores Err, Enqueue is the backstop: the record
	// must never join the flush queue.
	l.Enqueue(p, 1)
	if err := p.Wait(); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("Wait after oversize Enqueue = %v, want ErrRecordTooLarge", err)
	}
	if err := l.Append(big).Wait(); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversize Append = %v, want ErrRecordTooLarge", err)
	}
	// The rejection is per-record, not a log failure: the log is not
	// poisoned and later appends succeed.
	mustAppend(t, l, commitRec(2, "a", "ok"))
	if s := l.Stats(); s.Appends != 1 {
		t.Fatalf("oversize record counted as append: %+v", s)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := replayAll(t, l2)
	if len(recs) != 1 || recs[0].Seq != 2 {
		t.Fatalf("recovered %d records (want just seq 2): %+v", len(recs), recs)
	}
}

// TestSubscribeExactlyOnce races SubscribeFrom against the group-commit
// flusher: a subscription's backlog snapshot (published segment regions
// + inflight batch + pending queue) plus its live stream must deliver
// every record exactly once, whatever instant the snapshot is taken —
// in particular not twice for a batch caught between its disk write and
// its retirement from inflight.
func TestSubscribeExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncBatch, GroupWindow: 200 * time.Microsecond, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 300
	go func() {
		for i := 1; i <= n; i++ {
			l.Append(commitRec(uint64(i), fmt.Sprintf("k%d", i), "v"))
		}
	}()
	for it := 0; it < 40; it++ {
		ch, cancel := subscribe(t, l, 0)
		seen := make(map[mvcc.SeqNo]bool, n)
		for r := range ch {
			if seen[r.Seq] {
				cancel()
				t.Fatalf("subscription %d: record seq %d delivered twice", it, r.Seq)
			}
			seen[r.Seq] = true
			if len(seen) == n {
				break
			}
		}
		cancel()
		if len(seen) != n {
			t.Fatalf("subscription %d: stream ended after %d/%d records", it, len(seen), n)
		}
	}
}

// TestRotatedSegmentsSurviveCrash pins the directory fsync in rotate: a
// freshly created segment's directory entry must be durable before any
// record in it is acknowledged. Without it, fsyncing the segment's data
// is not enough — a power loss can lose the entry, and every
// acknowledged commit in that segment silently vanishes on recovery.
func TestRotatedSegmentsSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: 256, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 1; i <= n; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%03d", i), "value-payload"))
	}
	if s := l.Stats(); s.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", s.Segments)
	}
	// Machine dies with no clean Close.
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := replayAll(t, l2)
	if len(recs) != n {
		t.Fatalf("recovered %d of %d acknowledged records after crash with rotation", len(recs), n)
	}
}

// TestUnsyncedDirEntryLostAtCrash drives the complementary fault: when
// the directory fsync after a rotation is dropped (lying disk), the new
// segment's entry is lost at the crash and recovery must come up
// cleanly with exactly the records synced before the drop point.
func TestUnsyncedDirEntryLostAtCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: 200, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%d", i), "synced"))
	}
	ffs.DropFutureSyncs()
	// These appends rotate into new segments whose directory entries
	// (and data syncs) are all dropped.
	for i := 4; i <= 12; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%d", i), "unsynced"))
	}
	if s := l.Stats(); s.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", s.Segments)
	}
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	names, err := osFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("crash kept %d segment files %v, want only the first (later entries were never dir-synced)", len(names), names)
	}
	l2, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := replayAll(t, l2)
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want exactly the 3 synced ones", len(recs))
	}
	for i, r := range recs {
		if r.Seq != mvcc.SeqNo(i+1) || string(r.Ops[0].Value) != "synced" {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}
