package wal

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"pgssi/internal/mvcc"
)

// never is a group window no test waits out: a flush that goes ahead
// under it was let go by the gather rule, not by the clock.
const never = time.Hour

// waitFor polls cond; the flusher works on its own goroutine, so tests
// wait for its state rather than assume it.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestLoneCommitterNeverWaits(t *testing.T) {
	for _, joiners := range []func() int{nil, func() int { return 0 }} {
		ffs := NewFaultFS()
		l, err := OpenDir(t.TempDir(), Config{Fsync: FsyncBatch, GroupWindow: never, FS: ffs, Joiners: joiners})
		if err != nil {
			t.Fatal(err)
		}
		before := ffs.Syncs()
		const n = 20
		for i := 1; i <= n; i++ {
			mustAppend(t, l, commitRec(uint64(i), "k", "v"))
		}
		s := l.Stats()
		if s.GatherWaits != 0 || s.GatherNanos != 0 {
			t.Fatalf("a committer with nobody to wait for waited: %+v", s)
		}
		if s.Batches != n || ffs.Syncs()-before != n {
			t.Fatalf("%d batches, %d syncs for %d lone commits", s.Batches, ffs.Syncs()-before, n)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJoinersShareOneSync(t *testing.T) {
	ffs := NewFaultFS()
	var joiners atomic.Int64
	joiners.Store(1)
	l, err := OpenDir(t.TempDir(), Config{Fsync: FsyncBatch, GroupWindow: never, FS: ffs,
		Joiners: func() int { return int(joiners.Load()) }})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	before := ffs.Syncs()
	first := l.Append(commitRec(1, "a", "1"))
	// The flusher holds the batch back for the open transaction...
	waitFor(t, "the flusher to gather", l.gathering.Load)
	// ...which now commits: its record joins the batch, and its leaving
	// lets the batch go.
	second := l.Append(commitRec(2, "b", "2"))
	if !l.gathering.Load() {
		t.Fatal("an enqueue ended the gather while a joiner was still open")
	}
	joiners.Store(0)
	l.JoinersDrained()
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := second.Wait(); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if got := ffs.Syncs() - before; got != 1 || s.Batches != 1 {
		t.Fatalf("two committers took %d syncs in %d batches, want one of each", got, s.Batches)
	}
	if s.GatherWaits != 1 || s.GatherCutShort != 1 || s.GatherExpired != 0 {
		t.Fatalf("gather counters: %+v", s)
	}
}

func TestIdleJoinerDelaysCommitByAtMostTheCap(t *testing.T) {
	l, err := OpenDir(t.TempDir(), Config{Fsync: FsyncBatch, GroupWindow: 2 * time.Millisecond, FS: NewFaultFS(),
		Joiners: func() int { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	start := time.Now()
	mustAppend(t, l, commitRec(1, "a", "1"))
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("commit held for %v by an idle joiner, window 2ms", d)
	}
	s := l.Stats()
	if s.GatherWaits != 1 || s.GatherExpired != 1 || s.GatherCutShort != 0 {
		t.Fatalf("gather counters: %+v", s)
	}
	if s.GatherNanos < int64(2*time.Millisecond) {
		t.Fatalf("gather expired after %v, before its window", time.Duration(s.GatherNanos))
	}
}

// TestMarkerOnlyBatchIsNotSynced: a record nobody waits for is written
// in order but earns no sync; it is still delivered to subscribers once
// and is on disk after a clean Close.
func TestMarkerOnlyBatchIsNotSynced(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, commitRec(1, "a", "1"))
	before := ffs.Syncs()
	l.AppendNoWait(Record{Seq: 1, SafeSnapshot: true})
	waitFor(t, "the marker's batch", func() bool { return l.Stats().UnsyncedBatches == 1 })
	if got := ffs.Syncs() - before; got != 0 {
		t.Fatalf("a batch nobody waits for took %d syncs", got)
	}

	ch, cancel := subscribe(t, l, 0)
	var got []Record
	for len(got) < 2 {
		select {
		case r := <-ch:
			got = append(got, r)
		case <-time.After(10 * time.Second):
			t.Fatalf("subscription delivered %d of 2 records", len(got))
		}
	}
	select {
	case r := <-ch:
		t.Fatalf("record delivered twice: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if got[0].Seq != 1 || got[0].SafeSnapshot || !got[1].SafeSnapshot {
		t.Fatalf("subscription delivered %+v", got)
	}

	// The next waited record's sync covers the marker: a crash loses
	// neither.
	mustAppend(t, l, commitRec(2, "b", "2"))
	l.AppendNoWait(Record{Seq: 2, SafeSnapshot: true})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := replayAll(t, l2)
	if len(recs) != 4 || !recs[1].SafeSnapshot || recs[2].Seq != 2 || !recs[3].SafeSnapshot {
		t.Fatalf("replay after clean close: %+v", recs)
	}
}

func TestUnsyncedMarkerLostAtCrashLosesNothingAcknowledged(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, commitRec(1, "a", "1"))
	l.AppendNoWait(Record{Seq: 1, SafeSnapshot: true})
	waitFor(t, "the marker's batch", func() bool { return l.Stats().UnsyncedBatches == 1 })
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs := replayAll(t, l2); len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("after crash: %+v, want exactly the acknowledged commit", recs)
	}
}

func segmentSizes(t *testing.T, dir string) []int64 {
	t.Helper()
	names, err := osFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			info, err := os.Stat(filepath.Join(dir, n))
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, info.Size())
		}
	}
	return sizes
}

// TestSegmentLengths: the open segment is SegmentSize long (zeros from
// its logical end on), sealed ones — rotated away or closed — are
// exactly their records.
func TestSegmentLengths(t *testing.T) {
	dir := t.TempDir()
	const segSize = 512
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		mustAppend(t, l, commitRec(uint64(i), fmt.Sprintf("k%03d", i), "value-payload"))
	}
	check := func(when string, open bool) {
		t.Helper()
		sizes := segmentSizes(t, dir)
		l.mu.Lock()
		segs := append([]segMeta(nil), l.segs...)
		l.mu.Unlock()
		if len(sizes) != len(segs) || len(segs) < 3 {
			t.Fatalf("%s: %d files, %d segments", when, len(sizes), len(segs))
		}
		for i, s := range segs {
			want := s.size
			if open && i == len(segs)-1 {
				want = segSize
			}
			if sizes[i] != want {
				t.Fatalf("%s: segment %d is %d bytes, want %d (logical %d)", when, s.index, sizes[i], want, s.size)
			}
		}
	}
	check("running", true)
	// BytesWritten is content: every segment's logical bytes, but for
	// the first header, which OpenDir wrote. The zeros count apart.
	st := l.Stats()
	var logical int64
	l.mu.Lock()
	nsegs := int64(len(l.segs))
	for _, s := range l.segs {
		logical += s.size
	}
	l.mu.Unlock()
	if st.BytesWritten != logical-segmentHeaderSize || st.BytesPreallocated != nsegs*(segSize-segmentHeaderSize) {
		t.Fatalf("BytesWritten %d, BytesPreallocated %d; %d segments hold %d bytes", st.BytesWritten, st.BytesPreallocated, nsegs, logical)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check("closed", false)

	l, err = OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	check("reopened", true)
	if n := len(replayAll(t, l)); n != 40 {
		t.Fatalf("replayed %d records, want 40", n)
	}
}

// bigRec is a commit record of several sectors, so that a crash can
// tear one frame and keep the next whole.
func bigRec(seq uint64, fill byte) Record {
	return Record{Seq: mvcc.SeqNo(seq), Xid: mvcc.TxID(seq),
		Ops: []Op{{Table: "t", Key: "k", Value: bytes.Repeat([]byte{fill}, 4*FaultSectorSize)}}}
}

// TestFrameBeyondTornHoleStaysGone: records A (synced), B and C
// (unsynced). The crash keeps every sector C lies in and loses B's, so C
// sits whole on the disk behind a hole. Recovery must stop at A, and C
// must not come back when a later record of B's size fills the hole
// exactly.
func TestFrameBeyondTornHoleStaysGone(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: 64 << 10, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, bigRec(1, 'A'))
	ffs.DropFutureSyncs()
	mustAppend(t, l, bigRec(2, 'B'))
	mustAppend(t, l, bigRec(3, 'C'))
	l.mu.Lock()
	end := l.segs[0].size
	l.mu.Unlock()
	frame := (end - segmentHeaderSize) / 3
	cStart := segmentHeaderSize + 2*frame
	err = ffs.CrashKeeping(func(_ string, sector int64) bool {
		return (sector+1)*FaultSectorSize > cStart
	})
	if err != nil {
		t.Fatal(err)
	}
	// C really is on the disk, whole, behind the hole.
	raw, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if body, err := readFrame(bytes.NewReader(raw[cStart:]), nil); err != nil {
		t.Fatalf("the crash did not keep C: %v", err)
	} else if rec, err := decodeRecord(body); err != nil || rec.Seq != 3 {
		t.Fatalf("the crash did not keep C: %+v, %v", rec, err)
	}

	ffs = NewFaultFS()
	l2, err := OpenDir(dir, Config{Fsync: FsyncAlways, SegmentSize: 64 << 10, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if recs := replayAll(t, l2); len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("recovered %+v, want A alone", recs)
	}
	// D is exactly as long as B was: it ends where C began. The process
	// then dies again (a clean Close would trim the segment behind D and
	// hide a C that recovery had left there).
	mustAppend(t, l2, bigRec(4, 'D'))
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	l3, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	recs := replayAll(t, l3)
	if len(recs) != 2 || recs[0].Seq != 1 || recs[1].Seq != 4 {
		seqs := make([]mvcc.SeqNo, len(recs))
		for i, r := range recs {
			seqs[i] = r.Seq
		}
		t.Fatalf("after reopen + append: seqs %v, want [1 4] (3 would be a resurrected record)", seqs)
	}
}

// TestCrashKeepingRandomSectors: whatever subset of the unsynced
// sectors a crash lets through, recovery yields a prefix of the log that
// holds every record synced before the disk started lying, and what it
// cut off never returns.
func TestCrashKeepingRandomSectors(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5ec7))
		dir := t.TempDir()
		ffs := NewFaultFS()
		cfg := Config{Fsync: FsyncAlways, SegmentSize: 8 << 10, FS: ffs}
		l, err := OpenDir(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := func(seq int) Record {
			return Record{Seq: mvcc.SeqNo(seq), Xid: mvcc.TxID(seq),
				Ops: []Op{{Table: "t", Key: "k", Value: make([]byte, rng.IntN(3*FaultSectorSize))}}}
		}
		synced := 1 + rng.IntN(12)
		total := synced + rng.IntN(12)
		for i := 1; i <= total; i++ {
			if i == synced+1 {
				ffs.DropFutureSyncs()
			}
			mustAppend(t, l, rec(i))
		}
		if err := ffs.CrashKeeping(func(string, int64) bool { return rng.IntN(2) == 0 }); err != nil {
			t.Fatal(err)
		}
		// The second life ends in a crash too, with everything synced: a
		// clean Close would trim the segment and hide what recovery left
		// behind the cut.
		ffs = NewFaultFS()
		cfg.FS = ffs
		l2, err := OpenDir(dir, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		recs := replayAll(t, l2)
		if len(recs) < synced || len(recs) > total {
			t.Fatalf("seed %d: recovered %d records, %d were synced, %d written", seed, len(recs), synced, total)
		}
		for i, r := range recs {
			if r.Seq != mvcc.SeqNo(i+1) {
				t.Fatalf("seed %d: record %d has seq %d: not a prefix", seed, i, r.Seq)
			}
		}
		kept := len(recs)
		const more = 5
		for i := 1; i <= more; i++ {
			mustAppend(t, l2, rec(100+i))
		}
		if err := ffs.Crash(); err != nil {
			t.Fatal(err)
		}
		cfg.FS = nil
		l3, err := OpenDir(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs = replayAll(t, l3)
		l3.Close()
		if len(recs) != kept+more {
			t.Fatalf("seed %d: %d records after reopen, want %d + %d", seed, len(recs), kept, more)
		}
		for i, r := range recs[kept:] {
			if r.Seq != mvcc.SeqNo(101+i) {
				t.Fatalf("seed %d: record %d after the cut has seq %d", seed, i, r.Seq)
			}
		}
	}
}

// TestFaultFSInPlaceWrites pins the model itself: an unsynced overwrite
// of synced content reverts at Crash, a kept sector does not, and an
// unsynced extension is cut off.
func TestFaultFSInPlaceWrites(t *testing.T) {
	ffs := NewFaultFS()
	name := filepath.Join(t.TempDir(), "f")
	f, err := ffs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(make([]byte, 4*FaultSectorSize)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ffs.SyncDir(filepath.Dir(name)); err != nil {
		t.Fatal(err)
	}
	ones := bytes.Repeat([]byte{1}, 2*FaultSectorSize)
	if _, err := f.WriteAt(ones, FaultSectorSize/2); err != nil { // sectors 0, 1, 2
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ones, 4*FaultSectorSize); err != nil { // beyond the synced length
		t.Fatal(err)
	}
	if err := ffs.CrashKeeping(func(_ string, sector int64) bool { return sector == 1 }); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 4*FaultSectorSize)
	copy(want[FaultSectorSize:2*FaultSectorSize], ones)
	if !bytes.Equal(got, want) {
		t.Fatalf("after crash: %d bytes, sector sums %v", len(got), sectorSums(got))
	}
}

func sectorSums(b []byte) []int {
	var sums []int
	for len(b) > 0 {
		n := min(len(b), FaultSectorSize)
		s := 0
		for _, c := range b[:n] {
			s += int(c)
		}
		sums = append(sums, s)
		b = b[n:]
	}
	return sums
}
