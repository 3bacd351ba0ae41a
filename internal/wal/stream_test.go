package wal

import (
	"bytes"
	"testing"
	"time"

	"pgssi/internal/mvcc"
)

// subscribe is SubscribeFrom for a test that expects the subscription
// to be accepted.
func subscribe(t *testing.T, l *DurableLog, after mvcc.SeqNo) (<-chan Record, func()) {
	t.Helper()
	ch, cancel, err := l.SubscribeFrom(after)
	if err != nil {
		t.Fatalf("SubscribeFrom(%d): %v", after, err)
	}
	return ch, cancel
}

// collect drains ch until it would block for longer than the grace
// period, returning what was received.
func collect(t *testing.T, ch <-chan Record, want int) []Record {
	t.Helper()
	var out []Record
	for len(out) < want {
		select {
		case r, ok := <-ch:
			if !ok {
				t.Fatalf("stream closed after %d records, want %d", len(out), want)
			}
			out = append(out, r)
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out after %d records, want %d", len(out), want)
		}
	}
	return out
}

func seqs(recs []Record) []mvcc.SeqNo {
	out := make([]mvcc.SeqNo, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}

func TestLogSubscribeFromFiltersBacklog(t *testing.T) {
	l := NewLog()
	l.Append(Record{Seq: 0, CreateTable: "t"})
	l.Append(commitRec(1, "a", "1"))
	l.Append(commitRec(2, "b", "2"))
	l.Append(Record{Seq: 2, SafeSnapshot: true})
	l.Append(commitRec(3, "c", "3"))

	// Resuming after seq 2: commit 3 is new; the marker at seq 2 sits on
	// the boundary and must be redelivered (it may postdate the
	// subscriber's copy of commit 2), but commits 1 and 2 must not be.
	ch, cancel := subscribe(t, l, 2)
	defer cancel()
	got := collect(t, ch, 2)
	if !got[0].SafeSnapshot || got[0].Seq != 2 {
		t.Fatalf("first resumed record = %+v, want marker at seq 2", got[0])
	}
	if got[1].Seq != 3 || len(got[1].Ops) != 1 {
		t.Fatalf("second resumed record = %+v, want commit 3", got[1])
	}

	// Live records stream through the same filter.
	l.Append(commitRec(4, "d", "4"))
	live := collect(t, ch, 1)
	if live[0].Seq != 4 {
		t.Fatalf("live record = %+v, want commit 4", live[0])
	}
}

func TestLogSubscribeFromZeroIsFullReplay(t *testing.T) {
	l := NewLog()
	l.Append(Record{Seq: 0, CreateTable: "t"})
	l.Append(commitRec(1, "a", "1"))
	l.Append(Record{Seq: 1, SafeSnapshot: true})
	ch, cancel := subscribe(t, l, 0)
	defer cancel()
	got := collect(t, ch, 3)
	if got[0].CreateTable != "t" || got[1].Seq != 1 || !got[2].SafeSnapshot {
		t.Fatalf("full replay = %v", seqs(got))
	}
}

func TestDurableSubscribeFromSkipsAppliedPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, Record{Seq: 0, CreateTable: "t"})
	for i := 1; i <= 5; i++ {
		mustAppend(t, l, commitRec(uint64(i), "k", "v"))
	}
	mustAppend(t, l, Record{Seq: 5, SafeSnapshot: true})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the disk backlog holds seqs 0..5 + marker. Resume after 3.
	l2, err := OpenDir(dir, Config{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	ch, cancel := subscribe(t, l2, 3)
	defer cancel()
	got := collect(t, ch, 3)
	want := []mvcc.SeqNo{4, 5, 5}
	for i, s := range want {
		if got[i].Seq != s {
			t.Fatalf("resumed seqs = %v, want %v", seqs(got), want)
		}
	}
	if !got[2].SafeSnapshot {
		t.Fatalf("last resumed record should be the marker: %+v", got[2])
	}

	// New appends past the resume point stream live.
	mustAppend(t, l2, commitRec(6, "k", "v6"))
	live := collect(t, ch, 1)
	if live[0].Seq != 6 {
		t.Fatalf("live record = %+v", live[0])
	}
}

func TestDurableSubscribeFromExactlyOnceUnderAppends(t *testing.T) {
	// SubscribeFrom must not double-deliver a commit that is moving
	// through pending -> inflight -> disk while the snapshot is taken.
	dir := t.TempDir()
	l, err := OpenDir(dir, Config{Fsync: FsyncBatch, GroupWindow: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			l.Append(commitRec(uint64(i), "k", "v"))
		}
	}()
	ch, cancel := subscribe(t, l, 20)
	defer cancel()
	<-done
	got := collect(t, ch, n-20)
	seen := map[mvcc.SeqNo]int{}
	for _, r := range got {
		seen[r.Seq]++
	}
	for s := mvcc.SeqNo(21); s <= n; s++ {
		if seen[s] != 1 {
			t.Fatalf("seq %d delivered %d times", s, seen[s])
		}
	}
	if len(seen) != n-20 {
		t.Fatalf("saw %d distinct seqs, want %d", len(seen), n-20)
	}
}

func TestRecordBodyRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 0, CreateTable: "accounts"},
		{Seq: 7, Xid: 9, Ops: []Op{
			{Table: "t", Key: "a", Value: []byte("v")},
			{Table: "t", Key: "b", Delete: true},
		}},
		{Seq: 7, SafeSnapshot: true},
	}
	for _, rec := range recs {
		body, err := EncodeRecordBody(rec)
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		got, err := DecodeRecordBody(body)
		if err != nil {
			t.Fatalf("decode %+v: %v", rec, err)
		}
		if got.Seq != rec.Seq || got.Xid != rec.Xid ||
			got.SafeSnapshot != rec.SafeSnapshot || got.CreateTable != rec.CreateTable ||
			len(got.Ops) != len(rec.Ops) {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
		for i, op := range rec.Ops {
			g := got.Ops[i]
			if g.Table != op.Table || g.Key != op.Key || g.Delete != op.Delete || !bytes.Equal(g.Value, op.Value) {
				t.Fatalf("op %d: got %+v, want %+v", i, g, op)
			}
		}
	}
}

func TestEncodeRecordBodyRejectsOversize(t *testing.T) {
	rec := Record{Seq: 1, Ops: []Op{{Table: "t", Key: "k", Value: make([]byte, MaxRecordSize)}}}
	if _, err := EncodeRecordBody(rec); err != ErrRecordTooLarge {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}
