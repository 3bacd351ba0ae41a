package wal

import (
	"testing"
	"time"
)

func TestAppendAndRecords(t *testing.T) {
	l := NewLog()
	defer l.Close()
	l.Append(Record{Seq: 1, Ops: []Op{{Table: "t", Key: "a", Value: []byte("1")}}})
	l.Append(Record{Seq: 1, SafeSnapshot: true})
	if n := l.Stats().Appends; n != 2 {
		t.Fatalf("appends = %d", n)
	}
	ch, cancel := subscribe(t, l, 0)
	defer cancel()
	recs := collect(t, ch, 2)
	if recs[1].SafeSnapshot != true || recs[0].Ops[0].Key != "a" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestSubscribeReplaysBacklogThenStreams(t *testing.T) {
	l := NewLog()
	l.Append(Record{Seq: 1})
	l.Append(Record{Seq: 2})
	ch, cancel := subscribe(t, l, 0)
	defer cancel()
	if r := <-ch; r.Seq != 1 {
		t.Fatalf("first = %+v", r)
	}
	if r := <-ch; r.Seq != 2 {
		t.Fatalf("second = %+v", r)
	}
	go l.Append(Record{Seq: 3})
	select {
	case r := <-ch:
		if r.Seq != 3 {
			t.Fatalf("streamed = %+v", r)
		}
	case <-time.After(time.Second):
		t.Fatal("streamed record not delivered")
	}
}

func TestCancelDetaches(t *testing.T) {
	l := NewLog()
	ch, cancel := subscribe(t, l, 0)
	cancel()
	// Appends after cancel must not block even if nobody reads ch.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 2000; i++ {
			l.Append(Record{Seq: 1})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("append blocked after subscriber cancelled")
	}
	_ = ch
}

func TestMultipleSubscribersSeeSameStream(t *testing.T) {
	l := NewLog()
	a, cancelA := subscribe(t, l, 0)
	b, cancelB := subscribe(t, l, 0)
	defer cancelA()
	defer cancelB()
	go func() {
		for i := 1; i <= 5; i++ {
			l.Append(Record{Seq: 1})
		}
	}()
	for i := 0; i < 5; i++ {
		<-a
		<-b
	}
}
