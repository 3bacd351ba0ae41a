package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// fsScript runs one script of FS calls under dir and describes every
// outcome without the paths, so two filesystems can be compared.
func fsScript(fsys FS, dir string) []string {
	var out []string
	outcome := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, fs.ErrNotExist):
			return "not exist"
		}
		return "error"
	}
	note := func(step string, err error) { out = append(out, step+": "+outcome(err)) }
	read := func(name string) {
		f, err := fsys.Open(filepath.Join(dir, name))
		if err != nil {
			note("read "+name, err)
			return
		}
		b, err := io.ReadAll(f)
		f.Close()
		out = append(out, fmt.Sprintf("read %s: %q %s", name, b, outcome(err)))
	}
	path := func(name string) string { return filepath.Join(dir, name) }

	_, err := fsys.Create(path("a"))
	note("create in missing dir", err)
	_, err = fsys.ReadDir(dir)
	note("readdir missing dir", err)
	note("mkdir", fsys.MkdirAll(dir))
	_, err = fsys.Open(path("missing"))
	note("open missing", err)
	_, err = fsys.OpenWrite(path("missing"))
	note("open-write missing", err)
	note("truncate missing", fsys.Truncate(path("missing"), 0))
	note("remove missing", fsys.Remove(path("missing")))

	f, err := fsys.Create(path("a"))
	note("create a", err)
	_, err = f.WriteAt([]byte("hello"), 0)
	note("write-at 0", err)
	_, err = f.WriteAt([]byte("XY"), 8) // past the end: a zero gap
	note("write-at 8", err)
	note("close a", f.Close())
	read("a")
	f, err = fsys.OpenWrite(path("a"))
	note("open-write a", err)
	_, err = f.WriteAt([]byte("J"), 0)
	note("overwrite", err)
	note("close a", f.Close())
	read("a")
	note("truncate a to 3", fsys.Truncate(path("a"), 3))
	read("a")
	note("extend a to 5", fsys.Truncate(path("a"), 5))
	read("a")
	f, err = fsys.Open(path("a"))
	note("open a read-only", err)
	_, err = f.WriteAt([]byte("no"), 0)
	note("write read-only", err)
	note("close a", f.Close())

	f, err = fsys.Create(path("b"))
	note("create b", err)
	f.Write([]byte("one"))
	f.Write([]byte("two"))
	note("close b", f.Close())
	read("b")
	names, err := fsys.ReadDir(dir)
	out = append(out, fmt.Sprintf("readdir: %v %s", names, outcome(err)))
	note("remove b", fsys.Remove(path("b")))
	read("b")
	f, err = fsys.Create(path("a")) // truncates
	note("recreate a", err)
	note("close a", f.Close())
	read("a")
	names, err = fsys.ReadDir(dir)
	out = append(out, fmt.Sprintf("readdir: %v %s", names, outcome(err)))
	note("syncdir", fsys.SyncDir(dir))
	return out
}

// TestMemFSMatchesOSFS runs the same script against the OS filesystem
// and a MemFS: every outcome must be the same.
func TestMemFSMatchesOSFS(t *testing.T) {
	want := fsScript(osFS{}, filepath.Join(t.TempDir(), "d"))
	got := fsScript(NewMemFS(), "/mem/d")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MemFS and the OS filesystem disagree:\nmem: %q\nos:  %q", got, want)
	}
}

// TestMemFSReadPrefixWhileExtending reads a file over and over while a
// writer extends it (run it with -race): every read sees a prefix of
// whole writes, never a torn or zero-filled extension.
func TestMemFSReadPrefixWhileExtending(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("/d")
	w, err := m.Create("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	const chunk, writes = 64, 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := bytes.Repeat([]byte{'x'}, chunk)
		for i := 0; i < writes; i++ {
			w.WriteAt(buf, int64(i*chunk))
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		r, err := m.Open("/d/f")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(r)
		r.Close()
		if err != nil || len(b)%chunk != 0 || bytes.Count(b, []byte{'x'}) != len(b) {
			t.Fatalf("read %d bytes (%v): not a prefix of whole writes", len(b), err)
		}
	}
	if n := m.Bytes(); n != chunk*writes {
		t.Fatalf("file holds %d bytes, want %d", n, chunk*writes)
	}
}

// TestFsyncOffFlushesEvery64Frames pins the wake rule of an FsyncOff
// log: Enqueue leaves the flusher asleep until 64 frames are queued —
// subscribers get every record from the queue meanwhile — and Close
// drains the rest.
func TestFsyncOffFlushesEvery64Frames(t *testing.T) {
	l := NewLog()
	for i := 1; i < lazyFlushFrames; i++ {
		l.Append(commitRec(uint64(i), "k", "v"))
	}
	time.Sleep(20 * time.Millisecond) // time for a flusher woken too early to run
	if b := l.Stats().Batches; b != 0 {
		t.Fatalf("%d batches after %d enqueues, want 0", b, lazyFlushFrames-1)
	}
	ch, cancel := subscribe(t, l, 0)
	got := collect(t, ch, lazyFlushFrames-1)
	cancel()
	for i, r := range got {
		if r.Seq != commitRec(uint64(i+1), "k", "v").Seq {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}

	l.Append(commitRec(lazyFlushFrames, "k", "v"))
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Batches != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("the 64th enqueue did not flush: %+v", l.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	const extra = 10
	for i := 1; i <= extra; i++ {
		l.Append(commitRec(uint64(lazyFlushFrames+i), "k", "v"))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenDir(l.Dir(), Config{FS: l.FS()})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if n := l2.RecoveredRecords(); n != lazyFlushFrames+extra {
		t.Fatalf("Close left %d records in the log, want %d", n, lazyFlushFrames+extra)
	}
}
