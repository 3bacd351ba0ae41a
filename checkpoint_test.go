package pgssi_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/wal"
)

func ckptPut(t *testing.T, db *pgssi.DB, key, val string) {
	t.Helper()
	err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead}, func(tx *pgssi.Tx) error {
		return tx.Put("t", key, []byte(val))
	})
	if err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

func walFilesIn(t *testing.T, dir, suffix string) []string {
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

// TestDBCheckpointCompactsRecovery is the engine-level round trip: a
// history of repeated overwrites, a manual checkpoint, a short suffix,
// and a reopen that must see every row while replaying only the
// checkpoint image plus the suffix — not the full history.
func TestDBCheckpointCompactsRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := pgssi.OpenDir(dir, pgssi.Config{FsyncMode: pgssi.FsyncBatch, WALSegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	// 200 commits over 10 keys: the log holds 200 records, the state 10.
	const commits, keys = 200, 10
	for i := 0; i < commits; i++ {
		ckptPut(t, db, fmt.Sprintf("k%02d", i%keys), fmt.Sprintf("v%03d", i))
	}
	segsBefore := len(walFilesIn(t, dir, ".wal"))
	if segsBefore < 4 {
		t.Fatalf("want >= 4 segments before checkpoint, got %d", segsBefore)
	}

	info, err := db.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// The image batches row images, so record count is small: at least
	// the schema record plus one batch of rows.
	if info.Seq == 0 || info.Records < 2 {
		t.Fatalf("checkpoint info = %+v, want seq > 0 and >= 2 records (schema + row batch)", info)
	}
	st := db.WALStats()
	if st.Checkpoints != 1 || st.SegmentsGCed == 0 || st.GCFloorSeq == 0 {
		t.Fatalf("stats after checkpoint: %+v", st)
	}
	if got := len(walFilesIn(t, dir, ".wal")); got >= segsBefore {
		t.Fatalf("GC removed nothing: %d segments before, %d after", segsBefore, got)
	}
	// A second checkpoint with no intervening commits resolves against
	// the existing one instead of blocking or erroring.
	again, err := db.Checkpoint()
	if err != nil || again.Seq != info.Seq {
		t.Fatalf("idempotent re-checkpoint = %+v, %v, want seq %d", again, err, info.Seq)
	}

	// A short suffix after the checkpoint.
	for i := 0; i < 5; i++ {
		ckptPut(t, db, fmt.Sprintf("s%d", i), "suffix")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := pgssi.OpenDir(dir, pgssi.Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	// Recovery folded the checkpoint image plus the 5-commit suffix —
	// nowhere near the 200-commit history.
	if n := re.WALRecoveredRecords(); n < 2+5 || n >= commits/2 {
		t.Fatalf("recovered %d records, want checkpoint image + suffix, far below %d", n, commits)
	}
	if ci, ok := re.CheckpointInfo(); !ok || ci.Seq != info.Seq {
		t.Fatalf("reopened CheckpointInfo = %+v ok=%v, want seq %d", ci, ok, info.Seq)
	}
	tx, err := re.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	for k := 0; k < keys; k++ {
		// Final overwrite of key k in the loop above: the largest i < 200
		// with i % keys == k.
		want := fmt.Sprintf("v%03d", commits-keys+k)
		got, err := tx.Get("t", fmt.Sprintf("k%02d", k))
		if err != nil || string(got) != want {
			t.Fatalf("k%02d after recovery = %q, %v, want %q", k, got, err, want)
		}
	}
	for i := 0; i < 5; i++ {
		if got, err := tx.Get("t", fmt.Sprintf("s%d", i)); err != nil || string(got) != "suffix" {
			t.Fatalf("suffix row s%d = %q, %v", i, got, err)
		}
	}
	// New commits must take sequence numbers beyond the recovered
	// history, not reuse logged ones.
	seqBefore := re.CurrentSeq()
	ckptPut(t, re, "post", "recovery")
	if re.CurrentSeq() <= seqBefore {
		t.Fatalf("CurrentSeq did not advance past recovered history: %d -> %d", seqBefore, re.CurrentSeq())
	}
}

// TestCheckpointEveryAutoTrigger: with CheckpointEvery set, a sustained
// write load must checkpoint and GC on its own, keeping the segment
// count bounded instead of growing with history.
func TestCheckpointEveryAutoTrigger(t *testing.T) {
	dir := t.TempDir()
	db, err := pgssi.OpenDir(dir, pgssi.Config{
		FsyncMode:       pgssi.FsyncBatch,
		WALSegmentSize:  2048,
		CheckpointEvery: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	val := strings.Repeat("x", 64)
	deadline := time.Now().Add(15 * time.Second)
	i := 0
	for db.WALStats().Checkpoints < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint after %d commits: %+v", i, db.WALStats())
		}
		ckptPut(t, db, fmt.Sprintf("k%02d", i%16), val)
		i++
	}
	st := db.WALStats()
	if st.SegmentsGCed == 0 || st.GCFloorSeq == 0 || st.CheckpointSeq == 0 {
		t.Fatalf("auto checkpoints never GC'd: %+v", st)
	}
	// The oldest on-disk segment must sit above segment 1: the early log
	// has been truncated away.
	segs := walFilesIn(t, dir, ".wal")
	if len(segs) == 0 || segs[0] <= fmt.Sprintf("%016d.wal", 1) {
		t.Fatalf("first segment still on disk after GC: %v", segs)
	}
	// And the data survived it all.
	tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if got, err := tx.Get("t", "k00"); err != nil || len(got) == 0 {
		t.Fatalf("k00 after auto-checkpoint: %q, %v", got, err)
	}
}

// TestCloseWaitsForCheckpointWriter: the checkpoint writer runs in the
// background, creating the checkpoint and then removing the segments and
// the checkpoint it supersedes. Close must not return while it is still
// at it: whoever reopens the directory next lists it first, and a file
// that vanishes after the listing fails the open.
func TestCloseWaitsForCheckpointWriter(t *testing.T) {
	dir := t.TempDir()
	cfg := pgssi.Config{FsyncMode: pgssi.FsyncBatch, WALSegmentSize: 64 << 10}
	db, err := pgssi.OpenDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	// Enough rows that writing the checkpoint takes a while, with a
	// first checkpoint for the second one to supersede.
	load := func(round int) {
		for chunk := 0; chunk < 20; chunk++ {
			err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead}, func(tx *pgssi.Tx) error {
				for i := 0; i < 1000; i++ {
					if err := tx.Put("t", fmt.Sprintf("k%02d-%04d", chunk, i), []byte(fmt.Sprintf("round %d", round))); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	load(1)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	load(2)

	// Close as soon as the second checkpoint's file exists: its writer
	// has most of its work still ahead.
	go db.Checkpoint()
	for deadline := time.Now().Add(10 * time.Second); len(walFilesIn(t, dir, ".ckpt")) < 2; {
		if time.Now().After(deadline) {
			t.Fatal("second checkpoint never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	db.Close()

	listing := func() string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				t.Fatalf("%s vanished while the directory was being listed: %v", e.Name(), err)
			}
			fmt.Fprintf(&b, "%s %d\n", e.Name(), info.Size())
		}
		return b.String()
	}
	atClose := listing()
	time.Sleep(100 * time.Millisecond)
	if later := listing(); later != atClose {
		t.Fatalf("the directory changed after Close returned:\n%s--- then ---\n%s", atClose, later)
	}
	db, err = pgssi.OpenDir(dir, cfg)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	db.Close()
}

// failFS injects open/create failures into an otherwise real
// filesystem, to drive pgssi.OpenDir down its error paths.
type failFS struct {
	wal.FS
	failCreate    atomic.Bool
	opens         atomic.Int32
	failOpenAfter atomic.Int32 // fail the (n+1)th and later Opens; -1 = never
}

func newFailFS() *failFS {
	f := &failFS{FS: wal.NewFaultFS()}
	f.failOpenAfter.Store(-1)
	return f
}

func (f *failFS) Create(name string) (wal.File, error) {
	if f.failCreate.Load() {
		return nil, errors.New("failFS: create refused")
	}
	return f.FS.Create(name)
}

func (f *failFS) Open(name string) (wal.File, error) {
	if limit := f.failOpenAfter.Load(); limit >= 0 && f.opens.Add(1) > limit {
		return nil, errors.New("failFS: open refused")
	}
	return f.FS.Open(name)
}

// TestOpenDirFailureLeaksNothing pins the OpenDir error paths: whether
// the WAL fails to open or recovery fails mid-replay, the half-built
// engine (and its background goroutines) must be torn down, not leaked.
func TestOpenDirFailureLeaksNothing(t *testing.T) {
	base := t.TempDir()
	// Seed a directory with real history so reopen has something to
	// scan, load, and replay.
	seed := filepath.Join(base, "seed")
	db, err := pgssi.OpenDir(seed, pgssi.Config{FsyncMode: pgssi.FsyncAlways, WALSegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ckptPut(t, db, fmt.Sprintf("k%02d", i), "v")
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		ckptPut(t, db, fmt.Sprintf("k%02d", i), "v")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	goroutines := runtime.NumGoroutine()
	sawFailure := false

	// Path 1: the WAL itself fails to open (segment creation refused on
	// a fresh directory).
	{
		ffs := newFailFS()
		ffs.failCreate.Store(true)
		_, err := pgssi.OpenDirWithHooks(filepath.Join(base, "fresh"), pgssi.Config{}, pgssi.Hooks{WALFS: ffs})
		if err == nil {
			t.Fatal("OpenDir succeeded with create refused")
		}
		sawFailure = true
	}

	// Path 2 sweep: fail the k-th file open during recovery, for every k
	// up to more opens than recovery performs. Each attempt either fails
	// cleanly or succeeds (recovery tolerating the damage) — and either
	// way must release every goroutine it started.
	recoveryFailures := 0
	for k := int32(0); k <= 8; k++ {
		ffs := newFailFS()
		ffs.failOpenAfter.Store(k)
		re, err := pgssi.OpenDirWithHooks(seed, pgssi.Config{}, pgssi.Hooks{WALFS: ffs})
		if err != nil {
			recoveryFailures++
			continue
		}
		re.Close()
	}
	if !sawFailure || recoveryFailures == 0 {
		t.Fatalf("injected failures did not fire (create=%v, recovery=%d): the sweep is vacuous",
			sawFailure, recoveryFailures)
	}

	// goleak-style: the count must settle back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines grew from %d to %d across failed OpenDirs: engine leaked\n%s",
				goroutines, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoisonedWALSurfacesAtBegin: once the WAL is poisoned, new
// transactions are refused up front with ErrWALPoisoned — at Begin, and
// as StatusDurabilityLost at the session surface — instead of letting
// work proceed to a doomed commit.
func TestPoisonedWALSurfacesAtBegin(t *testing.T) {
	dir := t.TempDir()
	ffs := wal.NewFaultFS()
	db, err := pgssi.OpenDirWithHooks(dir, pgssi.Config{FsyncMode: pgssi.FsyncAlways}, pgssi.Hooks{WALFS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	ckptPut(t, db, "a", "1")

	ffs.FailSyncs(errors.New("disk on fire"))
	err = db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead}, func(tx *pgssi.Tx) error {
		return tx.Put("t", "b", []byte("2"))
	})
	if err == nil {
		t.Fatal("commit acknowledged over a failed fsync")
	}
	ffs.FailSyncs(nil)

	if !db.WALStats().Poisoned {
		t.Fatalf("WALStats not poisoned: %+v", db.WALStats())
	}
	if _, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead}); !errors.Is(err, pgssi.ErrWALPoisoned) {
		t.Fatalf("Begin on poisoned WAL = %v, want ErrWALPoisoned", err)
	}
	s := db.NewSession()
	defer s.Close()
	if _, st := s.Begin(pgssi.Serializable, false, false); st != pgssi.StatusDurabilityLost {
		t.Fatalf("Session.Begin on poisoned WAL = %v, want StatusDurabilityLost", st)
	}
	if got := pgssi.StatusDurabilityLost.Err(); !errors.Is(got, pgssi.ErrWALPoisoned) {
		t.Fatalf("StatusDurabilityLost.Err() = %v", got)
	}
	// A checkpoint must also refuse: GC over a poisoned log could drop
	// the only durable copy of acknowledged commits.
	if _, err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded on a poisoned WAL")
	}
}

// TestReplicaReseedFromDurableLog: a fresh replica attaching to a
// primary whose log has already been GC'd must detect the truncated
// resume position, seed itself from the checkpoint, and then follow the
// live stream — in-process, no network.
func TestReplicaReseedFromDurableLog(t *testing.T) {
	dir := t.TempDir()
	db, err := pgssi.OpenDir(dir, pgssi.Config{FsyncMode: pgssi.FsyncBatch, WALSegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ckptPut(t, db, fmt.Sprintf("k%02d", i%10), fmt.Sprintf("v%02d", i))
	}
	info, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	st := db.WALStats()
	if st.GCFloorSeq == 0 {
		t.Fatalf("checkpoint GC'd nothing, the reseed path won't trigger: %+v", st)
	}
	// Resuming from zero is now below the floor.
	if _, _, err := db.DurableWAL().SubscribeFrom(0); !errors.Is(err, wal.ErrSeqTruncated) {
		t.Fatalf("SubscribeFrom(0) after GC = %v, want ErrSeqTruncated", err)
	}

	rep := pgssi.NewReplica(db.DurableWAL())
	defer rep.Close()

	want := db.CurrentSeq()
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedSeq() < want {
		if rep.Err() != nil {
			t.Fatalf("replica halted instead of re-seeding: %v", rep.Err())
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, want %d", rep.AppliedSeq(), want)
		}
		time.Sleep(time.Millisecond)
	}
	if rep.AppliedSeq() < uint64(info.Seq) || rep.SafeSeq() < uint64(info.Seq) {
		t.Fatalf("reseeded replica positions applied=%d safe=%d, want >= checkpoint seq %d",
			rep.AppliedSeq(), rep.SafeSeq(), info.Seq)
	}

	// Live commits after the reseed still flow.
	for i := 0; i < 5; i++ {
		ckptPut(t, db, fmt.Sprintf("live%d", i), "after-reseed")
	}
	want = db.CurrentSeq()
	for rep.AppliedSeq() < want {
		if time.Now().After(deadline) {
			t.Fatalf("replica did not follow live stream past reseed: at %d, want %d", rep.AppliedSeq(), want)
		}
		time.Sleep(time.Millisecond)
	}

	// Row-for-row convergence on a safe snapshot.
	tx, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true, WaitSafe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if !tx.OnSafeSnapshot() {
		t.Fatal("reseeded replica read not on a safe snapshot")
	}
	ptx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ptx.Rollback()
	rows := 0
	if err := ptx.Scan("t", "", "", func(k string, v []byte) bool {
		got, gerr := tx.Get("t", k)
		if gerr != nil || string(got) != string(v) {
			t.Fatalf("replica diverged at %q: %q (%v) vs primary %q", k, got, gerr, v)
		}
		rows++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("primary scan saw no rows: the convergence check is vacuous")
	}
}

// TestMemoryLogBoundedByCheckpoints: an in-memory database's log is
// bounded by checkpoints as a disk log is — its segments and the bytes
// its MemFS holds stay under a bound that does not grow with the number
// of commits — and a replica that starts at the end, below the GC floor,
// re-seeds from the checkpoint and converges.
func TestMemoryLogBoundedByCheckpoints(t *testing.T) {
	const commits, keys = 20000, 100
	log := wal.NewLog()
	mem := log.FS().(*wal.MemFS)
	db := pgssi.Open(pgssi.Config{CheckpointEvery: 64 << 10})
	defer db.Close()
	mustExec(t, db.AttachWAL(log))
	mustExec(t, db.CreateTable("t"))

	// 1 MiB segments: ~300 bytes of log per commit would fill seven of
	// them without checkpoints.
	const maxSegments, maxBytes = 3, 3<<20 + 256<<10
	value := strings.Repeat("v", 256)
	for i := 0; i < commits; i++ {
		ckptPut(t, db, fmt.Sprintf("k%03d", i%keys), value)
		if i%1000 != 999 {
			continue
		}
		if st := db.WALStats(); st.Segments > maxSegments {
			t.Fatalf("after %d commits: %d segments, want <= %d (%+v)", i+1, st.Segments, maxSegments, st)
		}
		if n := mem.Bytes(); n > maxBytes {
			t.Fatalf("after %d commits: the log holds %d bytes, want <= %d", i+1, n, maxBytes)
		}
	}
	st := db.WALStats()
	if st.Checkpoints == 0 || st.SegmentsGCed == 0 {
		t.Fatalf("no checkpoint GC'd a segment: %+v", st)
	}
	if _, _, err := log.SubscribeFrom(0); !errors.Is(err, wal.ErrSeqTruncated) {
		t.Fatalf("SubscribeFrom(0) = %v, want ErrSeqTruncated", err)
	}

	rep := pgssi.NewReplica(log)
	defer rep.Close()
	want := db.CurrentSeq()
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedSeq() < want {
		if rep.Err() != nil {
			t.Fatalf("replica halted instead of re-seeding: %v", rep.Err())
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, want %d", rep.AppliedSeq(), want)
		}
		time.Sleep(time.Millisecond)
	}
	if n, _ := rep.AppliedRecords(); n >= commits {
		t.Fatalf("replica applied %d records: it replayed the history instead of the checkpoint", n)
	}
	rtx, err := rep.BeginReadOnly(pgssi.ReplicaTxOptions{Serializable: true, WaitSafe: true})
	mustExec(t, err)
	defer rtx.Rollback()
	ptx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true})
	mustExec(t, err)
	defer ptx.Rollback()
	rows := 0
	mustExec(t, ptx.Scan("t", "", "", func(k string, v []byte) bool {
		if got, err := rtx.Get("t", k); err != nil || string(got) != string(v) {
			t.Fatalf("replica diverged at %q: %q (%v)", k, got, err)
		}
		rows++
		return true
	}))
	if rows != keys {
		t.Fatalf("primary holds %d rows, want %d", rows, keys)
	}
}
