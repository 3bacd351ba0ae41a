package pgssi_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"pgssi"
	"pgssi/internal/wal"
)

// TestFuzzCrashRecoveryPrefix is the seeded history fuzzer's
// crash-recovery mode: each seeded history runs against a durable
// (OpenDir) database whose filesystem is a wal.FaultFS that silently
// drops every fsync after a seeded point — the lying-disk model, so the
// client sees every commit acknowledged while only a prefix of the log
// actually reaches the platter. The process state is then dropped
// (Crash truncates each file to its synced length, exactly what the
// page cache loses), the directory is reopened, and the recovered state
// is validated against the client-side oracle: it must equal the fold
// of some PREFIX of the committed transactions in acknowledgement
// order. A state explained by no prefix means recovery resurrected,
// lost, or tore a transaction in the middle of the sequence.
//
// (Acknowledgement order and WAL order coincide here because the fuzz
// scheduler is single-threaded: each commit's durability wait returns
// before the next commit starts. The WAL's dependency-ordering argument
// is what makes prefix folding meaningful in the first place.)
func TestFuzzCrashRecoveryPrefix(t *testing.T) {
	histories := 120
	if testing.Short() {
		histories = 30
	}
	if *slowFuzz {
		histories = 3000
	}
	for seed := 1; seed <= histories; seed++ {
		runCrashHistory(t, uint64(seed))
	}
}

func runCrashHistory(t *testing.T, seed uint64) {
	t.Helper()
	dir := t.TempDir()
	ffs := wal.NewFaultFS()
	db, err := pgssi.OpenDirWithHooks(dir, pgssi.Config{FsyncMode: pgssi.FsyncAlways}, pgssi.Hooks{WALFS: ffs})
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}
	if err := db.CreateTable("t"); err != nil {
		t.Fatalf("seed %d: create table: %v", seed, err)
	}
	// The crash point: after a seeded number of further fsyncs, the disk
	// starts lying. crashRng is separate from the history's rng so the
	// schedule stays identical to the in-memory fuzzer's for this seed.
	// A typical history takes roughly 5–15 fsyncs (table creation, seed
	// rows, each commit, quiescence markers), so this range lands the
	// crash inside the history on most seeds and past it on some —
	// both the truncated and the fully-recovered cases stay covered.
	crashRng := rand.New(rand.NewPCG(seed, 0xc4a5))
	ffs.DropSyncsAfter(crashRng.IntN(14))

	var acked []ackedCommit
	cyc := runFuzzHistoryOn(t, seed, pgssi.Serializable, db, &acked)
	if cyc != nil {
		t.Fatalf("seed %d: committed SSI execution has dependency cycle %v", seed, cyc)
	}

	// Quiesce the flusher so Crash races no in-flight write: a waited
	// append drains everything enqueued before it (single flusher, FIFO).
	_ = db.DurableWAL().Append(wal.Record{SafeSnapshot: true}).Wait()
	if err := ffs.Crash(); err != nil {
		t.Fatalf("seed %d: crash: %v", seed, err)
	}
	// The dead process's DB is simply abandoned — no Close, like a kill.

	re, err := pgssi.OpenDir(dir, pgssi.Config{})
	if err != nil {
		t.Fatalf("seed %d: recovery: %v", seed, err)
	}
	defer re.Close()
	recovered := readFuzzState(t, re)

	// Oracle: the recovered state must equal the fold of some prefix of
	// the acknowledged commits. Prefix 0 is the empty database (even the
	// table creation was lost).
	state := map[string]string{}
	if matchesFuzzState(recovered, state) {
		return
	}
	for i, c := range acked {
		for k, v := range c.writes {
			state[k] = v
		}
		if matchesFuzzState(recovered, state) {
			t.Logf("seed %d: recovered prefix of %d/%d commits", seed, i+1, len(acked))
			return
		}
	}
	t.Fatalf("seed %d: recovered state %v matches no prefix of the %d acknowledged commits %v",
		seed, recovered, len(acked), ackedSummary(acked))
}

// TestFuzzCrashRecoveryCheckpointTorn drives the crash point INTO the
// checkpoint itself: each seeded history runs to completion on an
// honest disk (every acknowledged commit is truly durable), then the
// disk starts lying partway into the checkpoint — after a seeded number
// of fsyncs, landing the "power loss" before the checkpoint file is
// durable, between it and the log barrier, or during segment GC. Whatever
// the stage, reopening must recover EXACTLY the full fold of the
// acknowledged commits: a checkpoint may be lost wholesale (it was
// never acknowledged), but it must never take a durable commit with it
// — GC'd segments whose removal never hit the platter must come back.
func TestFuzzCrashRecoveryCheckpointTorn(t *testing.T) {
	histories := 60
	if testing.Short() {
		histories = 15
	}
	if *slowFuzz {
		histories = 1500
	}
	for seed := 1; seed <= histories; seed++ {
		runCheckpointCrashHistory(t, uint64(seed))
	}
}

func runCheckpointCrashHistory(t *testing.T, seed uint64) {
	t.Helper()
	dir := t.TempDir()
	ffs := wal.NewFaultFS()
	db, err := pgssi.OpenDirWithHooks(dir, pgssi.Config{
		FsyncMode:      pgssi.FsyncAlways,
		WALSegmentSize: 512, // several rotations per history: the GC set is non-empty
	}, pgssi.Hooks{WALFS: ffs})
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}
	if err := db.CreateTable("t"); err != nil {
		t.Fatalf("seed %d: create table: %v", seed, err)
	}
	var acked []ackedCommit
	cyc := runFuzzHistoryOn(t, seed, pgssi.Serializable, db, &acked)
	if cyc != nil {
		t.Fatalf("seed %d: committed SSI execution has dependency cycle %v", seed, cyc)
	}

	// Everything acknowledged so far is durable. Now the disk lies: the
	// next 0..6 fsyncs succeed, every later one is silently dropped —
	// WriteCheckpoint takes fewer (checkpoint file, its dir entry, the
	// barrier, the GC dir sync), so the crash point sweeps the whole
	// checkpoint protocol across seeds, and some seeds crash after it.
	crashRng := rand.New(rand.NewPCG(seed, 0x5eed))
	ffs.DropSyncsAfter(crashRng.IntN(7))
	if _, err := db.Checkpoint(); err != nil && db.CurrentSeq() > 0 {
		t.Fatalf("seed %d: checkpoint: %v", seed, err)
	}
	if err := ffs.Crash(); err != nil {
		t.Fatalf("seed %d: crash: %v", seed, err)
	}
	// The dead process's DB is abandoned — no Close, like a kill.

	re, err := pgssi.OpenDir(dir, pgssi.Config{})
	if err != nil {
		t.Fatalf("seed %d: recovery: %v", seed, err)
	}
	defer re.Close()
	recovered := readFuzzState(t, re)

	// Unlike the lying-mid-history fuzzer, every commit here was durably
	// acknowledged before the disk started lying, so the oracle is the
	// FULL fold, not just some prefix.
	state := map[string]string{}
	for _, c := range acked {
		for k, v := range c.writes {
			state[k] = v
		}
	}
	if !matchesFuzzState(recovered, state) {
		t.Fatalf("seed %d: torn checkpoint lost durable commits: recovered %v, want fold of all %d acked commits %v",
			seed, recovered, len(acked), ackedSummary(acked))
	}
}

// readFuzzState reads every fuzz key from the recovered database; a
// missing table reads as the empty state.
func readFuzzState(t *testing.T, db *pgssi.DB) map[string]string {
	t.Helper()
	state := make(map[string]string)
	tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true})
	if err != nil {
		t.Fatalf("begin on recovered db: %v", err)
	}
	defer tx.Rollback()
	for _, k := range fuzzKeys {
		v, err := tx.Get("t", k)
		switch {
		case err == nil:
			state[k] = string(v)
		case errors.Is(err, pgssi.ErrNotFound) || errors.Is(err, pgssi.ErrNoTable):
			// absent
		default:
			t.Fatalf("get %q on recovered db: %v", k, err)
		}
	}
	return state
}

func matchesFuzzState(got, want map[string]string) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

func ackedSummary(acked []ackedCommit) []string {
	out := make([]string, 0, len(acked))
	for _, c := range acked {
		keys := make([]string, 0, len(c.writes))
		for k := range c.writes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, fmt.Sprintf("t%d%v", c.id, keys))
	}
	return out
}
