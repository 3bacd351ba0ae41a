//go:build !race

package pgssi_test

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The mutation table: each entry is a deliberate fault, written as an
// exact edit of one source file, and the tests that must catch it
// (mutation analysis, DeMillo, Lipton & Sayward). TestMutants applies
// each entry to a copy of the module and requires the named tests to
// fail there. This is how the engine's fences are proved without a
// switch in the engine: the first six entries reopen, one at a time, the
// atomicity windows that the interleaving harnesses park a transaction
// in, and a harness that no longer notices its window gone fails here.
// The rest pin tests that were once proved by a hand-made mutation.
//
// A new fence lands with its entry instead of a switch (docs/invariants.md).

// mutant is one entry of the table.
type mutant struct {
	name string
	file string // path from the module root
	old  string // must occur exactly once in file
	new  string // replaces old
	pkg  string // package the killing tests are in
	run  string // go test -run pattern selecting them
}

var mutants = []mutant{
	// --- The fences (§5.4, §4.2, §5.2). ---
	{
		name: "Commit unfenced",
		file: "internal/core/lifecycle.go",
		old: `	x.edgeMu.Lock()
	if m.fastCommitEligibleLocked(x) {
		m.trace(trace.PreCommit, x.XID)
		seq := commitFn()
		x.markCommittedLocked(seq)
		x.edgeMu.Unlock()
		m.finishCommitFast(x)
		return nil
	}
	x.edgeMu.Unlock()

	m.mu.Lock()
	if err := m.preCommitCheckLocked(x); err != nil {
		m.mu.Unlock()
		return err
	}
	m.trace(trace.PreCommit, x.XID)
	seq := commitFn()
`,
		new: `	x.edgeMu.Lock()
	fast := m.fastCommitEligibleLocked(x)
	x.edgeMu.Unlock()
	if !fast {
		m.mu.Lock()
		err := m.preCommitCheckLocked(x)
		m.mu.Unlock()
		if err != nil {
			return err
		}
	}
	m.trace(trace.PreCommit, x.XID)
	m.mu.Lock()
	seq := commitFn()
`,
		pkg: ".",
		run: "^TestLifecyclePreCommitWindowWriteSkew$",
	},
	{
		name: "read-only Begin unfenced",
		file: "internal/core/core.go",
		old: `	x.SnapshotSeq = snap.SeqNo
	m.trace(trace.Begin, x.XID)
	m.registerROWatchesLocked(x)
`,
		new: `	x.SnapshotSeq = snap.SeqNo
	m.mu.Unlock()
	m.trace(trace.Begin, x.XID)
	m.mu.Lock()
	m.registerROWatchesLocked(x)
`,
		pkg: ".",
		run: "^TestLifecycleReadOnlyBeginWindow$",
	},
	{
		name: "CSN assigned before publication",
		file: "internal/mvcc/mvcc.go",
		old: `	m.trace(trace.CSNPublish, xid)
	sh.mu.Lock()
	rec := finishableLocked(sh, xid, "Commit")
	seq := SeqNo(m.assignedSeq.Add(1))
`,
		new: `	sh.mu.Lock()
	rec := finishableLocked(sh, xid, "Commit")
	sh.mu.Unlock()
	seq := SeqNo(m.assignedSeq.Add(1))
	m.trace(trace.CSNPublish, xid)
	sh.mu.Lock()
`,
		pkg: ".",
		run: "^TestCSNWindowFencedAllOrNothing$",
	},
	{
		name: "Table.Read unlatched",
		file: "internal/storage/storage.go",
		old: `			latch := t.latches.latch(row.page)
			latch.RLock()
`,
		new: `			latch := new(sync.RWMutex)
			latch.RLock()
`,
		pkg: ".",
		run: "^TestDetectionWindowWriteSkew$/^Get$",
	},
	{
		name: "batch read unlatched",
		file: "internal/storage/storage.go",
		old:  `		latch := t.latches.latch(page)`,
		new:  `		latch := new(sync.RWMutex)`,
		pkg:  ".",
		run:  "^TestDetectionWindowWriteSkew$/^Scan$",
	},
	{
		name: "write unlatched",
		file: "internal/storage/storage.go",
		old: `	latch := t.latches.latch(row.page)
	unlock := func() {
`,
		new: `	latch := new(sync.RWMutex)
	unlock := func() {
`,
		pkg: ".",
		run: "^TestDetectionWindowWriteSkew$",
	},

	// --- Snapshot visibility and commit-log truncation. ---
	{
		name: "SeesCommitted off by one",
		file: "internal/mvcc/mvcc.go",
		old:  `return seq == InvalidSeqNo || seq <= s.SeqNo`,
		new:  `return seq == InvalidSeqNo || seq < s.SeqNo`,
		pkg:  "./internal/mvcc",
		run:  "^TestQuickSnapshotVisibility$",
	},
	{
		name: "AutoTruncate ignores the horizon",
		file: "internal/mvcc/mvcc.go",
		old:  `case rec.status == StatusCommitted && rec.commitSeq <= horizon:`,
		new:  `case rec.status == StatusCommitted:`,
		pkg:  "./internal/mvcc",
		run:  "^TestQuickSnapshotVisibility$",
	},
	{
		name: "truncated commit resolves aborted",
		file: "internal/mvcc/mvcc.go",
		old: `		if xid < TxID(m.logFloor.Load()) {
			return StatusCommitted, InvalidSeqNo
`,
		new: `		if xid < TxID(m.logFloor.Load()) {
			return StatusAborted, InvalidSeqNo
`,
		pkg: "./internal/mvcc",
		run: "^TestQuickSnapshotVisibility$",
	},

	// --- The B+-tree's right edge and the write log. ---
	{
		name: "rightmost not moved on a split",
		file: "internal/btree/btree.go",
		old: `		if n == t.rightmost {
			t.rightmost = right
		}
`,
		new: "",
		pkg: "./internal/btree",
		run: "^TestAppendPathMatchesDescent$",
	},
	{
		name: "append fills a leaf past degree",
		file: "internal/btree/btree.go",
		old:  `if r := t.rightmost; r.above(key) && len(r.keys) < degree {`,
		new:  `if r := t.rightmost; r.above(key) {`,
		pkg:  "./internal/btree",
		run:  "^TestAppendPathMatchesDescent$",
	},
	{
		name: "Update and Delete never report Rewrite",
		file: "internal/storage/storage.go",
		old:  `wr := WriteResult{Page: row.page, Rewrite: v.Xmin == xid}`,
		new:  `wr := WriteResult{Page: row.page}`,
		pkg:  ".",
		run:  "^TestOwnsMatchesReference$",
	},
	{
		name: "Insert never reports Rewrite",
		file: "internal/storage/storage.go",
		old:  `rewrite := older != nil && (older.Xmin == xid || older.Xmax == xid)`,
		new:  `rewrite := false`,
		pkg:  ".",
		run:  "^TestWriteSetCommitRecordAndReplay$",
	},

	// --- The log and the server. ---
	{
		name: "FsyncOff flushes every frame",
		file: "internal/wal/flush.go",
		old:  `len(l.pending) >= lazyFlushFrames ||`,
		new:  `len(l.pending) >= 1 ||`,
		pkg:  "./internal/wal",
		run:  "^TestFsyncOffFlushesEvery64Frames$",
	},
	{
		name: "server answers each request of a burst alone",
		file: "internal/server/server.go",
		old:  `if wire.FrameBuffered(c.br) && len(c.out) < maxHeldAnswers {`,
		new:  `if false {`,
		pkg:  "./internal/server",
		run:  "^(TestDrainAnswersBufferedRequests|TestOneSyscallPerFrame)$",
	},
	{
		name: "failed queued Put leaves its transaction open",
		file: "internal/server/server.go",
		old:  `if !st.OK() && req.AbortOnError {`,
		new:  `if false {`,
		pkg:  "./internal/server",
		run:  "^(TestQueuedPutConflictRollsBack|TestQueuedFailureGoesToItsHandle)$",
	},

	// --- Reclamation and the S2PL read path. ---
	{
		name: "summarizeOnPressure never skips its pass",
		file: "internal/core/reclaim.go",
		old:  `if h := m.mvcc.OldestSnapshot(); uint64(h) > m.rec.passHorizon.Load() || m.sweepWanted() {`,
		new:  `if h := m.mvcc.OldestSnapshot(); true {`,
		pkg:  ".",
		run:  "^TestSummarizeUnderPinnedHorizonAllocs$",
	},
	{
		name: "S2PL secondary scan skips the stale-entry filter",
		file: "ops.go",
		old:  `}, si.matches, fn)`,
		new:  `}, nil, fn)`,
		pkg:  ".",
		run:  "^TestReadPathsAgree$",
	},
}

// TestMutants runs every entry of the table, GOMAXPROCS at a time (the
// default -parallel), each in its own copy of the module: the source tree
// is never written. An entry is killed when its tests fail or panic. One
// that survives, no longer applies, or does not build fails the test.
// The copies build with -trimpath: without it each copy's directory is
// part of every package's build-cache key, and each entry would recompile
// the whole module instead of the packages its edit touches.
func TestMutants(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the mutation table needs the go command: %v", err)
	}
	src := readModule(t)
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			if _, ok := src[m.file]; !ok {
				t.Fatalf("table error: no file %s", m.file)
			}
			dir := t.TempDir()
			for name, data := range src {
				if name == m.file {
					if n := bytes.Count(data, []byte(m.old)); n != 1 {
						t.Fatalf("table error: old occurs %d times in %s, want exactly once", n, m.file)
					}
					data = bytes.Replace(data, []byte(m.old), []byte(m.new), 1)
				}
				path := filepath.Join(dir, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cmd := exec.Command(goCmd, "test", "-trimpath", "-vet=off", "-count=1", "-timeout", "120s", "-run", m.run, m.pkg)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			switch {
			case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
				t.Fatalf("table error: the mutant does not build:\n%s", out)
			case err == nil && bytes.Contains(out, []byte("no tests to run")):
				t.Fatalf("table error: -run %s selects no test in %s", m.run, m.pkg)
			case err == nil:
				t.Fatalf("survived: %s in %s passes with the mutation applied", m.run, m.pkg)
			case bytes.Contains(out, []byte("--- FAIL")) || bytes.Contains(out, []byte("panic:")):
				t.Logf("killed:\n%s", failures(out))
			default:
				t.Fatalf("table error: go test failed without a test failing (%v):\n%s", err, out)
			}
		})
	}
}

// readModule reads what a copy of the module needs to build and test:
// go.mod, every .go file, and every testdata directory whole. Keys are
// slash-separated paths from the module root.
func readModule(t *testing.T) map[string][]byte {
	t.Helper()
	src := make(map[string][]byte)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		inTestdata := strings.Contains("/"+filepath.ToSlash(path), "/testdata/")
		if !inTestdata && path != "go.mod" && !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		src[filepath.ToSlash(path)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// failures picks out of go test's output the lines that say what failed:
// the FAIL lines, panics, and the messages tests reported.
func failures(out []byte) string {
	var b strings.Builder
	for _, line := range strings.Split(string(out), "\n") {
		l := strings.TrimSpace(line)
		if strings.HasPrefix(l, "--- FAIL") || strings.HasPrefix(l, "panic:") || strings.Contains(l, "_test.go:") {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
