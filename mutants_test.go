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
// switch in the engine: the first seven entries reopen, one at a time, the
// atomicity windows that the interleaving harnesses park a transaction
// in, and a harness that no longer notices its window gone fails here.
// The rest pin tests that were once proved by a hand-made mutation, the
// rollback invariant (no version names an aborted transaction), the
// read-only safety scan and the §6.2 summary, the settled promise (a
// Commit the client does not wait for cannot fail), the load driver's
// abort accounting, and the dangerous-structure rule: commit ordering
// (§3.3.1), Theorem 3 and the prepared-pivot exception to the victim
// choice (§7.1), each broken alone in the one place it is written
// (internal/core/conflicts.go) and each caught by a deterministic test,
// and the B+-tree's rule that a key handed out is never rewritten.
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
		old: `		if latched {
			defer latch.RUnlock()
		} else {
			latch.RUnlock()
		}
`,
		new: `		latch.RUnlock()
`,
		pkg: ".",
		run: "^TestDetectionWindowWriteSkew$/^Get$",
	},
	{
		name: "batch read unlatched",
		file: "internal/storage/storage.go",
		old: `		err := rd.register(rd.tids[i].Page(), i, j)
		latch.RUnlock()
`,
		new: `		latch.RUnlock()
		err := rd.register(rd.tids[i].Page(), i, j)
`,
		pkg: ".",
		run: "^TestDetectionWindowWriteSkew$/^Scan$",
	},
	{
		name: "write unlatched",
		file: "internal/storage/storage.go",
		old: `	latch := &pg.latch
	fail := func(err error) (WriteResult, error) {
`,
		new: `	latch := &newPage().latch
	fail := func(err error) (WriteResult, error) {
`,
		pkg: ".",
		run: "^TestDetectionWindowWriteSkew$",
	},

	{
		name: "commit enqueued after walMu is dropped",
		file: "tx.go",
		old: `	if f := db.hooks.Trace; f != nil {
		f(trace.Event{Point: trace.WALEnqueue, XID: uint64(tx.xid), Seq: uint64(seq)})
	}
	db.log.Enqueue(tx.walPend, seq)
	db.maybeEmitMarkerLocked()
	return seq
`,
		new: `	db.maybeEmitMarkerLocked()
	db.walMu.Unlock()
	if f := db.hooks.Trace; f != nil {
		f(trace.Event{Point: trace.WALEnqueue, XID: uint64(tx.xid), Seq: uint64(seq)})
	}
	db.log.Enqueue(tx.walPend, seq)
	db.walMu.Lock()
	return seq
`,
		pkg: ".",
		run: "^TestWALEnqueueFollowsCSN$",
	},

	// --- The heap page. ---
	{
		name: "Insert changes headers unlatched",
		file: "internal/storage/storage.go",
		old: `	latch := &pg.latch
	var older int32
`,
		new: `	latch := &newPage().latch
	var older int32
`,
		pkg: "./internal/storage",
		run: "^TestInsertWaitsForPageLatch$",
	},
	{
		name: "compaction writes into the live arena",
		file: "internal/storage/page.go",
		old:  `arena := make([]byte, 0, bytes+bytes/2+need)`,
		new:  `arena := p.arena[:0]`,
		pkg:  "./internal/storage",
		run:  "^TestValueSurvivesCompaction$",
	},
	{
		name: "prune frees a version the horizon still needs",
		file: "internal/storage/page.go",
		old:  `st == mvcc.StatusCommitted && seq <= horizon {`,
		new:  `st == mvcc.StatusCommitted && seq <= horizon+1 {`,
		pkg:  "./internal/storage",
		run:  "^TestHeapMatchesModel$",
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

	// --- Rollback leaves nothing behind: no version names an aborted
	// transaction, so the commit log forgets aborts. ---
	{
		name: "failed check keeps its stamp",
		file: "internal/storage/storage.go",
		old: `				top := pg.line[slot]
				if !del {
					top = pg.hdrs[top].older
					pg.line[slot] = top
				}
				pg.hdrs[top].setXmax(0, 0)
`,
		new: "",
		pkg: ".",
		run: "^TestRollbackLeavesNoTrace$",
	},
	{
		name: "Insert records after its checks",
		file: "ops.go",
		old: `	tx.recordWrite(table, key, value, false, wr.Rewrite)
	for _, sp := range wr.Splits {
		tx.db.ssi.PageSplit(ti.pkName, int64(sp.Left), int64(sp.Right))
	}
	if tx.x != nil {
		// Heap inserts are checked at relation granularity (new
		// tuples cannot carry tuple locks); phantom conflicts are
		// caught by the index-page check.
		if err := tx.db.ssi.CheckWrite(tx.x, table, -1, ""); err != nil {
			return mapStorageErr(err)
		}
		if err := tx.db.ssi.CheckIndexInsert(tx.x, ti.pkName, int64(wr.IndexPage)); err != nil {
			return mapStorageErr(err)
		}
	}
	return tx.insertSecondaries(ti, key, value)
`,
		new: `	for _, sp := range wr.Splits {
		tx.db.ssi.PageSplit(ti.pkName, int64(sp.Left), int64(sp.Right))
	}
	if tx.x != nil {
		if err := tx.db.ssi.CheckWrite(tx.x, table, -1, ""); err != nil {
			return mapStorageErr(err)
		}
		if err := tx.db.ssi.CheckIndexInsert(tx.x, ti.pkName, int64(wr.IndexPage)); err != nil {
			return mapStorageErr(err)
		}
	}
	if err := tx.insertSecondaries(ti, key, value); err != nil {
		return err
	}
	tx.recordWrite(table, key, value, false, wr.Rewrite)
	return nil
`,
		pkg: ".",
		run: "^TestRollbackLeavesNoTrace$",
	},
	{
		name: "Abort keeps its record",
		file: "internal/mvcc/mvcc.go",
		old: `	delete(sh.active, xid)
	delete(sh.recs, xid)
`,
		new: `	delete(sh.active, xid)
`,
		pkg: "./internal/mvcc",
		run: "^TestAbortLeavesNoEntry$",
	},

	// --- The B+-tree's right edge and the write log. ---
	{
		name: "rightmost not moved on a split",
		file: "internal/btree/btree.go",
		old: `			t.rightmost = right
`,
		new: "",
		pkg: "./internal/btree",
		run: "^TestAppendPathMatchesDescent$",
	},
	{
		name: "append fills a leaf past degree",
		file: "internal/btree/btree.go",
		old:  `if r := t.rightmost; r.above(key) && len(r.ents) < degree {`,
		new:  `if r := t.rightmost; r.above(key) {`,
		pkg:  "./internal/btree",
		run:  "^TestAppendPathMatchesDescent$",
	},
	{
		// A key handed out views its leaf's arena; shifting the arena's
		// bytes to make room changes the keys readers hold.
		name: "leaf key arena rewritten in place on a middle insert",
		file: "internal/btree/btree.go",
		old: `		kb := make([]byte, 0, len(n.kb)+len(key))
		kb = append(kb, n.kb[:off]...)
		kb = append(kb, key...)
		n.kb = append(kb, n.kb[off:]...)
`,
		new: `		n.kb = append(n.kb, key...)
		copy(n.kb[off+uint32(len(key)):], n.kb[off:])
		copy(n.kb[off:], key)
`,
		pkg: "./internal/btree",
		run: "^TestIndexKeysSurviveInserts$",
	},
	{
		name: "Update and Delete never report Rewrite",
		file: "internal/storage/storage.go",
		old:  `wr := WriteResult{Page: tid.Page(), Rewrite: v.xmin == xid}`,
		new:  `wr := WriteResult{Page: tid.Page()}`,
		pkg:  ".",
		run:  "^TestOwnsMatchesReference$",
	},
	{
		name: "Insert never reports Rewrite",
		file: "internal/storage/storage.go",
		old:  `rewrite := older != none && (pg.hdrs[older].xmin == xid || pg.hdrs[older].xmax == xid)`,
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
		name: "checkpoint replay does not follow a superseding checkpoint",
		file: "internal/wal/checkpoint.go",
		old:  `if !stale || !errors.Is(err, iofs.ErrNotExist) {`,
		new:  `if true || !stale || !errors.Is(err, iofs.ErrNotExist) {`,
		pkg:  "./internal/wal",
		run:  "^TestReplayCheckpointSupersededBeforeOpen$",
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

	// --- The settled promise: a Commit not waited for cannot fail. ---
	{
		name: "Settled ignores safety",
		file: "tx.go",
		old:  `return tx.OnSafeSnapshot() && !tx.x.Doomed()`,
		new:  `return !tx.x.Doomed()`,
		pkg:  "./internal/server",
		run:  "^TestPreparedPivotFailsUnsafeReadOnlyCommit$",
	},
	{
		name: "client drops the settled Commit's answer unchecked",
		file: "internal/wire/client.go",
		old: `		if !resp.Status.OK() {
			return fmt.Errorf("wire: settled Commit of handle %d answered %v", p.h, resp.Status)
		}
		return nil
`,
		new: `		return nil
`,
		pkg: "./internal/wire",
		run: "^TestSettledCommitFailurePoisons$",
	},

	// --- The load driver's accounting. ---
	{
		name: "load driver counts write conflicts as dangerous aborts",
		file: "internal/workload/runner.go",
		old: `		case errors.Is(err, pgssi.ErrWriteConflict):
			d.writeConflicts.Add(1)
`,
		new: ``,
		pkg: "./internal/workload",
		run: "^TestRunAccounting$",
	},

	// --- The SSI state in the commit-log record (§4.2, §6.2). ---
	{
		name: "read-only Begin watches no writer",
		file: "internal/core/core.go",
		old:  `if !c.committed && !c.aborted {`,
		new:  `if false {`,
		pkg:  "./internal/core",
		run:  "^TestSafeSnapshotAfterConcurrentWritersFinish$",
	},
	{
		name: "summarization forgets the earliest out-conflict",
		file: "internal/core/lifecycle.go",
		old:  `m.mvcc.Attach(c.XID, summary(c.earliestOutConflictCommit))`,
		new:  `m.mvcc.Attach(c.XID, summary(0))`,
		pkg:  "./internal/core",
		run:  "^TestSummaryConflictOutViaMVCCLookup$",
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

	// --- The dangerous-structure rule (§3.3.1, §4.1, §5.4, §7.1). ---
	{
		name: "Theorem 3 dropped",
		file: "internal/core/conflicts.go",
		old:  `if !m.cfg.DisableReadOnlyOpt && t1.ReadOnly() && s3 > t1.SnapshotSeq {`,
		new:  `if false {`,
		pkg:  ".",
		run:  "^TestReadOnlyOptimizationAvoidsFalsePositive$",
	},
	{
		name: "commit order ignored for T1",
		file: "internal/core/conflicts.go",
		old: `		if t1.committed && s3 > t1.CommitSeq {
			return false
		}
`,
		new: ``,
		pkg: "./internal/core",
		run: "^TestCommitOrderingAvoidsFalsePositive$",
	},
	{
		name: "prepared pivot chosen as victim",
		file: "internal/core/conflicts.go",
		old:  `case pivot.abortable():`,
		new:  `case pivot != nil && !pivot.committed:`,
		pkg:  "./internal/core",
		run:  "^TestPreparedTransactionCannotBeVictim$",
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
