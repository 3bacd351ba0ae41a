package pgssi_test

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgssi"
)

// Kill-and-reopen crash harness. Each iteration re-executes the test
// binary as a child process that opens a durable database in a fresh
// directory and hammers it with small transactions, reporting each
// attempt on stdout (one line per event, atomic under PIPE_BUF):
//
//	I <id>   intent: the transaction is about to run
//	C <id>   its Commit returned success (the durability ack)
//	A <id>   it was rolled back (deliberately, or by the engine)
//
// The parent SIGKILLs the child at a random moment mid-workload —
// landing anywhere, including between a group-commit fsync and the
// ack, or mid-record in a segment write, leaving a torn tail — then
// reopens the directory and checks the durability contract:
//
//   - every acknowledged transaction (C) is fully present;
//   - every rolled-back transaction (A) is fully absent;
//   - an in-flight transaction (I with no verdict) is all-or-nothing;
//   - recovery itself never fails or panics, whatever the torn state.
//
// Each transaction writes two keys (a<id>, b<id>), so "fully" is a real
// atomicity check: recovering one key of a transaction without the
// other is a torn commit.
//
// Half the iterations run the child in checkpoint-heavy mode (tiny
// segments, aggressive -checkpoint-every), so the SIGKILL also lands
// inside checkpoint writes and segment GC; the recovered state must
// honor the same contract from a checkpoint plus the log suffix, or
// from the previous checkpoint when the kill tore the newest one.
var crashIters = flag.Int("crash-iters", 20, "kill-and-reopen crash harness iterations (nightly soak raises this)")

const (
	crashChildEnv = "PGSSI_CRASH_CHILD"
	crashDirEnv   = "PGSSI_CRASH_DIR"
	crashCkptEnv  = "PGSSI_CRASH_CKPT"
	crashTable    = "kv"
)

func TestMain(m *testing.M) {
	if os.Getenv(crashChildEnv) == "1" {
		crashChildMain()
		return
	}
	os.Exit(m.Run())
}

// crashChildMain is the workload process: it runs until killed.
func crashChildMain() {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		fmt.Fprintln(os.Stderr, "crash child: no data dir")
		os.Exit(1)
	}
	cfg := pgssi.Config{FsyncMode: pgssi.FsyncBatch}
	if os.Getenv(crashCkptEnv) == "1" {
		// Checkpoint-heavy mode: tiny segments and an aggressive trigger,
		// so the SIGKILL regularly lands mid-checkpoint or mid-GC and
		// recovery must fall back to the previous checkpoint.
		cfg.WALSegmentSize = 8 << 10
		cfg.CheckpointEvery = 16 << 10
	}
	db, err := pgssi.OpenDir(dir, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child: open: %v\n", err)
		os.Exit(1)
	}
	if err := db.CreateTable(crashTable); err != nil && !strings.Contains(err.Error(), "already exists") {
		fmt.Fprintf(os.Stderr, "crash child: create table: %v\n", err)
		os.Exit(1)
	}
	var out sync.Mutex
	emit := func(verdict byte, id uint64) {
		out.Lock()
		fmt.Fprintf(os.Stdout, "%c %d\n", verdict, id)
		out.Unlock()
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for n := uint64(0); ; n++ {
				id := w*1_000_000 + n
				emit('I', id)
				tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
				if err != nil {
					fmt.Fprintf(os.Stderr, "crash child: begin: %v\n", err)
					os.Exit(1)
				}
				ak, bk := crashKeys(id)
				if err := tx.Insert(crashTable, ak, []byte(crashValue(id, "a"))); err != nil {
					fmt.Fprintf(os.Stderr, "crash child: insert: %v\n", err)
					os.Exit(1)
				}
				if err := tx.Insert(crashTable, bk, []byte(crashValue(id, "b"))); err != nil {
					fmt.Fprintf(os.Stderr, "crash child: insert: %v\n", err)
					os.Exit(1)
				}
				// Every fifth transaction rolls back on purpose: the
				// uncommitted-must-stay-dead half of the contract.
				if n%5 == 4 {
					tx.Rollback()
					emit('A', id)
					continue
				}
				if err := tx.Commit(); err != nil {
					if pgssi.IsSerializationFailure(err) {
						emit('A', id)
						continue
					}
					fmt.Fprintf(os.Stderr, "crash child: commit: %v\n", err)
					os.Exit(1)
				}
				emit('C', id)
			}
		}(uint64(w))
	}
	wg.Wait()
}

func crashKeys(id uint64) (string, string) {
	return fmt.Sprintf("a%08d", id), fmt.Sprintf("b%08d", id)
}

func crashValue(id uint64, half string) string {
	return fmt.Sprintf("%s:%d", half, id)
}

func TestCrashKillAndReopen(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness spawns child processes; skipped in -short")
	}
	iters := *crashIters
	if *slowFuzz && iters == 20 {
		iters = 200
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(uint64(time.Now().UnixNano()), 0xdead))
	var totalCommits, totalKilledInFlight int
	for i := 0; i < iters; i++ {
		// Odd iterations run the checkpoint-heavy child: the kill can land
		// mid-checkpoint-write or mid-GC, and recovery must come up from
		// the previous checkpoint with the same durability contract.
		c, inflight := runCrashIteration(t, exe, i, rng, i%2 == 1)
		totalCommits += c
		totalKilledInFlight += inflight
	}
	if totalCommits == 0 {
		t.Fatal("no iteration produced a single acknowledged commit: the harness is vacuous")
	}
	t.Logf("%d iterations: %d acknowledged commits verified, %d in-flight at kill", iters, totalCommits, totalKilledInFlight)
}

// runCrashIteration spawns one child, kills it mid-workload, reopens
// its directory, and verifies the durability contract. It returns how
// many acknowledged commits were verified present and how many
// transactions were in flight (no verdict) at the kill.
func runCrashIteration(t *testing.T, exe string, iter int, rng *rand.Rand, checkpointed bool) (commits, inflight int) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), fmt.Sprintf("crash%03d", iter))

	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), crashChildEnv+"=1", crashDirEnv+"="+dir)
	if checkpointed {
		cmd.Env = append(cmd.Env, crashCkptEnv+"=1")
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Drain the child's event stream. verdicts holds the last state per
	// transaction id ('I' upgraded to 'C' or 'A').
	verdicts := make(map[uint64]byte)
	var mu sync.Mutex
	var sawCommit atomic.Bool
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			var verdict byte
			var id uint64
			if _, err := fmt.Sscanf(sc.Text(), "%c %d", &verdict, &id); err != nil {
				continue // partial final line at the kill point
			}
			mu.Lock()
			if verdict != 'I' || verdicts[id] == 0 {
				verdicts[id] = verdict
			}
			mu.Unlock()
			if verdict == 'C' {
				sawCommit.Store(true)
			}
		}
	}()

	// Let the workload reach at least one acknowledged commit, then
	// kill at a random point in the next stretch of work.
	deadline := time.Now().Add(20 * time.Second)
	for !sawCommit.Load() {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("iteration %d: no commit within 20s; child stderr: %s", iter, stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(time.Duration(rng.IntN(120)) * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("iteration %d: kill: %v", iter, err)
	}
	err = cmd.Wait()
	<-drained
	if err == nil || stderr.Len() > 0 {
		// A clean exit means the child hit an internal error and quit
		// before the kill (its stderr says why).
		t.Fatalf("iteration %d: child did not die by SIGKILL (err=%v): %s", iter, err, stderr.String())
	}

	// Recovery must succeed on whatever torn state the kill left.
	db, err := pgssi.OpenDir(dir, pgssi.Config{})
	if err != nil {
		t.Fatalf("iteration %d: recovery failed: %v", iter, err)
	}
	defer db.Close()

	tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true})
	if err != nil {
		t.Fatalf("iteration %d: begin on recovered db: %v", iter, err)
	}
	defer tx.Rollback()
	present := func(id uint64) (bool, bool) {
		ak, bk := crashKeys(id)
		av, aerr := tx.Get(crashTable, ak)
		bv, berr := tx.Get(crashTable, bk)
		if aerr != nil && !errors.Is(aerr, pgssi.ErrNotFound) && !errors.Is(aerr, pgssi.ErrNoTable) {
			t.Fatalf("iteration %d: get %s: %v", iter, ak, aerr)
		}
		if berr != nil && !errors.Is(berr, pgssi.ErrNotFound) && !errors.Is(berr, pgssi.ErrNoTable) {
			t.Fatalf("iteration %d: get %s: %v", iter, bk, berr)
		}
		if aerr == nil && string(av) != crashValue(id, "a") {
			t.Fatalf("iteration %d: %s holds %q, want %q", iter, ak, av, crashValue(id, "a"))
		}
		if berr == nil && string(bv) != crashValue(id, "b") {
			t.Fatalf("iteration %d: %s holds %q, want %q", iter, bk, bv, crashValue(id, "b"))
		}
		return aerr == nil, berr == nil
	}
	mu.Lock()
	defer mu.Unlock()
	for id, verdict := range verdicts {
		a, b := present(id)
		switch verdict {
		case 'C':
			if !a || !b {
				t.Fatalf("iteration %d: acknowledged transaction %d lost (a=%v b=%v): the durability contract is broken", iter, id, a, b)
			}
			commits++
		case 'A':
			if a || b {
				t.Fatalf("iteration %d: rolled-back transaction %d resurrected (a=%v b=%v)", iter, id, a, b)
			}
		case 'I':
			if a != b {
				t.Fatalf("iteration %d: in-flight transaction %d recovered torn (a=%v b=%v)", iter, id, a, b)
			}
			inflight++
		}
	}
	return commits, inflight
}
