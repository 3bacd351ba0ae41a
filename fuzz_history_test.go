package pgssi_test

import (
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"

	"pgssi"
	"pgssi/internal/graphcheck"
)

// A randomized serializability fuzzer: seeded generation of small
// concurrent histories (3–5 transactions over 4 keys, mixed Get / Scan /
// Put / Delete), executed at the Serializable level with a random
// interleaving, with every committed transaction's reads and writes
// recorded and the resulting multiversion history graph checked for
// cycles by the internal/graphcheck offline oracle. Any cycle among
// committed SSI transactions is a serializability bug.
//
// The driver is single-threaded and steps transactions according to a
// seeded schedule, which keeps every history fully deterministic and
// reproducible from its seed. Write-write blocking (a write to a key
// held by another in-flight writer would park the scheduler on the
// tuple lock) is sidestepped by degrading such a write to a read; the
// in-progress-blocking path is exercised by the concurrency stress
// tests instead. First-updater-wins conflicts against *committed*
// writers, all rw-antidependency shapes, and doomed-transaction aborts
// occur naturally and frequently.
//
// The generated mix also covers the lifecycle paths the plain
// read/write shape never reaches:
//
//   - declared READ ONLY transactions (writes degrade to reads), whose
//     safety watches resolve mid-schedule as concurrent read/write
//     transactions finish — exercising markSafeLocked, the mid-run
//     SIREAD drop, and the safe-snapshot read path under concurrency;
//   - two-phase transactions that Prepare at the end of their program
//     and only CommitPrepared (or occasionally RollbackPrepared) at a
//     later schedule step, so other transactions' conflict checks run
//     against the prepared state in between;
//   - on some seeds, one SERIALIZABLE READ ONLY DEFERRABLE transaction
//     running on a background goroutine (its Begin blocks for a safe
//     snapshot, so it cannot be stepped by the deterministic
//     scheduler). Its interleaving is timing-dependent, but its reads
//     record exactly the versions observed, so the oracle validation
//     is unaffected.
//
// Every plain Commit also checks the settled promise the wire protocol
// relies on: a transaction the engine calls settled before its Commit
// (read-only, and below Serializable or on a safe snapshot) commits.
//
// Values encode their writer so reads can name the version they saw:
// transaction h writes strconv(h), the seed data is "0" (graphcheck's
// initial version). Deletes are modelled as delete+reinsert inside the
// same transaction — a real tx.Delete exercising the tombstone write
// path, followed by a reinsert so the key stays readable — and recorded
// as a single write, which keeps read-modify-write histories well-formed
// for graphcheck.Build.

var slowFuzz = flag.Bool("slow", false, "run the fuzzer with its long budget (nightly CI)")

var fuzzKeys = [4]string{"a", "b", "c", "d"}

// TestFuzzSerializableHistories runs every seeded history at the
// Serializable level and requires its committed execution to be free of
// dependency cycles. Which transactions commit is not run-to-run
// deterministic — the epoch reclaimer's background passes race the
// schedule — but every outcome must be serializable, and graphcheck
// checks each history directly.
func TestFuzzSerializableHistories(t *testing.T) {
	histories := 1000
	if testing.Short() {
		histories = 150
	}
	if *slowFuzz {
		histories = 20000
	}
	for seed := 1; seed <= histories; seed++ {
		if cyc := runFuzzHistory(t, uint64(seed), pgssi.Serializable); cyc != nil {
			t.Fatalf("seed %d: committed SSI execution has dependency cycle %v", seed, cyc)
		}
	}
}

// TestFuzzOracleDetectsSnapshotIsolationAnomalies is the oracle's
// self-test: the same seeded histories run at plain snapshot isolation
// (RepeatableRead) must produce dependency cycles — write skew — in some
// of them. If the recorder or graph builder ever went blind, this test
// would catch it before the Serializable run above became vacuous.
func TestFuzzOracleDetectsSnapshotIsolationAnomalies(t *testing.T) {
	cycles := 0
	const histories = 300
	for seed := 1; seed <= histories; seed++ {
		if cyc := runFuzzHistory(t, uint64(seed), pgssi.RepeatableRead); cyc != nil {
			cycles++
		}
	}
	if cycles == 0 {
		t.Fatalf("no dependency cycle in %d snapshot-isolation histories: the oracle or recorder lost its teeth", histories)
	}
	t.Logf("oracle found cycles in %d/%d snapshot-isolation histories", cycles, histories)
}

// TestFuzzHistoriesReplay: with the reclaimer run inline, a seeded
// history is a function of its seed — which transactions commit, and
// what each one read. The seeds are ones whose verdicts once followed Go's
// map order (a prepared pivot with no abortable T1, in the pre-commit
// check and in the victim choice), so two replays disagreed.
func TestFuzzHistoriesReplay(t *testing.T) {
	for _, seed := range []uint64{280, 5502, 5830} {
		var first string
		for run := 0; run < 8; run++ {
			db := pgssi.OpenWithHooks(pgssi.Config{}, pgssi.Hooks{ReclaimInline: true})
			mustExec(t, db.CreateTable("t"))
			txns, deferrable := playFuzzHistory(t, seed, pgssi.Serializable, db, nil)
			var b strings.Builder
			for _, f := range txns {
				fmt.Fprintf(&b, "T%d committed=%v ops=%v\n", f.id, f.committed, f.ops)
			}
			if deferrable != nil {
				// What it read depends on when its safe snapshot came.
				fmt.Fprintf(&b, "deferrable committed=%v\n", deferrable.committed)
			}
			mustExec(t, db.Close())
			if run == 0 {
				first = b.String()
			} else if got := b.String(); got != first {
				t.Fatalf("seed %d: replay %d differs from the first:\n%s\nfirst:\n%s", seed, run, got, first)
			}
		}
	}
}

// fop is one generated operation.
type fop struct {
	kind int // 0 = Get, 1 = Scan, 2 = Put, 3 = Delete(+reinsert)
	key  string
}

// ftxn is one fuzz transaction's runtime state and recorded history.
type ftxn struct {
	tx        *pgssi.Tx
	id        uint64
	prog      []fop
	next      int
	ops       []graphcheck.Op
	wrote     map[string]bool
	readOnly  bool
	twoPC     bool
	prepared  bool
	aborted   bool
	committed bool
}

// ackedCommit records one committed transaction's acknowledged write
// set, in commit-acknowledgement order — the oracle sequence for the
// crash-recovery mode: a recovered state must equal the fold of some
// prefix of these.
type ackedCommit struct {
	id     uint64
	writes map[string]string
}

// runFuzzHistory executes one seeded history at the given isolation
// level on a fresh database. It returns any dependency cycle among the
// committed transactions (nil for a serializable outcome).
func runFuzzHistory(t *testing.T, seed uint64, level pgssi.IsolationLevel) []uint64 {
	t.Helper()
	db := pgssi.Open(pgssi.Config{})
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	return runFuzzHistoryOn(t, seed, level, db, nil)
}

// runFuzzHistoryOn runs the seeded history against an existing database
// with table "t" already created (the crash-recovery mode passes a
// durable OpenDir database). When acked is non-nil, every committed
// transaction's write set is appended in commit-acknowledgement order.
func runFuzzHistoryOn(t *testing.T, seed uint64, level pgssi.IsolationLevel, db *pgssi.DB, acked *[]ackedCommit) []uint64 {
	t.Helper()
	txns, deferrable := playFuzzHistory(t, seed, level, db, acked)
	var committed []graphcheck.Txn
	for _, f := range txns {
		if f.committed {
			committed = append(committed, graphcheck.Txn{ID: f.id, Ops: f.ops})
		}
	}
	if deferrable != nil && deferrable.committed {
		committed = append(committed, graphcheck.Txn{ID: deferrable.id, Ops: deferrable.ops})
	}
	g, err := graphcheck.Build(committed)
	if err != nil {
		t.Fatalf("seed %d: malformed recorded history: %v", seed, err)
	}
	return g.Cycle()
}

// playFuzzHistory runs the seeded history against db and returns its
// scheduled transactions and its deferrable one (nil if the seed has
// none), each finished, with what it read and wrote.
func playFuzzHistory(t *testing.T, seed uint64, level pgssi.IsolationLevel, db *pgssi.DB, acked *[]ackedCommit) (txns []*ftxn, deferrable *ftxn) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x5551))
	init, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range fuzzKeys {
		mustExec(t, init.Insert("t", k, []byte("0")))
	}
	mustExec(t, init.Commit())
	if acked != nil {
		w := make(map[string]string, len(fuzzKeys))
		for _, k := range fuzzKeys {
			w[k] = "0"
		}
		*acked = append(*acked, ackedCommit{id: 0, writes: w})
	}

	ntxns := 3 + rng.IntN(3)
	txns = make([]*ftxn, ntxns)
	for i := range txns {
		nops := 2 + rng.IntN(4)
		prog := make([]fop, nops)
		for j := range prog {
			prog[j] = fop{kind: rng.IntN(4), key: fuzzKeys[rng.IntN(len(fuzzKeys))]}
		}
		f := &ftxn{id: uint64(i + 1), prog: prog, wrote: make(map[string]bool)}
		// Lifecycle mix: ~20% declared read-only, ~17% two-phase
		// (Serializable only — 2PC under SSI is what moves the
		// pre-commit check to Prepare).
		switch roll := rng.IntN(12); {
		case roll < 2:
			f.readOnly = true
		case roll < 4 && level == pgssi.Serializable:
			f.twoPC = true
		}
		tx, err := db.Begin(pgssi.TxOptions{Isolation: level, ReadOnly: f.readOnly})
		if err != nil {
			t.Fatal(err)
		}
		f.tx = tx
		txns[i] = f
	}

	// On some seeds, one deferrable read-only transaction runs on a
	// background goroutine: its Begin blocks until a safe snapshot is
	// available, which resolves as the scheduled transactions finish.
	var deferrableDone chan struct{}
	if level == pgssi.Serializable && rng.IntN(3) == 0 {
		deferrable = &ftxn{id: uint64(ntxns + 1), wrote: make(map[string]bool)}
		deferrableDone = make(chan struct{})
		go func() {
			defer close(deferrableDone)
			tx, err := db.Begin(pgssi.TxOptions{
				Isolation: pgssi.Serializable, ReadOnly: true, Deferrable: true,
			})
			if err != nil {
				t.Errorf("seed %d: deferrable begin: %v", seed, err)
				return
			}
			if !tx.OnSafeSnapshot() {
				t.Errorf("seed %d: deferrable transaction not on a safe snapshot", seed)
			}
			for _, k := range fuzzKeys {
				v, err := tx.Get("t", k)
				if err != nil {
					t.Errorf("seed %d: deferrable get %q: %v", seed, k, err)
					return
				}
				deferrable.ops = append(deferrable.ops, graphcheck.Op{Key: k, Saw: parseFuzzVersion(t, v)})
			}
			if !pgssi.TxSettled(tx) {
				t.Errorf("seed %d: deferrable transaction not settled before its commit", seed)
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("seed %d: deferrable commit: %v", seed, err)
				return
			}
			deferrable.committed = true
		}()
	}

	// activeWriter names the in-flight transaction holding each key's
	// tuple write lock, so the scheduler never dispatches a write that
	// would block on it.
	activeWriter := make(map[string]*ftxn)
	remaining := ntxns
	for remaining > 0 {
		f := txns[rng.IntN(ntxns)]
		if f.aborted || f.committed {
			continue
		}
		if f.next == len(f.prog) {
			if fuzzFinish(t, db, f, rng, activeWriter, acked) {
				remaining--
			}
			continue
		}
		op := f.prog[f.next]
		f.next++
		fuzzStep(t, seed, f, op, activeWriter)
		if f.aborted {
			remaining--
		}
	}
	if deferrable != nil {
		<-deferrableDone
	}
	return txns, deferrable
}

// fuzzAbort rolls the transaction back and releases its write claims.
func fuzzAbort(f *ftxn, activeWriter map[string]*ftxn, rolledBack bool) {
	if !rolledBack {
		f.tx.Rollback()
	}
	f.aborted = true
	for k, w := range activeWriter {
		if w == f {
			delete(activeWriter, k)
		}
	}
}

// fuzzFinish advances a transaction that exhausted its program toward
// its end state and reports whether it finished for good. Plain
// transactions commit (a serialization failure aborts them instead).
// Two-phase transactions Prepare on their first finish step and stay
// schedulable: the scheduler returns to them later for CommitPrepared —
// which, after a successful Prepare, must never fail — or an occasional
// RollbackPrepared. Between the two steps other transactions run their
// conflict checks against the prepared state.
func fuzzFinish(t *testing.T, db *pgssi.DB, f *ftxn, rng *rand.Rand, activeWriter map[string]*ftxn, acked *[]ackedCommit) bool {
	t.Helper()
	// recordAck captures the committed write set at acknowledgement time
	// (every write of transaction f carries the value fmt.Sprint(f.id) —
	// deletes reinsert — so the set is just the keys written).
	recordAck := func() {
		if acked == nil || len(f.wrote) == 0 {
			return
		}
		w := make(map[string]string, len(f.wrote))
		for k := range f.wrote {
			w[k] = fmt.Sprint(f.id)
		}
		*acked = append(*acked, ackedCommit{id: f.id, writes: w})
	}
	gid := fmt.Sprintf("fuzz-%d", f.id)
	if f.twoPC && !f.prepared {
		if err := f.tx.Prepare(gid); err != nil {
			if !pgssi.IsSerializationFailure(err) {
				t.Fatalf("prepare: %v", err)
			}
			// Prepare rolled the transaction back itself.
			fuzzAbort(f, activeWriter, true)
			return true
		}
		f.prepared = true
		return false
	}
	if f.prepared {
		if rng.IntN(8) == 0 {
			if err := db.RollbackPrepared(gid); err != nil {
				t.Fatalf("rollback prepared: %v", err)
			}
			fuzzAbort(f, activeWriter, true)
			return true
		}
		if err := db.CommitPrepared(gid); err != nil {
			t.Fatalf("commit prepared: %v", err)
		}
		f.committed = true
		recordAck()
		for k, w := range activeWriter {
			if w == f {
				delete(activeWriter, k)
			}
		}
		return true
	}
	settled := pgssi.TxSettled(f.tx)
	if err := f.tx.Commit(); err != nil {
		if !pgssi.IsSerializationFailure(err) {
			t.Fatalf("commit: %v", err)
		}
		if settled {
			t.Fatalf("transaction %d was settled, and its commit failed: %v", f.id, err)
		}
		// Commit rolled the transaction back itself.
		fuzzAbort(f, activeWriter, true)
		return true
	}
	f.committed = true
	recordAck()
	for k, w := range activeWriter {
		if w == f {
			delete(activeWriter, k)
		}
	}
	return true
}

// fuzzGet reads key, records the version observed, and returns false if
// the transaction aborted.
func fuzzGet(t *testing.T, f *ftxn, key string, activeWriter map[string]*ftxn) bool {
	t.Helper()
	v, err := f.tx.Get("t", key)
	if err != nil {
		if pgssi.IsSerializationFailure(err) {
			fuzzAbort(f, activeWriter, false)
			return false
		}
		// Keys are never absent (deletes reinsert), so any other
		// error is an engine bug the fuzzer just found.
		t.Fatalf("get %q: %v", key, err)
	}
	f.ops = append(f.ops, graphcheck.Op{Key: key, Saw: parseFuzzVersion(t, v)})
	return true
}

func parseFuzzVersion(t *testing.T, v []byte) graphcheck.Version {
	t.Helper()
	n, err := strconv.ParseUint(string(v), 10, 64)
	if err != nil {
		t.Fatalf("unparseable version value %q", v)
	}
	return graphcheck.Version(n)
}

func fuzzStep(t *testing.T, seed uint64, f *ftxn, op fop, activeWriter map[string]*ftxn) {
	t.Helper()
	val := []byte(fmt.Sprint(f.id))
	// Degrade a write to a read when the transaction is declared READ
	// ONLY, when it would block on another in-flight writer, or when it
	// would be this transaction's second write to the key (which
	// graphcheck's read-modify-write model cannot express).
	if op.kind >= 2 && (f.readOnly || f.wrote[op.key] || (activeWriter[op.key] != nil && activeWriter[op.key] != f)) {
		op.kind = 0
	}
	switch op.kind {
	case 0: // Get
		fuzzGet(t, f, op.key, activeWriter)
	case 1: // Scan all keys
		var rows [][2]string
		err := f.tx.Scan("t", "", "", func(k string, v []byte) bool {
			rows = append(rows, [2]string{k, string(v)})
			return true
		})
		if err != nil {
			if pgssi.IsSerializationFailure(err) {
				fuzzAbort(f, activeWriter, false)
				return
			}
			t.Fatalf("seed %d: scan: %v", seed, err)
		}
		for _, r := range rows {
			f.ops = append(f.ops, graphcheck.Op{Key: r[0], Saw: parseFuzzVersion(t, []byte(r[1]))})
		}
	case 2: // Put: read-modify-write
		if !fuzzGet(t, f, op.key, activeWriter) {
			return
		}
		if err := f.tx.Update("t", op.key, val); err != nil {
			if pgssi.IsSerializationFailure(err) {
				fuzzAbort(f, activeWriter, false)
				return
			}
			t.Fatalf("seed %d: update %q: %v", seed, op.key, err)
		}
		f.ops = append(f.ops, graphcheck.Op{Key: op.key, Write: true})
		f.wrote[op.key] = true
		activeWriter[op.key] = f
	case 3: // Delete + reinsert, recorded as one write
		if !fuzzGet(t, f, op.key, activeWriter) {
			return
		}
		if err := f.tx.Delete("t", op.key); err != nil {
			if pgssi.IsSerializationFailure(err) {
				fuzzAbort(f, activeWriter, false)
				return
			}
			t.Fatalf("seed %d: delete %q: %v", seed, op.key, err)
		}
		if err := f.tx.Insert("t", op.key, val); err != nil {
			if pgssi.IsSerializationFailure(err) || errors.Is(err, pgssi.ErrDuplicateKey) {
				fuzzAbort(f, activeWriter, false)
				return
			}
			t.Fatalf("seed %d: reinsert %q: %v", seed, op.key, err)
		}
		f.ops = append(f.ops, graphcheck.Op{Key: op.key, Write: true})
		f.wrote[op.key] = true
		activeWriter[op.key] = f
	}
}
