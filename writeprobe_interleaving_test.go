package pgssi_test

import (
	"fmt"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/core"
	"pgssi/internal/trace"
)

// TestDetectionWindowMutexFreeWriteProbe drives the write side of the
// detection window. A serializable write probes its row's SIREAD targets
// finest to coarsest — tuple, page, relation — under the partition
// mutexes alone, holding the row's heap page latch but no SSI mutex, so
// the two operations that move another transaction's SIREAD lock while
// the lock stays in force can run between its probes:
//
//   - a reader's relation promotion, triggered by its scan of other
//     pages (whose latches the parked writer does not hold), which
//     inserts the relation lock before it removes the tuple or page lock;
//   - summarization of a committed reader into the dummy transaction
//     (§6.2), triggered by another transaction's commit over
//     MaxCommittedXacts, which inserts the dummy's lock on the same
//     target before it removes the reader's.
//
// The pauser parks the writer at the trace seam's WriteProbe point before
// the probe of each level up to the one where the reader's lock sits,
// the racer runs to completion, and the writer resumes. In every
// schedule the reader → writer rw-antidependency must be flagged: as an
// edge to the reader, or as the writer's summary conflict-in.
func TestDetectionWindowMutexFreeWriteProbe(t *testing.T) {
	levels := []core.Level{core.LevelTuple, core.LevelPage, core.LevelRelation}
	for _, racer := range []string{"promotion", "summarization"} {
		for _, held := range levels {
			if racer == "promotion" && held == core.LevelRelation {
				continue // nothing coarser to promote to
			}
			for _, park := range levels {
				if park < held {
					continue // the probe stops at the level the lock is held at
				}
				name := fmt.Sprintf("%s/held=%v/park=%v", racer, held, park)
				t.Run(name, func(t *testing.T) { driveWriteProbeRace(t, racer, held, park) })
			}
		}
	}
}

// probeRows is the window table's size: "r0000" is the written row, on
// heap page 0; the reader's promotion scan reads rows from r0100 on.
const probeRows = 640

func probeKey(i int) string { return fmt.Sprintf("r%04d", i) }

func driveWriteProbeRace(t *testing.T, racer string, held, park core.Level) {
	p := newPauser()
	db := pgssi.OpenWithHooks(pgssi.Config{PromotePageToRel: 4, MaxCommittedXacts: 1}, pgssi.Hooks{Trace: p.trace})
	defer db.Close()
	mustExec(t, db.CreateTable("t"))
	seed, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
	mustExec(t, err)
	for i := 0; i < probeRows; i++ {
		mustExec(t, seed.Insert("t", probeKey(i), []byte("v")))
	}
	mustExec(t, seed.Commit())

	scan := func(tx *pgssi.Tx, lo, hi int) {
		t.Helper()
		mustExec(t, tx.Scan("t", probeKey(lo), probeKey(hi), func(string, []byte) bool { return true }))
	}
	reader, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, err)
	// The reader's lock on r0000 at the granularity under test: a point
	// read is a tuple lock; a scan batch of more than
	// PromoteTupleToPage rows on the page is a page lock; more than
	// PromotePageToRel page locks are a relation lock.
	switch held {
	case core.LevelTuple:
		_, err := reader.Get("t", probeKey(0))
		mustExec(t, err)
	case core.LevelPage:
		scan(reader, 0, 30)
	case core.LevelRelation:
		scan(reader, 0, probeRows)
	}
	writer, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
	mustExec(t, err)
	if racer == "summarization" {
		mustExec(t, reader.Commit()) // concurrent with the writer, so retired, not reclaimed
	}
	before := db.SSIStats().ConflictsFlagged

	p.arm(trace.WriteProbe, func(ev trace.Event) bool {
		return ev.XID == writer.ID() && ev.Table == "t" && core.Level(ev.Seq) == park
	})
	done := make(chan error, 1)
	go func() { done <- writer.Put("t", probeKey(0), []byte("w")) }()
	select {
	case <-p.inWindow:
	case err := <-done:
		t.Fatalf("the write finished (%v) without reaching the %v probe", err, park)
	case <-time.After(10 * time.Second):
		t.Fatalf("the write never reached the %v probe", park)
	}

	switch racer {
	case "promotion":
		// Six whole pages away from page 0: six page locks, the fifth of
		// which promotes every lock the reader holds on t to one
		// relation lock.
		scan(reader, 100, 500)
	case "summarization":
		// A second retired transaction puts the retire queue over
		// MaxCommittedXacts: its commit summarizes the oldest, the reader.
		other, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
		mustExec(t, err)
		_, err = other.Get("t", probeKey(300))
		mustExec(t, err)
		mustExec(t, other.Commit())
		if st := db.SSIStats(); st.Summarized == 0 {
			t.Fatalf("the racing commit summarized nothing: %+v", st)
		}
	}
	close(p.release)
	select {
	case err := <-done:
		mustExec(t, err)
	case <-time.After(10 * time.Second):
		t.Fatal("the write did not finish after its release")
	}
	if flagged := db.SSIStats().ConflictsFlagged - before; flagged < 1 {
		t.Fatalf("the reader's lock moved while the writer probed and no rw-antidependency was flagged")
	}
	mustExec(t, writer.Rollback())
	if racer == "promotion" {
		mustExec(t, reader.Rollback())
	}
}
