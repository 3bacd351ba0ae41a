package pgssi_test

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/server"
	"pgssi/internal/wal"
	"pgssi/internal/wire"
	"pgssi/internal/workload"
)

// The budget of TestOnCallSkewRepro. The defaults are a smoke run that
// keeps the harness working; the nightly workflow passes the budget that
// is expected to catch the bug (ROADMAP "Also open": about one 15 s
// benchmark run in thirty).
var (
	oncallServers = flag.Int("oncall-servers", 2, "fresh servers TestOnCallSkewRepro starts, one after the other")
	oncallRun     = flag.Duration("oncall-run", 300*time.Millisecond, "how long TestOnCallSkewRepro drives each server")
)

// TestOnCallSkewRepro is the reproduction harness for the open
// serializability hole: bench/'s skew_hot workload (§2.1.1's on-call
// doctors: groups of four rows, a transaction reads a group and flips
// one doctor, never taking the last one off call) run the way the
// benchmark runs it — a fresh in-memory engine behind internal/server,
// two closed-loop clients over loopback TCP at SERIALIZABLE, retrying at
// once — against many fresh servers for a short time each, because the
// failures seen so far came early in a process's life. "Every group has
// a doctor on call" holds in every serial order, so a transaction that
// reads a group with nobody on call has seen a committed write skew, or
// has lost a version its snapshot should see. When one does, the harness
// lets it go on to its write (which makes its xid visible on the row it
// wrote) and, before it commits, prints the engine's view: the CSN
// every active transaction pins the horizon at and, for the group's four
// rows, every version's xmin and xmax with their fates. It reproduces;
// it does not diagnose.
func TestOnCallSkewRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction harness: starts servers and drives them over TCP")
	}
	txns, caught := runOnCall(t, pgssi.Serializable, *oncallServers, *oncallRun, func(dump string, _ bool) { t.Error(dump) })
	t.Logf("%d servers × %v: %d transactions committed, %d read a group with nobody on call", *oncallServers, *oncallRun, txns, caught)
}

// TestOnCallSkewReproBites runs the same harness under snapshot
// isolation, where the write skew is expected: the check must fire and
// the dump must show the reader and the versions it met, its own
// in-progress write among them. Only a dump whose Put went through can
// show that write: a Put refused by first-updater-wins leaves no version
// behind, so such sightings are not checked.
func TestOnCallSkewReproBites(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction harness: starts servers and drives them over TCP")
	}
	var dumps []string
	for tries := 0; tries < 10 && len(dumps) == 0; tries++ {
		runOnCall(t, pgssi.RepeatableRead, 1, 300*time.Millisecond, func(dump string, wrote bool) {
			if wrote {
				dumps = append(dumps, dump)
			}
		})
	}
	if len(dumps) == 0 {
		t.Fatal("no transaction whose Put went through read a group with nobody on call under snapshot isolation")
	}
	// (The dump lists every active transaction's pinned CSN, at every
	// isolation level.)
	for _, want := range []string{"active xid", "xmin", "in-progress", "trim horizon"} {
		if !strings.Contains(dumps[0], want) {
			t.Fatalf("dump lacks %q:\n%s", want, dumps[0])
		}
	}
}

// runOnCall drives servers fresh servers for dur each at level and
// returns how many transactions committed and how many read a group with
// nobody on call; each of the latter is described to report, from the
// client goroutine that saw it, one at a time, with whether its Put went
// through.
func runOnCall(t *testing.T, level pgssi.IsolationLevel, servers int, dur time.Duration, report func(dump string, wrote bool)) (txns, caught int64) {
	const (
		rows    = 16
		clients = 2
	)
	for s := 0; s < servers; s++ {
		db := pgssi.Open(pgssi.Config{})
		db.AttachWAL(wal.NewLog())
		if err := db.CreateTable(onCallTable); err != nil {
			t.Fatal(err)
		}
		err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.ReadCommitted}, func(tx *pgssi.Tx) error {
			for i := 0; i < rows; i++ {
				if err := tx.Insert(onCallTable, workload.LoadKey(i), onCallValue(1)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(db, server.Config{})
		served := make(chan error, 1)
		go func() { served <- srv.Serve(l) }()

		deadline := time.Now().Add(dur)
		var wg sync.WaitGroup
		var mu sync.Mutex // serializes the dumps and the counters
		for c := 0; c < clients; c++ {
			cn, err := wire.Dial(l.Addr().String(), wire.DialOptions{Timeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(c int, cn *wire.Client) {
				defer wg.Done()
				defer cn.Close()
				rng := rand.New(rand.NewPCG(uint64(s), uint64(c)))
				n := int64(0)
				for time.Now().Before(deadline) {
					g, pick := rng.IntN(rows/onCallGroup), rng.IntN(onCallGroup)
					// One transaction: attempts repeat the same choices.
					for st := pgssi.StatusSerializationFailure; st.Retryable(); {
						who := fmt.Sprintf("server %d client %d txn %d", s, c, n)
						st = onCallAttempt(db, cn, level, who, g, pick, func(dump string, wrote bool) {
							mu.Lock()
							caught++
							report(dump, wrote)
							mu.Unlock()
						})
						if !st.OK() && !st.Retryable() {
							t.Errorf("server %d client %d: %v", s, c, st)
							return
						}
					}
					n++
				}
				mu.Lock()
				txns += n
				mu.Unlock()
			}(c, cn)
		}
		wg.Wait()
		srv.Shutdown()
		if err := <-served; err != nil && !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("server %d: %v", s, err)
		}
		if err := db.Close(); err != nil {
			t.Errorf("server %d: close: %v", s, err)
		}
	}
	return txns, caught
}

// The on-call table: groups of onCallGroup rows whose value says on (1)
// or off (0) call, in bench/'s 16-byte format.
const (
	onCallTable = "kv"
	onCallGroup = 4
)

func onCallValue(on uint64) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b, on)
	copy(b[8:], "vvvvvvvv")
	return b
}

// onCallAttempt is one attempt of skew_hot's transaction on group g; it
// returns the status that ended it.
func onCallAttempt(db *pgssi.DB, cn *wire.Client, level pgssi.IsolationLevel, who string, g, pick int, report func(dump string, wrote bool)) pgssi.Status {
	h, st := cn.Begin(level, false, false)
	if !st.OK() {
		return st
	}
	keys := make([]string, onCallGroup)
	var on, off []int
	for d := range keys {
		keys[d] = workload.LoadKey(g*onCallGroup + d)
		v, st := cn.Get(h, onCallTable, keys[d])
		if !st.OK() {
			cn.Rollback(h)
			return st
		}
		if len(v) == 16 && binary.BigEndian.Uint64(v) == 1 {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	d, to := 0, uint64(0)
	if len(on) >= 2 {
		d = on[pick%len(on)]
	} else {
		d, to = off[pick%len(off)], 1
	}
	put := cn.Put(h, onCallTable, keys[d], onCallValue(to))
	if len(on) == 0 {
		// The client only queued the Put: reading the row back sends it
		// and reports how it went.
		if _, st := cn.Get(h, onCallTable, keys[d]); put.OK() && !st.OK() {
			put = st
		}
		// Still open: its snapshot is pinned and, if the Put went
		// through, its xid is the in-progress xmin on keys[d].
		report(fmt.Sprintf("%s read group %d with nobody on call; it then wrote %s (%v).\n%s",
			who, g, keys[d], put, pgssi.DescribeReadState(db, onCallTable, keys)), put.OK())
	}
	if !put.OK() {
		cn.Rollback(h)
		return put
	}
	return cn.Commit(h)
}
