package router

import (
	"sync"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/wal"
)

// fakeBackend counts begins and hands out handles; every other op
// succeeds. Scripted positions come from the member's StatusFunc.
type fakeBackend struct {
	mu     sync.Mutex
	begins int
	next   pgssi.Handle
}

func (f *fakeBackend) Begin(level pgssi.IsolationLevel, readOnly, deferrable bool) (pgssi.Handle, pgssi.Status) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.begins++
	f.next++
	return f.next, pgssi.StatusOK
}

func (f *fakeBackend) Get(h pgssi.Handle, table, key string) ([]byte, pgssi.Status) {
	return nil, pgssi.StatusNotFound
}
func (f *fakeBackend) Put(h pgssi.Handle, table, key string, value []byte) pgssi.Status {
	return pgssi.StatusOK
}
func (f *fakeBackend) Commit(h pgssi.Handle) pgssi.Status   { return pgssi.StatusOK }
func (f *fakeBackend) Rollback(h pgssi.Handle) pgssi.Status { return pgssi.StatusOK }

func (f *fakeBackend) beginCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.begins
}

// static returns a StatusFunc with fixed positions.
func static(applied, safe uint64, ok bool) StatusFunc {
	return func() (uint64, uint64, bool) { return applied, safe, ok }
}

func TestRouterWritesGoToPrimary(t *testing.T) {
	prim, rep := &fakeBackend{}, &fakeBackend{}
	r := New(
		Member{Name: "primary", Backend: prim, Status: static(10, 10, true)},
		[]Member{{Name: "r1", Backend: rep, Status: static(10, 10, true)}},
		Config{MaxLag: 0},
	)
	defer r.Close()
	s := r.NewSession()

	h, st := s.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatalf("begin: %v", st)
	}
	s.Commit(h)
	if prim.beginCount() != 1 || rep.beginCount() != 0 {
		t.Fatalf("write routed to replica (primary=%d replica=%d)", prim.beginCount(), rep.beginCount())
	}
}

func TestRouterRoundRobinsEligibleReplicas(t *testing.T) {
	prim, r1, r2 := &fakeBackend{}, &fakeBackend{}, &fakeBackend{}
	r := New(
		Member{Name: "primary", Backend: prim, Status: static(100, 100, true)},
		[]Member{
			{Name: "r1", Backend: r1, Status: static(99, 98, true)},
			{Name: "r2", Backend: r2, Status: static(100, 99, true)},
		},
		Config{MaxLag: 5},
	)
	defer r.Close()
	s := r.NewSession()

	for i := 0; i < 6; i++ {
		h, st := s.Begin(pgssi.Serializable, true, false)
		if !st.OK() {
			t.Fatalf("begin %d: %v", i, st)
		}
		s.Rollback(h)
	}
	if r1.beginCount() != 3 || r2.beginCount() != 3 {
		t.Fatalf("round robin skew: r1=%d r2=%d", r1.beginCount(), r2.beginCount())
	}
	if prim.beginCount() != 0 {
		t.Fatalf("read leaked to primary (%d begins)", prim.beginCount())
	}
	st := r.Stats()
	if st.ReplicaBegins != 6 || st.PrimaryBegins != 0 || st.Fallbacks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRouterFallsBackWhenAllStale(t *testing.T) {
	prim, rep := &fakeBackend{}, &fakeBackend{}
	r := New(
		Member{Name: "primary", Backend: prim, Status: static(100, 100, true)},
		[]Member{{Name: "r1", Backend: rep, Status: static(50, 40, true)}},
		Config{MaxLag: 5}, // lag 60 > 5: ineligible
	)
	defer r.Close()
	s := r.NewSession()

	h, st := s.Begin(pgssi.Serializable, true, false)
	if !st.OK() {
		t.Fatalf("begin: %v", st)
	}
	s.Rollback(h)
	if rep.beginCount() != 0 || prim.beginCount() != 1 {
		t.Fatalf("stale replica served a read (replica=%d primary=%d)", rep.beginCount(), prim.beginCount())
	}
	if st := r.Stats(); st.Fallbacks != 1 || st.PrimaryBegins != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRouterSkipsNotOKReplica(t *testing.T) {
	prim, dead, live := &fakeBackend{}, &fakeBackend{}, &fakeBackend{}
	r := New(
		Member{Name: "primary", Backend: prim, Status: static(10, 10, true)},
		[]Member{
			{Name: "halted", Backend: dead, Status: static(0, 0, false)},
			{Name: "live", Backend: live, Status: static(10, 10, true)},
		},
		Config{MaxLag: 0},
	)
	defer r.Close()
	s := r.NewSession()

	for i := 0; i < 4; i++ {
		h, st := s.Begin(pgssi.RepeatableRead, true, false)
		if !st.OK() {
			t.Fatalf("begin %d: %v", i, st)
		}
		s.Commit(h)
	}
	if dead.beginCount() != 0 {
		t.Fatalf("halted replica served %d begins", dead.beginCount())
	}
	if live.beginCount() != 4 {
		t.Fatalf("live replica served %d of 4 begins", live.beginCount())
	}
}

func TestRouterWaitSafeUntilEligible(t *testing.T) {
	prim, rep := &fakeBackend{}, &fakeBackend{}
	var mu sync.Mutex
	safe := uint64(0) // starts stale
	r := New(
		Member{Name: "primary", Backend: prim, Status: static(100, 100, true)},
		[]Member{{Name: "r1", Backend: rep, Status: func() (uint64, uint64, bool) {
			mu.Lock()
			defer mu.Unlock()
			return safe, safe, true
		}}},
		Config{MaxLag: 0, PollInterval: time.Millisecond, WaitSafe: 5 * time.Second},
	)
	defer r.Close()

	go func() {
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		safe = 100
		mu.Unlock()
	}()

	s := r.NewSession()
	h, st := s.Begin(pgssi.Serializable, true, true)
	if !st.OK() {
		t.Fatalf("begin: %v", st)
	}
	s.Rollback(h)
	if rep.beginCount() != 1 {
		t.Fatalf("wait-for-safe did not route to the replica (replica=%d primary=%d)", rep.beginCount(), prim.beginCount())
	}
}

func TestSessionUnknownHandle(t *testing.T) {
	prim := &fakeBackend{}
	r := New(Member{Name: "primary", Backend: prim, Status: static(1, 1, true)}, nil, Config{})
	defer r.Close()
	s := r.NewSession()
	if _, st := s.Get(42, "t", "k"); st != pgssi.StatusInvalidHandle {
		t.Fatalf("get on unknown handle: %v", st)
	}
	if st := s.Commit(7); st != pgssi.StatusInvalidHandle {
		t.Fatalf("commit on unknown handle: %v", st)
	}
}

// ---- integration: real replicas, the safety invariant ----------------

// replicaBackend adapts a real pgssi.Replica to Backend the same way
// Replica.NewSession does, but keeps the *pgssi.Tx visible so the test
// can check OnSafeSnapshot on every serializable begin the router
// routes here.
type replicaBackend struct {
	rep *pgssi.Replica

	mu      sync.Mutex
	next    pgssi.Handle
	txs     map[pgssi.Handle]*pgssi.Tx
	serial  int // serializable begins served
	unsafeN int // ...of those, not on a safe snapshot (must stay 0)
}

func newReplicaBackend(rep *pgssi.Replica) *replicaBackend {
	return &replicaBackend{rep: rep, txs: make(map[pgssi.Handle]*pgssi.Tx)}
}

func (b *replicaBackend) Begin(level pgssi.IsolationLevel, readOnly, deferrable bool) (pgssi.Handle, pgssi.Status) {
	if !readOnly {
		return 0, pgssi.StatusReadOnlyTx
	}
	tx, err := b.rep.BeginReadOnly(pgssi.ReplicaTxOptions{
		Serializable: level == pgssi.Serializable,
		WaitSafe:     deferrable,
	})
	if err != nil {
		return 0, pgssi.StatusOf(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if level == pgssi.Serializable {
		b.serial++
		if !tx.OnSafeSnapshot() {
			b.unsafeN++
		}
	}
	b.next++
	b.txs[b.next] = tx
	return b.next, pgssi.StatusOK
}

func (b *replicaBackend) tx(h pgssi.Handle) *pgssi.Tx {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.txs[h]
}

func (b *replicaBackend) Get(h pgssi.Handle, table, key string) ([]byte, pgssi.Status) {
	tx := b.tx(h)
	if tx == nil {
		return nil, pgssi.StatusInvalidHandle
	}
	v, err := tx.Get(table, key)
	if err != nil {
		return nil, pgssi.StatusOf(err)
	}
	return v, pgssi.StatusOK
}

func (b *replicaBackend) Put(h pgssi.Handle, table, key string, value []byte) pgssi.Status {
	return pgssi.StatusReadOnlyTx
}

func (b *replicaBackend) Commit(h pgssi.Handle) pgssi.Status {
	tx := b.tx(h)
	if tx == nil {
		return pgssi.StatusInvalidHandle
	}
	st := pgssi.StatusOf(tx.Commit())
	b.mu.Lock()
	delete(b.txs, h)
	b.mu.Unlock()
	return st
}

func (b *replicaBackend) Rollback(h pgssi.Handle) pgssi.Status {
	tx := b.tx(h)
	if tx == nil {
		return pgssi.StatusInvalidHandle
	}
	tx.Rollback()
	b.mu.Lock()
	delete(b.txs, h)
	b.mu.Unlock()
	return pgssi.StatusOK
}

// TestRouterServesOnlySafeSnapshots drives a router over real replicas
// while the primary keeps writing, and asserts the core invariant:
// every serializable read the router routes to a replica runs on a safe
// snapshot — write skew is impossible on replica reads by construction.
func TestRouterServesOnlySafeSnapshots(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	log := wal.NewLog()
	if err := db.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}

	var reps []*pgssi.Replica
	var backs []*replicaBackend
	var members []Member
	for i := 0; i < 2; i++ {
		rep := pgssi.NewReplica(log)
		defer rep.Close()
		b := newReplicaBackend(rep)
		reps = append(reps, rep)
		backs = append(backs, b)
		members = append(members, Member{Name: "r", Backend: b, Status: ReplicaStatus(rep)})
	}
	r := New(
		Member{Name: "primary", Backend: db.NewSession(), Status: PrimaryStatus(db)},
		members,
		Config{MaxLag: 1 << 32, PollInterval: time.Millisecond, WaitSafe: 5 * time.Second},
	)
	defer r.Close()

	// Writers keep the log moving while readers route.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.RunTx(pgssi.TxOptions{Isolation: pgssi.Serializable}, func(tx *pgssi.Tx) error {
				return tx.Put("kv", "k", []byte{byte(i)})
			})
		}
	}()

	s := r.NewSession()
	for i := 0; i < 50; i++ {
		h, st := s.Begin(pgssi.Serializable, true, true)
		if !st.OK() {
			t.Fatalf("routed begin %d: %v", i, st)
		}
		if _, st := s.Get(h, "kv", "k"); !st.OK() && st != pgssi.StatusNotFound {
			t.Fatalf("routed get %d: %v", i, st)
		}
		if st := s.Commit(h); !st.OK() {
			t.Fatalf("routed commit %d: %v", i, st)
		}
	}
	close(stop)
	wg.Wait()

	stats := r.Stats()
	if stats.ReplicaBegins == 0 {
		t.Fatalf("no reads reached the replicas: %+v", stats)
	}
	served := 0
	for i, b := range backs {
		b.mu.Lock()
		serial, unsafeN := b.serial, b.unsafeN
		b.mu.Unlock()
		served += serial
		if unsafeN != 0 {
			t.Fatalf("replica %d served %d of %d serializable reads off a non-safe snapshot", i, unsafeN, serial)
		}
	}
	if served == 0 {
		t.Fatal("no serializable reads were served by replica backends")
	}
}
