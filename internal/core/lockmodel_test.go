package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pgssi/internal/mvcc"
)

// This file checks the SIREAD lock storage — holder sets that keep one
// holder inline, and per-transaction lock sets that keep their first
// entries inside the Xact — against a reference model written the way
// the storage used to be: a target → holder-set map, and per transaction
// a lock map plus the two promotion-counter maps. The model replays the
// same rules (coverage, duplicates, the capacity bound, threshold and
// batch promotion, §7.3 drops, page splits, DDL relation promotion,
// summarization into the dummy, commit, abort, reclamation), and a
// seeded single-goroutine sequence drives both; after every step each
// target's holders, each transaction's HoldsLock answers and the lock
// gauge must agree.

// modelXact is the reference model of one transaction's lock state.
type modelXact struct {
	x            *Xact
	locks        map[Target]bool
	tuplesOnPage map[Target]int
	pagesOnRel   map[string]int
	lockingDone  bool
	active       bool
	promoted     bool // a promotion ran during the current step
}

// lockModel is the reference lock table.
type lockModel struct {
	cfg       Config
	dummy     *Xact
	holders   map[Target]map[*Xact]bool
	dummySeqs map[Target]mvcc.SeqNo
	txns      map[*Xact]*modelXact
	current   int
	retired   []*modelXact
}

func newLockModel(cfg Config, dummy *Xact) *lockModel {
	return &lockModel{
		cfg:       cfg.withDefaults(),
		dummy:     dummy,
		holders:   make(map[Target]map[*Xact]bool),
		dummySeqs: make(map[Target]mvcc.SeqNo),
		txns:      make(map[*Xact]*modelXact),
	}
}

func (l *lockModel) begin(x *Xact) *modelXact {
	mx := &modelXact{x: x, locks: map[Target]bool{}, tuplesOnPage: map[Target]int{}, pagesOnRel: map[string]int{}, active: true}
	l.txns[x] = mx
	return mx
}

func (l *lockModel) addHolder(t Target, x *Xact) bool {
	hs := l.holders[t]
	if hs == nil {
		hs = map[*Xact]bool{}
		l.holders[t] = hs
	}
	if hs[x] {
		return false
	}
	hs[x] = true
	l.current++
	return true
}

func (l *lockModel) removeHolder(t Target, x *Xact) {
	if hs := l.holders[t]; hs[x] {
		delete(hs, x)
		l.current--
		if len(hs) == 0 {
			delete(l.holders, t)
		}
	}
}

func (l *lockModel) insert(mx *modelXact, t Target) bool {
	if mx.locks[t] {
		return false
	}
	mx.locks[t] = true
	l.addHolder(t, mx.x)
	return true
}

func (l *lockModel) remove(mx *modelXact, t Target) {
	if !mx.locks[t] {
		return
	}
	delete(mx.locks, t)
	l.removeHolder(t, mx.x)
}

func (l *lockModel) covered(mx *modelXact, t Target) bool {
	if t.Level == LevelRelation {
		return false
	}
	return mx.locks[RelationTarget(t.Rel)] || t.Level == LevelTuple && mx.locks[PageTarget(t.Rel, t.Page)]
}

func (l *lockModel) acquire(mx *modelXact, t Target) {
	if mx.lockingDone || l.covered(mx, t) || mx.locks[t] {
		return
	}
	if l.current >= l.cfg.MaxPredicateLocks && t.Level != LevelRelation {
		l.promoteToRelation(mx, t.Rel)
		return
	}
	l.insert(mx, t)
	switch t.Level {
	case LevelTuple:
		pk := PageTarget(t.Rel, t.Page)
		mx.tuplesOnPage[pk]++
		if mx.tuplesOnPage[pk] > l.cfg.PromoteTupleToPage {
			l.promoteToPage(mx, t.Rel, t.Page)
		}
	case LevelPage:
		mx.pagesOnRel[t.Rel]++
		if mx.pagesOnRel[t.Rel] > l.cfg.PromotePageToRel {
			l.promoteToRelation(mx, t.Rel)
		}
	}
}

func (l *lockModel) batch(mx *modelXact, rel string, page int64, keys []string) bool {
	if mx.lockingDone {
		return false
	}
	if mx.locks[RelationTarget(rel)] {
		return true
	}
	pk := PageTarget(rel, page)
	if mx.locks[pk] {
		return false
	}
	promotes := len(keys) > l.cfg.PromoteTupleToPage
	var targets []Target
	if !promotes {
		for _, k := range keys {
			if t := TupleTarget(rel, page, k); !mx.locks[t] {
				targets = append(targets, t)
			}
		}
		if len(targets) == 0 {
			return false
		}
		promotes = mx.tuplesOnPage[pk]+len(targets) > l.cfg.PromoteTupleToPage
	}
	if l.current >= l.cfg.MaxPredicateLocks {
		l.promoteToRelation(mx, rel)
		return true
	}
	if promotes {
		l.promoteToPage(mx, rel, page)
		return mx.locks[RelationTarget(rel)]
	}
	n := 0
	for _, t := range targets {
		if l.insert(mx, t) {
			n++
		}
	}
	mx.tuplesOnPage[pk] += n
	return false
}

func (l *lockModel) promoteToPage(mx *modelXact, rel string, page int64) {
	mx.promoted = true
	pk := PageTarget(rel, page)
	l.insert(mx, pk)
	if mx.tuplesOnPage[pk] > 0 {
		for t := range mx.locks {
			if t.Level == LevelTuple && t.Rel == rel && t.Page == page {
				l.remove(mx, t)
			}
		}
		delete(mx.tuplesOnPage, pk)
	}
	mx.pagesOnRel[rel]++
	if mx.pagesOnRel[rel] > l.cfg.PromotePageToRel {
		l.promoteToRelation(mx, rel)
	}
}

func (l *lockModel) promoteToRelation(mx *modelXact, rel string) {
	mx.promoted = true
	l.insert(mx, RelationTarget(rel))
	for t := range mx.locks {
		if t.Rel == rel && t.Level != LevelRelation {
			l.remove(mx, t)
			if t.Level == LevelTuple {
				delete(mx.tuplesOnPage, PageTarget(t.Rel, t.Page))
			}
		}
	}
	delete(mx.pagesOnRel, rel)
}

func (l *lockModel) release(mx *modelXact) {
	mx.lockingDone = true
	for t := range mx.locks {
		l.remove(mx, t)
	}
	mx.tuplesOnPage, mx.pagesOnRel = map[Target]int{}, map[string]int{}
}

func (l *lockModel) insertDummy(t Target, seq mvcc.SeqNo) {
	l.addHolder(t, l.dummy)
	if seq > l.dummySeqs[t] {
		l.dummySeqs[t] = seq
	}
}

func (l *lockModel) removeDummy(t Target) {
	if _, ok := l.dummySeqs[t]; !ok {
		return
	}
	delete(l.dummySeqs, t)
	l.removeHolder(t, l.dummy)
}

func (l *lockModel) pageSplit(rel string, left, right int64) {
	lt, rt := PageTarget(rel, left), PageTarget(rel, right)
	var holders []*modelXact
	for x := range l.holders[lt] {
		if x != l.dummy {
			holders = append(holders, l.txns[x])
		}
	}
	for _, mx := range holders {
		if !l.covered(mx, rt) && l.insert(mx, rt) {
			mx.pagesOnRel[rel]++
			if mx.pagesOnRel[rel] > l.cfg.PromotePageToRel {
				l.promoteToRelation(mx, rel)
			}
		}
	}
	if seq, ok := l.dummySeqs[lt]; ok {
		l.insertDummy(rt, seq)
	}
}

func (l *lockModel) promoteRelationLocks(rel string) {
	affected := map[*modelXact]bool{}
	var dummySeq mvcc.SeqNo
	var dummyTargets []Target
	for t, hs := range l.holders {
		if t.Rel != rel || t.Level == LevelRelation {
			continue
		}
		for x := range hs {
			if x == l.dummy {
				dummySeq = max(dummySeq, l.dummySeqs[t])
				dummyTargets = append(dummyTargets, t)
				continue
			}
			affected[l.txns[x]] = true
		}
	}
	for mx := range affected {
		l.promoteToRelation(mx, rel)
	}
	if dummySeq != mvcc.InvalidSeqNo {
		l.insertDummy(RelationTarget(rel), dummySeq)
		for _, t := range dummyTargets {
			l.removeDummy(t)
		}
	}
}

func (l *lockModel) commit(mx *modelXact) {
	mx.lockingDone, mx.active = true, false
	l.retired = append(l.retired, mx)
	sort.Slice(l.retired, func(i, j int) bool { return l.retired[i].x.CommitSeq < l.retired[j].x.CommitSeq })
	if len(l.retired) > l.cfg.MaxCommittedXacts {
		l.reclaim()
		over := len(l.retired) - l.cfg.MaxCommittedXacts
		if over > 0 {
			for _, c := range l.retired[:over] {
				l.summarize(c)
			}
			l.retired = l.retired[over:]
		}
	}
}

func (l *lockModel) summarize(c *modelXact) {
	for t := range c.locks {
		l.insertDummy(t, c.x.CommitSeq)
		l.remove(c, t)
	}
	delete(l.txns, c.x)
}

func (l *lockModel) abort(mx *modelXact) {
	mx.active = false
	l.release(mx)
	delete(l.txns, mx.x)
}

// reclaim is one reclaim pass: every retired transaction at or below
// the horizon and every dummy lock whose holders all are, are dropped.
// Every transaction in these sequences is read/write, so the §6.1
// read-only sweep never applies.
func (l *lockModel) reclaim() {
	minSeq := mvcc.SeqNo(math.MaxUint64)
	for _, mx := range l.txns {
		if mx.active && mx.x.SnapshotSeq < minSeq {
			minSeq = mx.x.SnapshotSeq
		}
	}
	cut := 0
	for cut < len(l.retired) && l.retired[cut].x.CommitSeq <= minSeq {
		l.release(l.retired[cut])
		delete(l.txns, l.retired[cut].x)
		cut++
	}
	l.retired = l.retired[cut:]
	for t, seq := range l.dummySeqs {
		if seq <= minSeq {
			l.removeDummy(t)
		}
	}
}

// lockModelRun drives a Manager and the model with one seeded sequence
// and reports how often it met the two shapes only the inline forms
// have: a holder set losing its inline holder while spilled holders
// remain, and a lock set past its inline room that then promotes.
func lockModelRun(t *testing.T, seed int64, steps int) (inlineHolderRemoved, spilledPromoted int) {
	cfg := Config{
		Partitions:         4,
		PromoteTupleToPage: 3,
		PromotePageToRel:   3,
		MaxPredicateLocks:  48,
		MaxCommittedXacts:  3,
	}
	mv := mvcc.NewManager()
	mgr := NewManager(mv, cfg)
	// Background passes would race the model; ReclaimNow and the
	// summarization pressure path still reclaim synchronously.
	mgr.Close()
	model := newLockModel(cfg, mgr.oldCommitted)
	rng := rand.New(rand.NewSource(seed))

	rels := []string{"r0", "r1"}
	const pages, keysPerPage = 4, 6
	var universe []Target
	for _, rel := range rels {
		universe = append(universe, RelationTarget(rel))
		for p := int64(0); p < pages; p++ {
			universe = append(universe, PageTarget(rel, p))
			for k := 0; k < keysPerPage; k++ {
				universe = append(universe, TupleTarget(rel, p, fmt.Sprintf("k%d", k)))
			}
		}
	}
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(keysPerPage)) }
	var live []*modelXact // begun, not yet aborted, summarized or reclaimed
	pick := func(activeOnly bool) *modelXact {
		var c []*modelXact
		for _, mx := range live {
			if mx.active || !activeOnly {
				c = append(c, mx)
			}
		}
		if len(c) == 0 {
			return nil
		}
		return c[rng.Intn(len(c))]
	}
	type firstHolder struct {
		x      *Xact
		spills int
	}
	firsts := make(map[Target]firstHolder)

	for step := 0; step < steps; step++ {
		// Before the step: each target's inline holder, and which lock
		// sets are past their inline room.
		for _, tg := range universe {
			p, h := mgr.locate(tg)
			p.mu.Lock()
			hs := p.locks.holders(h, tg)
			firsts[tg] = firstHolder{hs.first, len(hs.more)}
			p.mu.Unlock()
		}
		spilled := map[*modelXact]bool{}
		for _, mx := range live {
			mx.promoted = false
			mx.x.lockMu.Lock()
			spilled[mx] = mx.x.locks.index != nil
			mx.x.lockMu.Unlock()
		}

		var what string
		switch op := rng.Intn(100); {
		case op < 8 || len(live) == 0:
			if countActive(live) >= 6 {
				continue
			}
			xid := mv.Begin()
			x, _ := mgr.Begin(xid, mv.TakeSnapshot, false, false)
			live = append(live, model.begin(x))
			what = "begin"
		case op < 40:
			mx := pick(op < 38) // now and then a committed one, which must not lock
			if mx == nil {
				continue
			}
			rel, page := rels[rng.Intn(len(rels))], int64(rng.Intn(pages))
			var tg Target
			switch r := rng.Intn(10); {
			case r < 7:
				tg = TupleTarget(rel, page, key())
			case r < 9:
				tg = PageTarget(rel, page)
			default:
				tg = RelationTarget(rel)
			}
			mgr.acquire(mx.x, tg)
			model.acquire(mx, tg)
			what = "acquire " + tg.String()
		case op < 55:
			mx := pick(true)
			if mx == nil {
				continue
			}
			rel, page := rels[rng.Intn(len(rels))], int64(rng.Intn(pages))
			var keys []string
			for n := rng.Intn(6); len(keys) < n; {
				keys = append(keys, key()) // duplicates now and then
			}
			got, err := mgr.AcquireTupleLockBatch(mx.x, rel, page, keys)
			want := model.batch(mx, rel, page, keys)
			if err != nil || got != want {
				t.Fatalf("seed %d step %d: batch %s/p%d %v: relCovered %v, %v; model says %v", seed, step, rel, page, keys, got, err, want)
			}
			what = fmt.Sprintf("batch %s/p%d %v", rel, page, keys)
		case op < 62:
			mx := pick(true)
			if mx == nil {
				continue
			}
			rel, page, k := rels[rng.Intn(len(rels))], int64(rng.Intn(pages)), key()
			mgr.DropOwnTupleLock(mx.x, rel, page, k)
			model.remove(mx, TupleTarget(rel, page, k))
			what = "drop " + TupleTarget(rel, page, k).String()
		case op < 68:
			rel := rels[rng.Intn(len(rels))]
			left, right := int64(rng.Intn(pages)), int64(rng.Intn(pages))
			if left == right {
				continue
			}
			mgr.PageSplit(rel, left, right)
			model.pageSplit(rel, left, right)
			what = fmt.Sprintf("split %s %d→%d", rel, left, right)
		case op < 71:
			rel := rels[rng.Intn(len(rels))]
			mgr.PromoteRelationLocks(rel)
			model.promoteRelationLocks(rel)
			what = "promote relation " + rel
		case op < 86:
			mx := pick(true)
			if mx == nil {
				continue
			}
			xid := mx.x.XID
			if err := mgr.Commit(mx.x, func() mvcc.SeqNo { return mv.Commit(xid) }); err != nil {
				t.Fatalf("seed %d step %d: commit: %v", seed, step, err)
			}
			model.commit(mx)
			what = "commit"
		case op < 94:
			mx := pick(true)
			if mx == nil {
				continue
			}
			mv.Abort(mx.x.XID)
			mgr.Abort(mx.x)
			model.abort(mx)
			what = "abort"
		default:
			mgr.ReclaimNow()
			model.reclaim()
			what = "reclaim"
		}

		// Transactions summarized or reclaimed by the step leave the
		// model; they must hold nothing in the Manager either.
		kept := live[:0]
		for _, mx := range live {
			if model.txns[mx.x] == mx {
				kept = append(kept, mx)
			} else {
				for _, tg := range universe {
					if mgr.HoldsLock(mx.x, tg) {
						t.Fatalf("seed %d step %d (%s): a released transaction still holds %v", seed, step, what, tg)
					}
				}
			}
		}
		live = kept

		for _, tg := range universe {
			got := tableHolders(t, mgr, tg)
			want := model.holders[tg]
			if !sameHolders(got, want) {
				t.Fatalf("seed %d step %d (%s): holders of %v: table %d, model %d", seed, step, what, tg, len(got), len(want))
			}
			for _, mx := range live {
				if got, want := mgr.HoldsLock(mx.x, tg), mx.locks[tg]; got != want {
					t.Fatalf("seed %d step %d (%s): HoldsLock(%v) = %v, model %v", seed, step, what, tg, got, want)
				}
			}
			if f := firsts[tg]; f.x != nil && f.spills > 0 && !got[f.x] && len(got) > 0 {
				inlineHolderRemoved++
			}
		}
		for i := range mgr.parts {
			checkHolderTable(t, &mgr.parts[i].locks)
		}
		if n, cur := mgr.LockCount(), mgr.Stats().LocksCurrent; int64(n) != cur || n != model.current {
			t.Fatalf("seed %d step %d (%s): LockCount %d, LocksCurrent %d, model %d", seed, step, what, n, cur, model.current)
		}
		for mx, was := range spilled {
			if was && mx.promoted {
				spilledPromoted++
			}
		}
	}
	return inlineHolderRemoved, spilledPromoted
}

func countActive(live []*modelXact) int {
	n := 0
	for _, mx := range live {
		if mx.active {
			n++
		}
	}
	return n
}

// tableHolders reads t's holder set out of the lock table, checking the
// holder set's own invariants on the way.
func tableHolders(t *testing.T, m *Manager, tg Target) map[*Xact]bool {
	t.Helper()
	p, h := m.locate(tg)
	p.mu.Lock()
	defer p.mu.Unlock()
	hs := p.locks.holders(h, tg)
	if _, dup := hs.more[hs.first]; dup && hs.first != nil {
		t.Fatalf("%v: the inline holder is also spilled", tg)
	}
	out := make(map[*Xact]bool, hs.len())
	for _, x := range hs.appendOthers(nil, nil) {
		out[x] = true
	}
	return out
}

// checkHolderTable checks a partition table's own invariants: its count
// of used slots, and that every entry is found from its home slot.
func checkHolderTable(t *testing.T, tb *holderTable) {
	t.Helper()
	used := 0
	for i := range tb.slots {
		s := &tb.slots[i]
		if s.hs.empty() {
			if s.hs.more != nil || s.t != (Target{}) {
				t.Fatalf("slot %d is free but not cleared", i)
			}
			continue
		}
		used++
		if got := tb.find(s.h, &s.t); got != i {
			t.Fatalf("%v in slot %d is found at %d", s.t, i, got)
		}
	}
	if used != tb.used || 4*used > 3*len(tb.slots) {
		t.Fatalf("table of %d slots counts %d used, holds %d", len(tb.slots), tb.used, used)
	}
}

// TestHolderTableMatchesMap drives one partition table and a Go map with
// a seeded sequence of adds and removes over enough targets to grow the
// table several times and wrap its probe runs around its end.
func TestHolderTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb holderTable
	want := map[Target]map[*Xact]bool{}
	xs := []*Xact{{}, {}, {}}
	targets := make([]Target, 3000)
	for i := range targets {
		targets[i] = TupleTarget("r", int64(i/50), fmt.Sprintf("k%d", i))
	}
	for step := 0; step < 200000; step++ {
		// Drift the live window across the targets, so entries come and
		// go the way a lock table's do.
		lo := step / 100 % len(targets)
		tg := targets[(lo+rng.Intn(400))%len(targets)]
		x := xs[rng.Intn(len(xs))]
		h := targetHash(tg)
		if rng.Intn(2) == 0 {
			added := tb.add(h, tg, x)
			if added == want[tg][x] {
				t.Fatalf("step %d: add %v: %v, map says held=%v", step, tg, added, want[tg][x])
			}
			if want[tg] == nil {
				want[tg] = map[*Xact]bool{}
			}
			want[tg][x] = true
		} else {
			removed := tb.remove(h, tg, x)
			if removed != want[tg][x] {
				t.Fatalf("step %d: remove %v: %v, map says held=%v", step, tg, removed, want[tg][x])
			}
			delete(want[tg], x)
			if len(want[tg]) == 0 {
				delete(want, tg)
			}
		}
		if step%1000 == 0 {
			checkHolderTable(t, &tb)
			n := 0
			for tg, hs := range want {
				got := tb.holders(targetHash(tg), tg)
				if got.len() != len(hs) {
					t.Fatalf("step %d: %v has %d holders, map %d", step, tg, got.len(), len(hs))
				}
				n += len(hs)
			}
			if tb.len() != n {
				t.Fatalf("step %d: table holds %d pairs, map %d", step, tb.len(), n)
			}
		}
	}
	if len(tb.slots) < 512 {
		t.Fatalf("the table only grew to %d slots", len(tb.slots))
	}
}

func sameHolders(got, want map[*Xact]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for x := range want {
		if !got[x] {
			return false
		}
	}
	return true
}

// TestLockStorageMatchesReferenceModel runs the seeded sequences and
// requires that, over all of them, both inline-form edge cases were met.
func TestLockStorageMatchesReferenceModel(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	var removed, promoted int
	for seed := int64(1); seed <= 12; seed++ {
		r, p := lockModelRun(t, seed, steps)
		removed += r
		promoted += p
	}
	t.Logf("inline holder removed with spilled holders left: %d; lock set past its inline room promoted: %d", removed, promoted)
	if removed == 0 || promoted == 0 {
		t.Fatalf("the sequences missed an inline-form case (inline holder removed: %d, spilled set promoted: %d)", removed, promoted)
	}
}
