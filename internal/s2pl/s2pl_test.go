package s2pl

import (
	"errors"
	"testing"
	"time"

	"pgssi/internal/core"
)

func target(key string) core.Target { return core.TupleTarget("t", 0, key) }

func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		a, b Mode
		ok   bool
	}{
		{ModeIS, ModeIS, true}, {ModeIS, ModeIX, true}, {ModeIS, ModeS, true},
		{ModeIS, ModeSIX, true}, {ModeIS, ModeX, false},
		{ModeIX, ModeIX, true}, {ModeIX, ModeS, false}, {ModeIX, ModeSIX, false},
		{ModeIX, ModeX, false},
		{ModeS, ModeS, true}, {ModeS, ModeSIX, false}, {ModeS, ModeX, false},
		{ModeSIX, ModeSIX, false}, {ModeSIX, ModeX, false},
		{ModeX, ModeX, false},
	}
	for _, c := range cases {
		if got := compatible(c.a, c.b); got != c.ok {
			t.Errorf("compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.ok)
		}
		if got := compatible(c.b, c.a); got != c.ok {
			t.Errorf("compatible(%v,%v) = %v, want %v (symmetry)", c.b, c.a, got, c.ok)
		}
	}
}

func TestCombineUpgrades(t *testing.T) {
	if combine(ModeS, ModeIX) != ModeSIX {
		t.Fatal("S + IX must be SIX")
	}
	if combine(ModeIS, ModeX) != ModeX {
		t.Fatal("IS + X must be X")
	}
	if !covers(ModeX, ModeS) || covers(ModeS, ModeX) {
		t.Fatal("covers must be asymmetric for S/X")
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, target("a"), ModeS); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, target("a"), ModeS); err != nil {
		t.Fatal(err)
	}
	if m.LockCount() != 2 {
		t.Fatalf("lock count = %d", m.LockCount())
	}
}

func TestExclusiveBlocksUntilRelease(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(1, target("a"), ModeS); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- m.Acquire(2, target("a"), ModeX) }()
	select {
	case err := <-acquired:
		t.Fatalf("X lock must block while S held, got %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not woken on release")
	}
	m.ReleaseAll(2)
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	// Classic S→X upgrade deadlock: both hold S, both want X.
	m := NewManager()
	if err := m.Acquire(1, target("a"), ModeS); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, target("a"), ModeS); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 2)
	go func() { res <- m.Acquire(1, target("a"), ModeX) }()
	time.Sleep(20 * time.Millisecond)
	go func() { res <- m.Acquire(2, target("a"), ModeX) }()
	first := <-res
	if !errors.Is(first, ErrDeadlock) {
		t.Fatalf("expected a deadlock victim first, got %v", first)
	}
	// The victim aborts and releases; the survivor then acquires. We
	// don't know which transaction was the victim, so release both S
	// locks — the survivor re-blocks only on locks that exist.
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	if err := <-res; err != nil {
		t.Fatalf("survivor should acquire after victim release: %v", err)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
}

func TestIntentionLocksAllowDisjointWriters(t *testing.T) {
	m := NewManager()
	rel := core.RelationTarget("t")
	if err := m.Acquire(1, rel, ModeIX); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, rel, ModeIX); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, target("a"), ModeX); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, target("b"), ModeX); err != nil {
		t.Fatal(err)
	}
	// But a relation S lock conflicts with the IX holders.
	blocked := make(chan error, 1)
	go func() { blocked <- m.Acquire(3, rel, ModeS) }()
	select {
	case err := <-blocked:
		t.Fatalf("relation S must wait for IX holders, got %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}

func TestPageSplitCopiesHolders(t *testing.T) {
	m := NewManager()
	left := core.PageTarget("idx", 1)
	right := core.PageTarget("idx", 2)
	if err := m.Acquire(1, left, ModeS); err != nil {
		t.Fatal(err)
	}
	m.PageSplit("idx", left, right)
	if m.HeldMode(1, right) != ModeS {
		t.Fatalf("split must copy S lock, got %v", m.HeldMode(1, right))
	}
}

func TestReacquireIsIdempotent(t *testing.T) {
	m := NewManager()
	for i := 0; i < 5; i++ {
		if err := m.Acquire(1, target("a"), ModeS); err != nil {
			t.Fatal(err)
		}
	}
	if m.LockCount() != 1 {
		t.Fatalf("lock count = %d, want 1", m.LockCount())
	}
}
