// Package s2pl implements the strict two-phase locking baseline used in
// the paper's evaluation (§8): a heavyweight lock manager with classic
// multigranularity modes (IS, IX, S, SIX, X) over the same relation /
// page / tuple targets as the SSI lock manager, blocking lock waits, and
// waits-for deadlock detection.
//
// The paper's S2PL implementation "reuses our SSI lock manager's support
// for index-range and multigranularity locking; rather than acquiring
// SIREAD locks, it instead acquires 'classic' read locks in the
// heavyweight lock manager, as well as the appropriate intention locks."
// This package is that heavyweight lock manager; the engine drives it
// with the same read/write footprints it feeds the SSI layer.
package s2pl

import (
	"fmt"
	"sync"

	"pgssi/internal/core"
	"pgssi/internal/mvcc"
	"pgssi/internal/waitgraph"
)

// Mode is a multigranularity lock mode.
type Mode int8

// Lock modes in increasing strength order (for reporting only; actual
// semantics come from the compatibility matrix).
const (
	ModeNone Mode = iota
	ModeIS        // intention shared
	ModeIX        // intention exclusive
	ModeS         // shared
	ModeSIX       // shared + intention exclusive
	ModeX         // exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeIS:
		return "IS"
	case ModeIX:
		return "IX"
	case ModeS:
		return "S"
	case ModeSIX:
		return "SIX"
	case ModeX:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int8(m))
	}
}

// compatible reports whether two modes held by different transactions can
// coexist on one target (the standard Gray et al. matrix).
func compatible(a, b Mode) bool {
	switch a {
	case ModeNone:
		return true
	case ModeIS:
		return b != ModeX
	case ModeIX:
		return b == ModeNone || b == ModeIS || b == ModeIX
	case ModeS:
		return b == ModeNone || b == ModeIS || b == ModeS
	case ModeSIX:
		return b == ModeNone || b == ModeIS
	case ModeX:
		return b == ModeNone
	default:
		return false
	}
}

// combine returns the weakest single mode that grants both a and b to one
// holder (lock conversion / upgrade).
func combine(a, b Mode) Mode {
	if a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	switch {
	case a == ModeNone:
		return b
	case a == ModeIS:
		return b
	case a == ModeIX && b == ModeS:
		return ModeSIX
	case a == ModeIX && b == ModeSIX:
		return ModeSIX
	case a == ModeIX && b == ModeX:
		return ModeX
	case a == ModeS && b == ModeSIX:
		return ModeSIX
	case a == ModeS && b == ModeX:
		return ModeX
	case a == ModeSIX && b == ModeX:
		return ModeX
	default:
		return ModeX
	}
}

// covers reports whether holding a implies the rights of b.
func covers(a, b Mode) bool {
	return combine(a, b) == a
}

// ErrDeadlock is returned to a lock requester chosen as a deadlock
// victim. It aliases waitgraph.ErrDeadlock.
var ErrDeadlock = waitgraph.ErrDeadlock

type entry struct {
	holders map[mvcc.TxID]Mode
}

// Manager is the heavyweight lock manager. A single mutex plus a single
// broadcast condition variable serialize the lock table; waiters re-check
// after every release.
type Manager struct {
	mu    sync.Mutex //ssi:lock level=10 name=s2pl.table
	cond  *sync.Cond
	locks map[core.Target]*entry
	held  map[mvcc.TxID]map[core.Target]Mode
	wg    *waitgraph.Graph
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	m := &Manager{
		locks: make(map[core.Target]*entry),
		held:  make(map[mvcc.TxID]map[core.Target]Mode),
		wg:    waitgraph.New(),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Acquire takes (or upgrades to) mode on target for xid, blocking until
// compatible. If blocking would deadlock, the request fails with
// ErrDeadlock and the caller must abort the transaction; held locks stay
// held until ReleaseAll, per strict two-phase locking.
func (m *Manager) Acquire(xid mvcc.TxID, target core.Target, mode Mode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		e := m.locks[target]
		if e == nil {
			e = &entry{holders: make(map[mvcc.TxID]Mode)}
			m.locks[target] = e
		}
		held := e.holders[xid]
		if covers(held, mode) {
			return nil
		}
		want := combine(held, mode)
		var blockers []mvcc.TxID
		for h, hm := range e.holders {
			if h != xid && !compatible(want, hm) {
				blockers = append(blockers, h)
			}
		}
		if len(blockers) == 0 {
			e.holders[xid] = want
			hm := m.held[xid]
			if hm == nil {
				hm = make(map[core.Target]Mode)
				m.held[xid] = hm
			}
			hm[target] = want
			return nil
		}
		if err := m.wg.Wait(xid, blockers...); err != nil {
			m.wg.Done(xid)
			return err
		}
		m.cond.Wait()
		m.wg.Done(xid)
	}
}

// ReleaseAll drops every lock held by xid and wakes waiters. Called at
// commit or abort (strict 2PL releases nothing earlier).
func (m *Manager) ReleaseAll(xid mvcc.TxID) {
	m.mu.Lock()
	for target := range m.held[xid] {
		if e := m.locks[target]; e != nil {
			delete(e.holders, xid)
			if len(e.holders) == 0 {
				delete(m.locks, target)
			}
		}
	}
	delete(m.held, xid)
	m.mu.Unlock()
	m.wg.Done(xid)
	m.cond.Broadcast()
}

// PageSplit copies every holder's lock mode from the left page target to
// the right one after an index leaf split, so readers' shared page locks
// keep covering entries (and gaps) that moved to the new page. The SSI
// lock manager does the same for SIREAD locks.
func (m *Manager) PageSplit(rel string, left, right core.Target) {
	m.mu.Lock()
	defer m.mu.Unlock()
	le := m.locks[left]
	if le == nil || len(le.holders) == 0 {
		return
	}
	re := m.locks[right]
	if re == nil {
		re = &entry{holders: make(map[mvcc.TxID]Mode)}
		m.locks[right] = re
	}
	for h, hm := range le.holders {
		re.holders[h] = combine(re.holders[h], hm)
		if held := m.held[h]; held != nil {
			held[right] = re.holders[h]
		}
	}
}

// HeldMode returns the mode xid holds on target (ModeNone if none).
func (m *Manager) HeldMode(xid mvcc.TxID, target core.Target) Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.held[xid][target]
}

// LockCount returns the number of (target, holder) pairs currently held.
func (m *Manager) LockCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, hm := range m.held {
		n += len(hm)
	}
	return n
}
