//go:build !race

package core

import (
	"testing"
	"time"
)

// TestReadOnlyBeginAllocs: a read-only Serializable Begin walks the
// running transactions to decide its snapshot's safety (§4.2), so what
// it costs must not grow with the committed writers the horizon retains.
// With one running writer, a read-only Begin+Commit must allocate the
// same with 0, 1 000 and 10 000 retained committed writers. The race
// detector changes allocation counts, so this runs without it.
func TestReadOnlyBeginAllocs(t *testing.T) {
	measure := func(retained int) float64 {
		h := newHarness(t, Config{})
		w := h.begin(false) // running: pins the horizon, watched by every reader
		for i := range retained {
			c := h.begin(false)
			if err := h.write(c, "t", int64(i), "k"); err != nil {
				t.Fatal(err)
			}
			if err := h.commit(c); err != nil {
				t.Fatal(err)
			}
		}
		if n := h.mgr.TrackedXacts(); n != retained+1 {
			t.Fatalf("%d transactions attached, want %d retained writers and the running one", n, retained+1)
		}
		ro := func() {
			x := h.begin(true)
			if err := h.commit(x); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, ro)
		const timed = 2000
		start := time.Now()
		for range timed {
			ro()
		}
		t.Logf("%5d retained writers: %.0f allocs, %v per read-only Begin+Commit", retained, allocs, time.Since(start)/timed)
		h.abort(w)
		return allocs
	}
	base := measure(0)
	for _, retained := range []int{1000, 10000} {
		if got := measure(retained); got != base {
			t.Errorf("read-only Begin+Commit allocates %.0f times with %d retained writers, %.0f with none", got, retained, base)
		}
	}
}
