//go:build !race

package wire

import "testing"

// TestRowResponseAllocs: encoding a 1000-row response into a reused
// buffer and decoding it costs the two allocations the row data needs
// (one copy of the row bytes, the row slice) — not two per row. The race
// detector changes allocation counts, so this runs without it.
func TestRowResponseAllocs(t *testing.T) {
	resp := manyRows(1000)
	buf := AppendResponse(nil, &resp)
	allocs := testing.AllocsPerRun(50, func() {
		buf = AppendResponse(buf[:0], &resp)
		if _, err := DecodeResponse(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("encode+decode of a 1000-row response: %.0f allocations, want at most 2", allocs)
	}
}
