//go:build !race

package wire

import "testing"

// TestRowResponseAllocs: encoding a 1000-row response into a reused
// buffer and decoding it costs the three allocations the row data needs
// (key arena, value arena, the row slice) — not two per row. The race
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
	if allocs > 3 {
		t.Fatalf("encode+decode of a 1000-row response: %.0f allocations, want at most 3", allocs)
	}
}
