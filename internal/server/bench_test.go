package server

import (
	"testing"

	"pgssi"
)

// BenchmarkRoundTrip is what one request costs a client over loopback
// TCP, engine included: a Get of one row and a Scan of 1000. Both run in
// one read-only RepeatableRead transaction, so the engine's share is a
// plain snapshot read and the rest is wire + server.
func BenchmarkRoundTrip(b *testing.B) {
	db := scanTable(b, 1000)
	srv, dial := startServer(b, db, Config{})
	defer srv.Shutdown()
	c := dial()
	defer c.Close()
	h, st := c.Begin(pgssi.RepeatableRead, true, false)
	if !st.OK() {
		b.Fatal(st)
	}
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, st := c.Get(h, "kv", "k000500"); !st.OK() {
				b.Fatal(st)
			}
		}
	})
	b.Run("scan1000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rows, st := c.Scan(h, "kv", "", "", 0); !st.OK() || len(rows) != 1000 {
				b.Fatal(len(rows), st)
			}
		}
	})
}
