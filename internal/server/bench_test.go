package server

import (
	"fmt"
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

// BenchmarkKVTxn is what the benchmark's kv transaction costs a client
// over loopback TCP: a read-write Begin, 2 Gets, 1 Put and a Commit on a
// 1000-row table. The Begin leaves with the first Get and the Put with
// the Commit, so it is three round trips.
func BenchmarkKVTxn(b *testing.B) {
	db := scanTable(b, 1000)
	srv, dial := startServer(b, db, Config{})
	defer srv.Shutdown()
	c := dial()
	defer c.Close()
	key := func(i int) string { return fmt.Sprintf("k%06d", i%1000) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, st := c.Begin(pgssi.Serializable, false, false)
		if !st.OK() {
			b.Fatal(st)
		}
		for _, k := range [2]string{key(i * 7), key(i*7 + 3)} {
			if _, st := c.Get(h, "kv", k); !st.OK() {
				b.Fatal(st)
			}
		}
		if st := c.Put(h, "kv", key(i*7+5), []byte("v")); !st.OK() {
			b.Fatal(st)
		}
		if st := c.Commit(h); !st.OK() {
			b.Fatal(st)
		}
	}
}
