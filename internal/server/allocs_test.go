//go:build !race

package server

import (
	"testing"

	"pgssi"
	"pgssi/internal/wire"
)

// TestGetDispatchAllocs: serving a Get — decode the request, run it on
// the session, encode the response into the connection's reused frame —
// allocates the decoded request's two strings and whatever a repeated
// read costs the engine (nothing today; one is allowed for): the
// transport itself adds nothing per request. The race detector
// changes allocation counts, so this runs without it.
func TestGetDispatchAllocs(t *testing.T) {
	db := scanTable(t, 100)
	srv := New(db, Config{})
	sess := db.NewSession()
	defer sess.Close()
	h, st := sess.Begin(pgssi.Serializable, false, false)
	if !st.OK() {
		t.Fatal(st)
	}
	body := wire.AppendRequest(nil, &wire.Request{Op: wire.OpGet, Handle: h, Table: "kv", Key: "k000042"})
	var out []byte
	serve := func() {
		req, err := wire.DecodeRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		out = srv.dispatch(sess, &req, wire.BeginFrame(out[:0]))
		if err := wire.FinishFrame(out); err != nil {
			t.Fatal(err)
		}
	}
	serve() // the first read of a key takes its SIREAD lock
	allocs := testing.AllocsPerRun(200, serve)
	if allocs > 3 {
		t.Fatalf("serving a Get allocates %.0f times, want at most 3", allocs)
	}
}
