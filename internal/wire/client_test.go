package wire

import (
	"bufio"
	"net"
	"strings"
	"testing"

	"pgssi"
)

// TestBeginNumberingMismatchPoisons: a server that answers a Begin with
// a handle other than the one the numbering rule gives it has broken the
// contract the client's queued requests rely on, and the client stops —
// whether the Begin was queued or waited for.
func TestBeginNumberingMismatchPoisons(t *testing.T) {
	for _, readOnly := range []bool{false, true} {
		client, server := net.Pipe()
		go func() {
			// A peer that numbers its handles from 7.
			defer server.Close()
			br := bufio.NewReader(server)
			for {
				body, err := ReadFrame(br, nil)
				if err != nil {
					return
				}
				req, err := DecodeRequest(body)
				if err != nil {
					return
				}
				resp := Response{Status: pgssi.StatusOK}
				if req.Op == OpBegin {
					resp.Handle = 7
				}
				if WriteFrame(server, AppendResponse(nil, &resp)) != nil {
					return
				}
			}
		}()
		c := NewClient(client, DialOptions{})
		h, st := c.Begin(pgssi.Serializable, readOnly, false)
		if !readOnly {
			if !st.OK() || h != 1 {
				t.Fatalf("queued begin: handle %d, %v; want handle 1, ok", h, st)
			}
			_, st = c.Get(h, "kv", "k")
		}
		if st != pgssi.StatusNetwork || c.Err() == nil || !strings.Contains(c.Err().Error(), "handle 7, expected 1") {
			t.Fatalf("read-only %v: %v, %v; want the client poisoned", readOnly, st, c.Err())
		}
		if st := c.Ping(); st != pgssi.StatusNetwork {
			t.Fatalf("read-only %v: poisoned client answered %v", readOnly, st)
		}
		c.Close()
	}
}
