package wire

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"pgssi"
)

// TestBeginNumberingMismatchPoisons: a server that answers a Begin with
// a handle other than the one the numbering rule gives it has broken the
// contract the client's queued requests rely on, and the client stops at
// the next call, which reads the answer — read-only Begin or read-write.
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
		if !st.OK() || h != 1 {
			t.Fatalf("read-only %v: queued begin: handle %d, %v; want handle 1, ok", readOnly, h, st)
		}
		_, st = c.Get(h, "kv", "k")
		if st != pgssi.StatusNetwork || c.Err() == nil || !strings.Contains(c.Err().Error(), "handle 7, expected 1") {
			t.Fatalf("read-only %v: %v, %v; want the client poisoned", readOnly, st, c.Err())
		}
		if st := c.Ping(); st != pgssi.StatusNetwork {
			t.Fatalf("read-only %v: poisoned client answered %v", readOnly, st)
		}
		c.Close()
	}
}

// TestSettledCommitFailurePoisons: the Commit of a handle whose last
// answer carried the settled flag returns ok without waiting for its
// answer, and when that answer turns out to be a failure the server has
// broken its promise: the next call finds the client poisoned.
func TestSettledCommitFailurePoisons(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		// A peer that promises every read-only handle settled, fails its
		// Commit, and answers that Commit only behind the next request.
		defer server.Close()
		br := bufio.NewReader(server)
		var held []byte
		for {
			body, err := ReadFrame(br, nil)
			if err != nil {
				return
			}
			req, err := DecodeRequest(body)
			if err != nil {
				return
			}
			resp := Response{Status: pgssi.StatusOK, Settled: true}
			switch req.Op {
			case OpBegin:
				resp.Handle = 1
			case OpGet:
				resp.Value, resp.Found = []byte("v"), true
			case OpCommit:
				held = AppendResponse(nil, &Response{Status: pgssi.StatusSerializationFailure})
				continue
			default:
				resp.Settled = false
			}
			if held != nil {
				if WriteFrame(server, held) != nil {
					return
				}
				held = nil
			}
			if WriteFrame(server, AppendResponse(nil, &resp)) != nil {
				return
			}
		}
	}()
	c := NewClient(client, DialOptions{Timeout: 5 * time.Second})
	defer c.Close()
	h, st := c.Begin(pgssi.Serializable, true, false)
	if !st.OK() {
		t.Fatalf("begin: %v", st)
	}
	if _, st := c.Get(h, "kv", "k"); !st.OK() {
		t.Fatalf("get: %v", st)
	}
	if st := c.Commit(h); !st.OK() {
		t.Fatalf("settled commit: %v (%v), want ok without waiting", st, c.Err())
	}
	if st := c.Ping(); st != pgssi.StatusNetwork || c.Err() == nil || !strings.Contains(c.Err().Error(), "settled Commit of handle 1") {
		t.Fatalf("call after a failed settled commit: %v, %v; want the client poisoned", st, c.Err())
	}
}
