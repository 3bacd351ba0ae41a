package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"strings"
	"testing"

	"pgssi"
)

// sampleRequests covers every opcode with non-trivial field values.
func sampleRequests() []Request {
	return []Request{
		{Op: OpBegin, Isolation: pgssi.Serializable, Flags: FlagReadOnly | FlagDeferrable},
		{Op: OpBegin, Isolation: pgssi.SerializableS2PL},
		{Op: OpGet, Handle: 7, Table: "kv", Key: "alpha"},
		{Op: OpPut, Handle: 1 << 40, Table: "kv", Key: "k", Value: []byte{0, 1, 2, 0xff}},
		{Op: OpInsert, Handle: 2, Table: "t", Key: "", Value: []byte{}},
		{Op: OpUpdate, Handle: 3, Table: "t", Key: "k\x00weird", Value: []byte("v")},
		{Op: OpDelete, Handle: 4, Table: "t", Key: "k"},
		{Op: OpScan, Handle: 5, Table: "kv", Key: "a", Hi: "z", Limit: 128},
		{Op: OpCommit, Handle: 6},
		{Op: OpRollback, Handle: 8},
		{Op: OpSavepoint, Handle: 9, Key: "sp1"},
		{Op: OpReleaseSavepoint, Handle: 9, Key: "sp1"},
		{Op: OpRollbackToSavepoint, Handle: 9, Key: "sp1"},
		{Op: OpCreateTable, Table: "newtable"},
		{Op: OpPing},
		{Op: OpPut, AbortOnError: true, Handle: 11, Table: "kv", Key: "q", Value: []byte("queued")},
	}
}

// TestAbortOnErrorOnlyOnPut: the opcode's top bit decodes on Put and is
// a malformed message on every other opcode.
func TestAbortOnErrorOnlyOnPut(t *testing.T) {
	for op := OpBegin; op < opMax; op++ {
		body := []byte{uint8(op) | abortOnError}
		for _, req := range sampleRequests() {
			if req.Op == op {
				body = AppendRequest(nil, &req)
				body[0] |= abortOnError
				break
			}
		}
		req, err := DecodeRequest(body)
		if op == OpPut {
			if err != nil || !req.AbortOnError {
				t.Fatalf("flagged Put: %+v, %v", req, err)
			}
			continue
		}
		if !errors.Is(err, ErrBadMessage) {
			t.Fatalf("flagged %v: %v, want ErrBadMessage", op, err)
		}
	}
}

func sampleResponses() []Response {
	return []Response{
		{Status: pgssi.StatusOK},
		{Status: pgssi.StatusOK, Handle: 42},
		{Status: pgssi.StatusOK, Handle: 43, Settled: true},
		{Status: pgssi.StatusOK, Value: []byte("hello"), Found: true},
		{Status: pgssi.StatusOK, Value: []byte("hello"), Found: true, Settled: true},
		{Status: pgssi.StatusNotFound},
		{Status: pgssi.StatusSerializationFailure},
		{Status: pgssi.StatusOK, Rows: []pgssi.KV{}},
		{Status: pgssi.StatusOK, Rows: []pgssi.KV{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte{}}}},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		body := AppendRequest(nil, &req)
		got, err := DecodeRequest(body)
		if err != nil {
			t.Fatalf("%v: decode: %v", req.Op, err)
		}
		// Encode normalizes nil vs empty Value; compare re-encoded.
		if !bytes.Equal(AppendRequest(nil, &got), body) {
			t.Fatalf("%v: round trip mismatch:\n in: %+v\nout: %+v", req.Op, req, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for i, resp := range sampleResponses() {
		body := AppendResponse(nil, &resp)
		got, err := DecodeResponse(body)
		if err != nil {
			t.Fatalf("resp %d: decode: %v", i, err)
		}
		if got.Status != resp.Status || got.Handle != resp.Handle || got.Found != resp.Found || got.Settled != resp.Settled ||
			!bytes.Equal(got.Value, resp.Value) || len(got.Rows) != len(resp.Rows) {
			t.Fatalf("resp %d mismatch:\n in: %+v\nout: %+v", i, resp, got)
		}
		for j := range resp.Rows {
			if got.Rows[j].Key != resp.Rows[j].Key || !bytes.Equal(got.Rows[j].Value, resp.Rows[j].Value) {
				t.Fatalf("resp %d row %d mismatch", i, j)
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{{}, {1}, []byte(strings.Repeat("x", 4096))}
	for _, b := range bodies {
		if err := WriteFrame(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for _, want := range bodies {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: got %d bytes want %d", len(got), len(want))
		}
		scratch = got[:0]
	}
}

// TestFrameCorruption flips every byte position of a framed message and
// requires ReadFrame to reject the change (or, for length-field edits
// that still parse, to not return the original body as valid) — and
// never to panic.
func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	body := AppendRequest(nil, &Request{Op: OpPut, Handle: 9, Table: "kv", Key: "key", Value: []byte("value")})
	if err := WriteFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	framed := buf.Bytes()
	for pos := 0; pos < len(framed); pos++ {
		for _, delta := range []byte{0x01, 0x80, 0xff} {
			corrupt := append([]byte(nil), framed...)
			corrupt[pos] ^= delta
			got, err := ReadFrame(bytes.NewReader(corrupt), nil)
			if err == nil && bytes.Equal(got, body) {
				t.Fatalf("corruption at byte %d (^%#x) went undetected", pos, delta)
			}
		}
	}
}

// TestFrameLimits exercises the length-field edges: a huge advertised
// length must fail fast without attempting the allocation, and a length
// below the header overhead must fail.
func TestFrameLimits(t *testing.T) {
	var hdr [9]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(MaxFrame+1))
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: got %v", err)
	}
	binary.BigEndian.PutUint32(hdr[0:4], 4) // < frame overhead
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); err != ErrTruncated {
		t.Fatalf("undersized frame: got %v", err)
	}
	binary.BigEndian.PutUint32(hdr[0:4], 100) // truncated stream
	hdr[4] = Version
	stream := append(append([]byte(nil), hdr[:]...), 'x') // partial body
	if _, err := ReadFrame(bytes.NewReader(stream), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: got %v", err)
	}
	hdr2 := [9]byte{}
	binary.BigEndian.PutUint32(hdr2[0:4], 5)
	hdr2[4] = Version + 1
	if _, err := ReadFrame(bytes.NewReader(hdr2[:]), nil); err == nil {
		t.Fatal("wrong version accepted")
	}
}

// TestDecodeMalformedNoPanic drives the message decoders with random
// mutations of valid bodies and pure noise; any outcome but a panic is
// acceptable, and errors must be returned (not swallowed) for truncated
// prefixes of valid messages.
func TestDecodeMalformedNoPanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	var seeds [][]byte
	for _, req := range sampleRequests() {
		seeds = append(seeds, AppendRequest(nil, &req))
	}
	for _, resp := range sampleResponses() {
		seeds = append(seeds, AppendResponse(nil, &resp))
	}
	for iter := 0; iter < 20000; iter++ {
		var b []byte
		switch iter % 3 {
		case 0: // mutate a valid body
			src := seeds[rng.IntN(len(seeds))]
			b = append([]byte(nil), src...)
			for n := rng.IntN(4) + 1; n > 0 && len(b) > 0; n-- {
				b[rng.IntN(len(b))] ^= byte(1 << rng.IntN(8))
			}
		case 1: // truncate a valid body
			src := seeds[rng.IntN(len(seeds))]
			b = src[:rng.IntN(len(src)+1)]
		default: // noise
			b = make([]byte, rng.IntN(64))
			for i := range b {
				b[i] = byte(rng.Uint32())
			}
		}
		DecodeRequest(b)  // must not panic
		DecodeResponse(b) // must not panic
	}
	// Truncated prefixes of valid messages must error.
	rows := manyRows(3)
	rowsBody := AppendResponse(nil, &rows)
	for i := 0; i < len(rowsBody); i++ {
		if _, err := DecodeResponse(rowsBody[:i]); err == nil {
			t.Fatalf("truncated rows response prefix of length %d decoded without error", i)
		}
	}
	full := AppendRequest(nil, &Request{Op: OpScan, Handle: 1, Table: "t", Key: "a", Hi: "b", Limit: 10})
	for i := 1; i < len(full); i++ {
		if _, err := DecodeRequest(full[:i]); err == nil {
			t.Fatalf("truncated request prefix of length %d decoded without error", i)
		}
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(AppendRequest(nil, &req))
	}
	// The abort-on-error bit where it is illegal.
	f.Add(append([]byte{uint8(OpGet) | abortOnError}, AppendRequest(nil, &Request{Op: OpGet, Handle: 1, Table: "kv", Key: "k"})[1:]...))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(body)
		if err != nil {
			return
		}
		// A decodable request must re-encode decodably (round-trip
		// stability), still without panicking.
		if _, err := DecodeRequest(AppendRequest(nil, &req)); err != nil {
			t.Fatalf("re-encode of decoded request failed: %v", err)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range sampleResponses() {
		f.Add(AppendResponse(nil, &resp))
	}
	// Rows cut short at every kind of place: inside a length, a key, a
	// value, between rows, and with the count promising more than follows.
	rows := manyRows(3)
	rows.HasSeqs, rows.AppliedSeq, rows.SafeSeq = true, 7, 5
	full := AppendResponse(nil, &rows)
	for cut := 2; cut < len(full); cut++ {
		f.Add(full[:cut])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := DecodeResponse(body)
		if err != nil {
			return
		}
		again := AppendResponse(nil, &resp)
		if _, err := DecodeResponse(again); err != nil {
			t.Fatalf("re-encode of decoded response failed: %v", err)
		}
		// The result is the caller's: the frame buffer it was decoded
		// from is reused for the next frame.
		for i := range body {
			body[i] ^= 0xff
		}
		if !bytes.Equal(AppendResponse(nil, &resp), again) {
			t.Fatal("decoded response changed when the body it came from was overwritten")
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, []byte("hello"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 5, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		ReadFrame(bytes.NewReader(stream), nil) // must not panic
	})
}
