package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
	"time"

	"pgssi"
)

// writeLog records every Write it is given.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// manyRows is a scan response of n small rows, the shape of the
// benchmark's 1000-row report.
func manyRows(n int) Response {
	rows := make([]pgssi.KV, n)
	for i := range rows {
		rows[i] = pgssi.KV{Key: fmt.Sprintf("key%09d", i), Value: []byte(fmt.Sprintf("%d", 1000+i))}
	}
	return Response{Status: pgssi.StatusOK, Rows: rows}
}

// TestWriteFrameIsOneWrite: a frame leaves in a single Write whichever
// way it is built, and both ways produce the same bytes.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, body := range [][]byte{{}, []byte("x"), bytes.Repeat([]byte("row"), 7000)} {
		var w writeLog
		if err := WriteFrame(&w, body); err != nil {
			t.Fatal(err)
		}
		if len(w.writes) != 1 {
			t.Fatalf("WriteFrame of a %d-byte body made %d writes, want 1", len(body), len(w.writes))
		}
		inPlace := append(BeginFrame(nil), body...)
		if err := FinishFrame(inPlace); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(inPlace, w.writes[0]) {
			t.Fatalf("BeginFrame/FinishFrame and WriteFrame disagree on a %d-byte body", len(body))
		}
		got, err := ReadFrame(bytes.NewReader(w.writes[0]), nil)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("frame of a %d-byte body read back as %d bytes, err %v", len(body), len(got), err)
		}
	}
	if err := FinishFrame(make([]byte, frameHeader+MaxFrame)); err != ErrFrameTooLarge {
		t.Fatalf("FinishFrame of an oversized body: %v, want ErrFrameTooLarge", err)
	}
}

// TestReadFrameFragmented: however the bytes of a stream of frames
// trickle in, ReadFrame returns the same bodies — read directly or
// through the buffered reader the server and the clients use.
func TestReadFrameFragmented(t *testing.T) {
	big := manyRows(1000)
	bodies := [][]byte{
		AppendRequest(nil, &Request{Op: OpPing}),
		AppendRequest(nil, &Request{Op: OpPut, Handle: 3, Table: "kv", Key: "k", Value: []byte("v")}),
		AppendResponse(nil, &big),
		{},
	}
	var stream bytes.Buffer
	for _, b := range bodies {
		if err := WriteFrame(&stream, b); err != nil {
			t.Fatal(err)
		}
	}
	fragmenters := map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
		"dataerr": iotest.DataErrReader,
	}
	for name, fragment := range fragmenters {
		for _, buffered := range []bool{false, true} {
			r := fragment(bytes.NewReader(stream.Bytes()))
			if buffered {
				r = bufio.NewReader(r)
			}
			var scratch []byte
			for i, want := range bodies {
				got, err := ReadFrame(r, scratch)
				if err != nil {
					t.Fatalf("%s buffered=%v: frame %d: %v", name, buffered, i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s buffered=%v: frame %d differs", name, buffered, i)
				}
				scratch = got[:0]
			}
			if _, err := ReadFrame(r, scratch); err != io.EOF {
				t.Fatalf("%s buffered=%v: after the last frame: %v, want io.EOF", name, buffered, err)
			}
		}
	}
}

// TestRowsResponseMatchesAppendResponse: rows appended one by one give
// the bytes AppendResponse gives for the collected slice, after whatever
// the buffer already held, settled flag included; a failed scan gives
// the empty row list the server has always sent with an error status.
func TestRowsResponseMatchesAppendResponse(t *testing.T) {
	for _, n := range []int{0, 1, 1000} {
		resp := manyRows(n)
		for _, settled := range []bool{false, true} {
			rr := BeginRowsResponse(BeginFrame(nil))
			for _, kv := range resp.Rows {
				rr.AppendRow(kv.Key, kv.Value)
			}
			got := rr.Finish(pgssi.StatusOK, settled)
			resp.Settled = settled
			if want := AppendResponse(BeginFrame(nil), &resp); !bytes.Equal(got, want) {
				t.Fatalf("%d rows, settled %v: RowsResponse and AppendResponse disagree", n, settled)
			}
		}

		rr := BeginRowsResponse(nil)
		for _, kv := range resp.Rows {
			rr.AppendRow(kv.Key, kv.Value)
		}
		got := rr.Finish(pgssi.StatusSerializationFailure, false)
		want := AppendResponse(nil, &Response{Status: pgssi.StatusSerializationFailure, Rows: []pgssi.KV{}})
		if !bytes.Equal(got, want) {
			t.Fatalf("%d rows, failed scan: got % x want % x", n, got, want)
		}
	}
}

// TestRowsFrameGolden pins the bytes of a rows-carrying frame built the
// server's way (BeginFrame, RowsResponse, FinishFrame): taken from the
// encoder as it was before AppendRow stopped going through enc, and the
// decoder must still read them.
func TestRowsFrameGolden(t *testing.T) {
	const golden = "0000002001a815ce06000400000003026b310276310000096b65792d74687265650200ff"
	rr := BeginRowsResponse(BeginFrame(nil))
	rr.AppendRow("k1", []byte("v1"))
	rr.AppendRow("", nil)
	rr.AppendRow("key-three", []byte{0, 0xff})
	frame := rr.Finish(pgssi.StatusOK, false)
	if err := FinishFrame(frame); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame); got != golden {
		t.Fatalf("frame bytes changed:\n got %s\nwant %s", got, golden)
	}
	body, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(body)
	if err != nil || len(resp.Rows) != 3 || resp.Rows[0].Key != "k1" || resp.Rows[1].Key != "" || resp.Rows[1].Value != nil ||
		resp.Rows[2].Key != "key-three" || !bytes.Equal(resp.Rows[2].Value, []byte{0, 0xff}) {
		t.Fatalf("golden frame decodes to %+v, %v", resp, err)
	}
}

// TestAbortOnErrorPutFrameGolden pins the bytes of a queued Put's frame,
// built the client's way (BeginFrame, AppendRequest, FinishFrame) after
// another frame in the same buffer: the unflagged Put layout behind an
// opcode byte of 0x83 (Put | 0x80), written out by hand.
func TestAbortOnErrorPutFrameGolden(t *testing.T) {
	const golden = "00000017" + "01" + "248c4c60" + // length 23, version, CRC
		"83" + "0000000000000003" + "02" + "6b76" + "02" + "6b31" + "02" + "7631" // op, handle 3, "kv", "k1", "v1"
	req := Request{Op: OpPut, AbortOnError: true, Handle: 3, Table: "kv", Key: "k1", Value: []byte("v1")}
	buf := AppendRequest(BeginFrame(nil), &Request{Op: OpPing})
	if err := FinishFrame(buf); err != nil {
		t.Fatal(err)
	}
	start := len(buf)
	buf = AppendRequest(BeginFrame(buf), &req)
	if err := FinishFrame(buf[start:]); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf[start:]); got != golden {
		t.Fatalf("frame bytes changed:\n got %s\nwant %s", got, golden)
	}
	r := bytes.NewReader(buf)
	if _, err := ReadFrame(r, nil); err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(body)
	if err != nil || !got.AbortOnError || got.Op != OpPut || got.Handle != 3 || got.Table != "kv" || got.Key != "k1" || string(got.Value) != "v1" {
		t.Fatalf("golden frame decodes to %+v, %v", got, err)
	}
	unflagged := AppendRequest(nil, &Request{Op: OpPut, Handle: 3, Table: "kv", Key: "k1", Value: []byte("v1")})
	if !bytes.Equal(unflagged[1:], body[1:]) || unflagged[0] != byte(OpPut) {
		t.Fatalf("the flag changed more than the opcode byte: % x vs % x", unflagged, body)
	}
}

// TestFrameBuffered: a whole frame is reported buffered only once its
// last byte is in the reader's buffer.
func TestFrameBuffered(t *testing.T) {
	frame := AppendRequest(BeginFrame(nil), &Request{Op: OpGet, Handle: 1, Table: "kv", Key: "k"})
	if err := FinishFrame(frame); err != nil {
		t.Fatal(err)
	}
	stream := append(append([]byte(nil), frame...), frame[:len(frame)-1]...)
	br := bufio.NewReader(bytes.NewReader(stream))
	if FrameBuffered(br) {
		t.Fatal("empty reader reports a frame")
	}
	br.Peek(len(stream)) // fill the buffer
	if !FrameBuffered(br) {
		t.Fatal("whole frame not reported")
	}
	if _, err := ReadFrame(br, nil); err != nil {
		t.Fatal(err)
	}
	if FrameBuffered(br) {
		t.Fatal("a frame short of its last byte reported whole")
	}
}

// TestDecodeResponseRowArenas: decoded rows are views into one copy of
// the row bytes, keys and values side by side, and that must not show:
// nothing aliases the frame buffer the client is about to reuse, and
// writing or appending to one row's Value leaves its own key and the
// other rows alone.
func TestDecodeResponseRowArenas(t *testing.T) {
	in := manyRows(50)
	in.Rows[7].Value = nil // an empty value between full ones
	body := AppendResponse(nil, &in)
	resp, err := DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xAA // the next frame overwrites the buffer
	}
	check := func(when string, skip int) {
		t.Helper()
		for i, kv := range resp.Rows {
			if i != skip && (kv.Key != in.Rows[i].Key || !bytes.Equal(kv.Value, in.Rows[i].Value)) {
				t.Fatalf("%s: row %d is %q=%q, want %q=%q", when, i, kv.Key, kv.Value, in.Rows[i].Key, in.Rows[i].Value)
			}
		}
	}
	check("after the frame buffer was overwritten", -1)

	for i := range resp.Rows {
		if v := resp.Rows[i].Value; cap(v) != len(v) {
			t.Fatalf("row %d: cap %d > len %d lets append run into the next row", i, cap(v), len(v))
		}
	}
	grown := append(resp.Rows[3].Value, "-and-more"...)
	for i := range resp.Rows[3].Value {
		resp.Rows[3].Value[i] = '!'
	}
	check("after writing and appending to row 3", 3)
	if resp.Rows[3].Key != in.Rows[3].Key {
		t.Fatalf("writing row 3's value changed its key to %q", resp.Rows[3].Key)
	}
	if !bytes.HasSuffix(grown, []byte("-and-more")) {
		t.Fatalf("append result %q", grown)
	}
	// Appending to the empty value must not reach into the arena either.
	_ = append(resp.Rows[7].Value, "zzzz"...)
	check("after appending to the empty row 7", 3)
}

// TestCoarseDeadline: the deadline is set on first use, left alone until
// a quarter of the timeout has passed, and always leaves at least the
// timeout.
func TestCoarseDeadline(t *testing.T) {
	const timeout = 8 * time.Second
	d := CoarseDeadline{Timeout: timeout}
	t0 := time.Unix(1000, 0)
	sets := 0
	var deadline time.Time
	for now := t0; now.Before(t0.Add(10 * timeout)); now = now.Add(timeout / 16) {
		if at, ok := d.Next(now); ok {
			deadline = at
			sets++
		}
		if left := deadline.Sub(now); left < timeout || left > timeout+timeout/rearmFraction {
			t.Fatalf("at +%v the deadline leaves %v, want %v..%v", now.Sub(t0), left, timeout, timeout+timeout/rearmFraction)
		}
	}
	if want := 10 * rearmFraction; sets != want {
		t.Fatalf("deadline set %d times in 10 timeouts, want %d", sets, want)
	}
	var off CoarseDeadline
	if _, ok := off.Next(t0); ok {
		t.Fatal("zero CoarseDeadline armed")
	}
}
