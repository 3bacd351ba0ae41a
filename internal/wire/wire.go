// Package wire implements pgssi's client/server protocol: a
// length-prefixed binary framing with a protocol version byte and a
// CRC-32 integrity check, carrying the session layer's handle-based
// request/response messages (pgssi.Session; see docs/protocol.md for
// the normative format description).
//
// The encoder/decoder here is shared by the server (internal/server,
// cmd/pgssid) and the client (Client in this package). Decoding is
// defensive end to end: a malformed, truncated, corrupted, or oversized
// frame yields an error, never a panic and never an allocation sized by
// attacker-controlled lengths beyond MaxFrame.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"unsafe"

	"pgssi"
)

// Version is the protocol version carried in every frame header.
const Version = 1

// MaxFrame bounds a frame's payload (version byte + CRC + body). Frames
// advertising more are rejected before any allocation.
const MaxFrame = 16 << 20

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrBadCRC        = errors.New("wire: frame CRC mismatch")
	ErrTruncated     = errors.New("wire: truncated message")
	ErrBadMessage    = errors.New("wire: malformed message")
)

// Frame layout:
//
//	+--------------+-----------+-----------+------------------+
//	| length: u32  | ver: u8   | crc: u32  | body: length-5 B |
//	+--------------+-----------+-----------+------------------+
//
// length counts everything after itself (version + crc + body), so the
// minimum legal value is 5. All integers are big-endian. crc is the
// IEEE CRC-32 of body alone.
const (
	frameOverhead = 5
	frameHeader   = 4 + frameOverhead
)

// The transport rule of this package and of internal/server is whole
// frames, one Write: with TCP_NODELAY every Write is a segment and a
// wake-up of the peer, so a frame must never leave in pieces, and frames
// that can leave together (a client's queued requests, a server's
// answers to a burst of them) leave in one Write. Senders on the hot
// path build frames in place — BeginFrame reserves a header at the end
// of the buffer the body encoders append to, FinishFrame fills it in —
// and hand the result to a single Write; WriteFrame is the same thing
// for callers that already hold a finished body.

// BeginFrame reserves a frame header at the end of buf. The caller
// appends the body (AppendRequest, AppendResponse, ...) and completes the
// frame with FinishFrame on the slice that starts at the header.
func BeginFrame(buf []byte) []byte {
	var hdr [frameHeader]byte
	return append(buf, hdr[:]...)
}

// FinishFrame fills in the header BeginFrame reserved at the start of
// frame, in front of its body (length, version, CRC).
func FinishFrame(frame []byte) error {
	body := frame[frameHeader:]
	if len(body)+frameOverhead > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)+frameOverhead))
	frame[4] = Version
	binary.BigEndian.PutUint32(frame[5:9], crc32.ChecksumIEEE(body))
	return nil
}

// framePool holds WriteFrame's scratch frames.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame keeps a rare huge frame (a checkpoint record) from
// pinning its buffer in framePool.
const maxPooledFrame = 1 << 20

// WriteFrame writes body as one frame in a single Write.
func WriteFrame(w io.Writer, body []byte) error {
	bp := framePool.Get().(*[]byte)
	frame := append(BeginFrame(*bp), body...)
	err := FinishFrame(frame)
	if err == nil {
		_, err = w.Write(frame)
	}
	if cap(frame) <= maxPooledFrame {
		*bp = frame[:0]
	}
	framePool.Put(bp)
	return err
}

// ReadFrame reads one frame and returns its body, reusing buf when it
// is large enough. Errors are framing-fatal: the stream position is
// unknown afterwards and the connection should be closed.
//
// Hand it a buffered reader: it issues three reads per frame (length,
// rest of the header, body), which only cost one syscall when they are
// served from a buffer.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The header is read into buf too (a local array would escape
	// through r and cost an allocation per frame); the body then
	// overwrites it.
	if cap(buf) < frameHeader {
		buf = make([]byte, frameHeader)
	}
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n < frameOverhead {
		return nil, ErrTruncated
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, err
	}
	if hdr[4] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[4])
	}
	want := binary.BigEndian.Uint32(hdr[5:9])
	bodyLen := int(n) - frameOverhead
	if cap(buf) < bodyLen {
		buf = make([]byte, bodyLen)
	}
	body := buf[:bodyLen]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(body) != want {
		return nil, ErrBadCRC
	}
	return body, nil
}

// FrameBuffered reports whether br already holds a whole frame, so that
// ReadFrame on it will not wait for the network.
func FrameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint64(n) >= 4+uint64(binary.BigEndian.Uint32(hdr))
}

// Op is a request opcode.
//
//ssi:enum
type Op uint8

// Request opcodes. Values are wire-stable.
const (
	OpBegin Op = iota + 1
	OpGet
	OpPut
	OpInsert
	OpUpdate
	OpDelete
	OpScan
	OpCommit
	OpRollback
	OpSavepoint
	OpReleaseSavepoint
	OpRollbackToSavepoint
	OpCreateTable
	OpPing
	OpReplicate
	OpReplicaStatus
	OpFetchCheckpoint
	opMax
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpBegin:
		return "Begin"
	case OpGet:
		return "Get"
	case OpPut:
		return "Put"
	case OpInsert:
		return "Insert"
	case OpUpdate:
		return "Update"
	case OpDelete:
		return "Delete"
	case OpScan:
		return "Scan"
	case OpCommit:
		return "Commit"
	case OpRollback:
		return "Rollback"
	case OpSavepoint:
		return "Savepoint"
	case OpReleaseSavepoint:
		return "ReleaseSavepoint"
	case OpRollbackToSavepoint:
		return "RollbackToSavepoint"
	case OpCreateTable:
		return "CreateTable"
	case OpPing:
		return "Ping"
	case OpReplicate:
		return "Replicate"
	case OpReplicaStatus:
		return "ReplicaStatus"
	case OpFetchCheckpoint:
		return "FetchCheckpoint"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Begin flag bits.
const (
	FlagReadOnly   = 1 << 0
	FlagDeferrable = 1 << 1
)

// abortOnError is the opcode byte's top bit, legal on Put only: a Put
// whose sender did not wait for its answer, which the server follows
// with a rollback of the transaction if it fails.
const abortOnError = 0x80

// Request is one session-layer request. Which fields are meaningful
// depends on Op (see docs/protocol.md); decode leaves the rest zero.
type Request struct {
	Op     Op
	Handle pgssi.Handle

	// AbortOnError marks a Put sent without waiting for its answer: if
	// it fails, the server rolls the transaction back before answering,
	// so nothing sent behind it can commit part of the transaction.
	AbortOnError bool

	// Begin.
	Isolation pgssi.IsolationLevel
	Flags     uint8

	// Data operations.
	Table string
	Key   string // also savepoint name, and Scan's lo bound
	Hi    string // Scan's exclusive hi bound
	Value []byte
	Limit uint32 // Scan row cap (0 = unlimited)

	// Replicate: resume the WAL stream after this commit sequence
	// number (0 = from the start of the log).
	AfterSeq uint64
}

// Response is one session-layer response. Status is always meaningful;
// Handle is set by Begin, Value by Get, Rows by Scan.
type Response struct {
	Status pgssi.Status
	Handle pgssi.Handle
	Value  []byte
	Found  bool // Get: distinguishes empty value from absent row
	Rows   []pgssi.KV
	// Settled, on an ok answer to Begin, Get or Scan, promises that the
	// handle's Commit cannot fail (pgssi.Session.Settled), so a client
	// need not wait for its answer.
	Settled bool

	// ReplicaStatus: the responder's applied and safe-snapshot commit
	// sequence numbers (on a primary both report the current commit
	// sequence). Present iff the seqs flag bit is set.
	HasSeqs    bool
	AppliedSeq uint64
	SafeSeq    uint64
}

// ---- body encoding helpers -------------------------------------------

// enc appends primitive values to a buffer.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) bytes(v []byte) {
	e.b = binary.AppendUvarint(e.b, uint64(len(v)))
	e.b = append(e.b, v...)
}
func (e *enc) str(v string) {
	e.b = binary.AppendUvarint(e.b, uint64(len(v)))
	e.b = append(e.b, v...)
}

// dec consumes primitive values from a buffer, latching the first
// error; every accessor is safe to call after a failure.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) bytes() []byte {
	if d.err != nil {
		return nil
	}
	n, sz := binary.Uvarint(d.b)
	if sz <= 0 || n > uint64(len(d.b)-sz) {
		d.fail()
		return nil
	}
	v := d.b[sz : sz+int(n)]
	d.b = d.b[sz+int(n):]
	return v
}

func (d *dec) str() string { return string(d.bytes()) }

// done reports decoding success and rejects trailing garbage.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(d.b))
	}
	return nil
}

// ---- request ---------------------------------------------------------

// AppendRequest encodes req into buf's body format (no framing).
func AppendRequest(buf []byte, req *Request) []byte {
	e := enc{b: buf}
	if req.AbortOnError {
		e.u8(uint8(req.Op) | abortOnError)
	} else {
		e.u8(uint8(req.Op))
	}
	switch req.Op {
	case OpBegin:
		e.u8(uint8(req.Isolation))
		e.u8(req.Flags)
	case OpGet, OpDelete:
		e.u64(uint64(req.Handle))
		e.str(req.Table)
		e.str(req.Key)
	case OpPut, OpInsert, OpUpdate:
		e.u64(uint64(req.Handle))
		e.str(req.Table)
		e.str(req.Key)
		e.bytes(req.Value)
	case OpScan:
		e.u64(uint64(req.Handle))
		e.str(req.Table)
		e.str(req.Key)
		e.str(req.Hi)
		e.u32(req.Limit)
	case OpCommit, OpRollback:
		e.u64(uint64(req.Handle))
	case OpSavepoint, OpReleaseSavepoint, OpRollbackToSavepoint:
		e.u64(uint64(req.Handle))
		e.str(req.Key)
	case OpCreateTable:
		e.str(req.Table)
	case OpPing, OpReplicaStatus, OpFetchCheckpoint:
	case OpReplicate:
		e.u64(req.AfterSeq)
	default:
		// A new opcode must be given an encoding here; silently
		// emitting an empty body would desynchronize the stream.
		panic(fmt.Sprintf("wire: AppendRequest: unhandled op %d", uint8(req.Op)))
	}
	return e.b
}

// DecodeRequest parses a request body. The returned request aliases
// body's memory for its string/byte fields only via copies (strings are
// copied by conversion; Value is copied explicitly), so body may be
// reused afterwards.
func DecodeRequest(body []byte) (Request, error) {
	d := dec{b: body}
	var req Request
	op := d.u8()
	req.Op, req.AbortOnError = Op(op&^abortOnError), op&abortOnError != 0
	if d.err == nil && (req.Op == 0 || req.Op >= opMax) {
		return Request{}, fmt.Errorf("%w: unknown op %d", ErrBadMessage, uint8(req.Op))
	}
	if req.AbortOnError && req.Op != OpPut {
		return Request{}, fmt.Errorf("%w: abort-on-error bit on %v", ErrBadMessage, req.Op)
	}
	switch req.Op {
	case OpBegin:
		req.Isolation = pgssi.IsolationLevel(d.u8())
		req.Flags = d.u8()
	case OpGet, OpDelete:
		req.Handle = pgssi.Handle(d.u64())
		req.Table = d.str()
		req.Key = d.str()
	case OpPut, OpInsert, OpUpdate:
		req.Handle = pgssi.Handle(d.u64())
		req.Table = d.str()
		req.Key = d.str()
		req.Value = append([]byte(nil), d.bytes()...)
	case OpScan:
		req.Handle = pgssi.Handle(d.u64())
		req.Table = d.str()
		req.Key = d.str()
		req.Hi = d.str()
		req.Limit = d.u32()
	case OpCommit, OpRollback:
		req.Handle = pgssi.Handle(d.u64())
	case OpSavepoint, OpReleaseSavepoint, OpRollbackToSavepoint:
		req.Handle = pgssi.Handle(d.u64())
		req.Key = d.str()
	case OpCreateTable:
		req.Table = d.str()
	case OpPing, OpReplicaStatus, OpFetchCheckpoint:
	case OpReplicate:
		req.AfterSeq = d.u64()
	default:
		// Unreachable while the range guard above tracks opMax, but a
		// decoder must never fall through silently on a wire value.
		return Request{}, fmt.Errorf("%w: unknown op %d", ErrBadMessage, uint8(req.Op))
	}
	if err := d.done(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// ---- response --------------------------------------------------------

// Response body flag bits (second byte).
const (
	respHasHandle = 1 << 0
	respHasValue  = 1 << 1
	respHasRows   = 1 << 2
	respFound     = 1 << 3
	respHasSeqs   = 1 << 4
	respSettled   = 1 << 5
)

// appendRow encodes one scan row; every encoder of rows goes through it.
// It works on the slice by value, so a caller whose buffer lives on the
// heap pays one pointer store (and write barrier) a row, not one per
// append.
func appendRow(b []byte, key string, value []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendUvarint(b, uint64(len(value)))
	return append(b, value...)
}

// AppendResponse encodes resp into buf's body format (no framing).
func AppendResponse(buf []byte, resp *Response) []byte {
	e := enc{b: buf}
	e.u8(uint8(resp.Status))
	var flags uint8
	if resp.Handle != 0 {
		flags |= respHasHandle
	}
	if resp.Value != nil {
		flags |= respHasValue
	}
	if resp.Rows != nil {
		flags |= respHasRows
	}
	if resp.Found {
		flags |= respFound
	}
	if resp.HasSeqs {
		flags |= respHasSeqs
	}
	if resp.Settled {
		flags |= respSettled
	}
	e.u8(flags)
	if flags&respHasHandle != 0 {
		e.u64(uint64(resp.Handle))
	}
	if flags&respHasValue != 0 {
		e.bytes(resp.Value)
	}
	if flags&respHasRows != 0 {
		e.u32(uint32(len(resp.Rows)))
		for i := range resp.Rows {
			e.b = appendRow(e.b, resp.Rows[i].Key, resp.Rows[i].Value)
		}
	}
	if flags&respHasSeqs != 0 {
		e.u64(resp.AppliedSeq)
		e.u64(resp.SafeSeq)
	}
	return e.b
}

// RowsResponse encodes a Scan response body row by row, so a server can
// append rows to the outgoing frame as the engine delivers them instead
// of collecting a []pgssi.KV first. The bytes are those AppendResponse
// produces for Response{Status: st, Rows: rows, Settled: settled}.
type RowsResponse struct {
	b     []byte
	start int // offset of the body in b
	n     uint32
}

// BeginRowsResponse starts a rows-carrying response body at the end of
// buf; the status and the row count are filled in by Finish.
func BeginRowsResponse(buf []byte) RowsResponse {
	// Status, flags, row count.
	return RowsResponse{b: append(buf, 0, respHasRows, 0, 0, 0, 0), start: len(buf)}
}

// AppendRow adds one row.
func (r *RowsResponse) AppendRow(key string, value []byte) {
	r.b = appendRow(r.b, key, value)
	r.n++
}

// Finish completes the body with its status and settled flag and returns
// the buffer. A failed scan carries no rows: whatever was appended before
// the failure is dropped.
func (r *RowsResponse) Finish(st pgssi.Status, settled bool) []byte {
	const rowsAt = 2 + 4 // status, flags, count
	b := r.b
	if !st.OK() {
		b, r.n = b[:r.start+rowsAt], 0
	}
	b[r.start] = uint8(st)
	if settled {
		b[r.start+1] |= respSettled
	}
	binary.BigEndian.PutUint32(b[r.start+2:], r.n)
	return b
}

// DecodeResponse parses a response body. Nothing in the result aliases
// body, which callers reuse for the next frame. Rows are parsed once,
// from one private copy of their encoded bytes: every Key and Value is a
// view into that copy, so a response costs two allocations for its rows
// (the copy and the row slice) however many it has. Each Value's capacity
// ends at its own last byte, so appending to one reallocates instead of
// running into its neighbour.
func DecodeResponse(body []byte) (Response, error) {
	d := dec{b: body}
	var resp Response
	resp.Status = pgssi.Status(d.u8())
	flags := d.u8()
	if flags&respHasHandle != 0 {
		resp.Handle = pgssi.Handle(d.u64())
	}
	if flags&respHasValue != 0 {
		resp.Value = append([]byte(nil), d.bytes()...)
	}
	if flags&respHasRows != 0 {
		n := d.u32()
		// A row costs at least 2 bytes encoded; reject counts the
		// remaining body cannot possibly hold before allocating.
		if d.err == nil && uint64(n) > uint64(len(d.b)/2)+1 {
			return Response{}, fmt.Errorf("%w: implausible row count %d", ErrBadMessage, n)
		}
		if d.err == nil && n > 0 {
			resp.Rows = d.rows(int(n))
		}
	}
	if flags&respHasSeqs != 0 {
		resp.HasSeqs = true
		resp.AppliedSeq = d.u64()
		resp.SafeSeq = d.u64()
	}
	resp.Found = flags&respFound != 0
	resp.Settled = flags&respSettled != 0
	if err := d.done(); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// rows decodes n rows as views into one private copy of what is left of
// the body (the rows, and whatever few bytes follow them).
func (d *dec) rows(n int) []pgssi.KV {
	own := dec{b: append([]byte(nil), d.b...)}
	rows := make([]pgssi.KV, n)
	for i := range rows {
		k, v := own.bytes(), own.bytes()
		// The copy is never written through a key: it is reachable only
		// through these views, and a Value's bytes are its own.
		rows[i].Key = unsafe.String(unsafe.SliceData(k), len(k))
		if len(v) > 0 {
			rows[i].Value = v[:len(v):len(v)]
		}
	}
	if own.err != nil {
		d.err = own.err
		return nil
	}
	d.b = d.b[len(d.b)-len(own.b):]
	return rows
}
