package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"pgssi"
)

// Client is a remote session: it speaks the wire protocol to a
// cmd/pgssid server and exposes the same handle-based, Status-coded
// method set as pgssi.Session, so callers (the open-loop load driver in
// particular) can run against either interchangeably.
//
// Three calls do not wait for their answer. Begin returns the handle
// the server will give it — the k-th Begin request on a connection is
// handle k, refused or not — and Put on a read-write handle returns
// StatusOK at once. Both are queued and leave in the same Write as the
// next request that does wait, whose call then reads every queued answer
// before its own. A refused Begin (not a safe snapshot, replica halted,
// shutting down, ...), or a failed Put (which the server follows with a
// rollback of the transaction), is reported by the next call on that
// handle instead: that call returns the failure and the handle is dead —
// a Rollback of it returns StatusOK, a Commit the failure, and any other
// call StatusTxDone.
//
// The third is the Commit of a settled handle: a read-only transaction
// whose last answer carried the server's promise that its Commit cannot
// fail (Response.Settled; a safe snapshot, §4.2, or a level below
// Serializable). Its frame is written at once, with anything queued, and
// it returns StatusOK; the next call that waits reads its answer, and an
// answer other than ok poisons the client, since the server broke its
// promise. The frame leaves at once rather than with the next request so
// that an idle client leaves no snapshot pinned on the server. Should
// the connection be lost before the server reads it, the server rolls
// the transaction back, which a read-only transaction cannot tell from a
// commit.
//
// Everything else is one request, one answer, as in pgssi.Session: Put
// on a read-only handle, the Commit of a handle not known to be settled,
// and every other operation.
//
// A Client multiplexes nothing: one burst of requests is in flight at a
// time, serialized by an internal mutex, and goroutines sharing a Client
// may interleave their handles. Open several clients for parallelism, as
// cmd/pgload's connection pool does. Transport failures poison the
// client: the failing call and every later one return StatusNetwork, and
// Err reports the underlying error.
type Client struct {
	mu    sync.Mutex //ssi:lock level=20 name=wire.client
	conn  net.Conn
	br    *bufio.Reader
	out   []byte // queued request frames, then the frame of the request that waits
	frame []byte // incoming frame body, reused
	err   error

	// queued lists the requests whose answers have not been read: those
	// in out, behind the settled Commits already sent.
	queued []pending
	// begins counts the Begin requests sent or queued: the number of the
	// next handle.
	begins pgssi.Handle
	// txs holds the handles begun by this client and not yet committed or
	// rolled back.
	txs map[pgssi.Handle]txState

	// deadline bounds each round trip (write + read); a zero Timeout
	// means no deadline.
	deadline CoarseDeadline
}

// txState is what the client knows of one of its open transactions.
type txState struct {
	// st is StatusOK while the transaction is alive on the server as far
	// as the client knows, otherwise the failure its next call reports.
	st       pgssi.Status
	readOnly bool
	// settled records that the last answer on the handle carried the
	// settled flag: its Commit cannot fail and is not waited for.
	settled bool
}

// pending is a request whose answer is still to be read: a Begin, a Put
// on a read-write handle, or a settled Commit.
type pending struct {
	h  pgssi.Handle
	op Op
}

// clientReadBuffer lets a scan response of a thousand small rows
// (≈ 20 KB) arrive in one read. It also bounds the queued requests: the
// server answers them while the client is still writing, and a queue of
// this size keeps those answers far below what the socket buffers hold.
const clientReadBuffer = 64 << 10

// DialOptions configure Dial.
type DialOptions struct {
	// Timeout bounds connection establishment and, afterwards, each
	// request round trip (to within CoarseDeadline's slack). Zero means
	// no deadline.
	Timeout time.Duration
}

// Dial connects to a pgssid server.
func Dial(addr string, opts DialOptions) (*Client, error) {
	var d net.Dialer
	d.Timeout = opts.Timeout
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, opts), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn, opts DialOptions) *Client {
	return &Client{
		conn:     conn,
		br:       bufio.NewReaderSize(conn, clientReadBuffer),
		txs:      make(map[pgssi.Handle]txState),
		deadline: CoarseDeadline{Timeout: opts.Timeout},
	}
}

// Err returns the sticky transport error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close closes the connection, dropping whatever is still queued. Open
// server-side transactions are rolled back by the server's connection
// cleanup.
func (c *Client) Close() error { return c.conn.Close() }

// fail latches err, closes the connection and returns StatusNetwork.
func (c *Client) fail(err error) pgssi.Status {
	c.err = err
	c.conn.Close()
	return pgssi.StatusNetwork
}

// appendFrame adds req's frame to out.
func (c *Client) appendFrame(req *Request) error {
	start := len(c.out)
	c.out = AppendRequest(BeginFrame(c.out), req)
	return FinishFrame(c.out[start:])
}

// enqueue adds req to the queue. If its frame would take the queue past
// clientReadBuffer, the queue is sent and answered first; the size is
// reckoned before encoding, counting each length prefix at its largest.
func (c *Client) enqueue(req *Request, p pending) error {
	const maxOverhead = frameHeader + 1 + 8 + 3*4 // op, handle, three uvarint lengths below MaxFrame
	if len(c.queued) > 0 && len(c.out)+maxOverhead+len(req.Table)+len(req.Key)+len(req.Value) > clientReadBuffer {
		if _, err := c.exchange(nil); err != nil {
			return err
		}
	}
	if err := c.appendFrame(req); err != nil {
		return err
	}
	c.queued = append(c.queued, p)
	return nil
}

// send writes out in one Write.
func (c *Client) send() error {
	if t, ok := c.deadline.Next(time.Now()); ok {
		c.conn.SetDeadline(t)
	}
	_, err := c.conn.Write(c.out)
	c.out = c.out[:0]
	return err
}

// exchange sends the queued requests, and req unless it is nil, in one
// Write; reads and settles the answers still owed; and returns req's.
func (c *Client) exchange(req *Request) (Response, error) {
	if req != nil {
		if err := c.appendFrame(req); err != nil {
			return Response{}, err
		}
	}
	if err := c.send(); err != nil {
		return Response{}, err
	}
	queued := c.queued
	c.queued = c.queued[:0]
	for _, p := range queued {
		resp, err := c.read()
		if err == nil {
			err = c.settle(p, resp)
		}
		if err != nil {
			return Response{}, err
		}
	}
	if req == nil {
		return Response{}, nil
	}
	return c.read()
}

// read reads and decodes one answer.
func (c *Client) read() (Response, error) {
	body, err := ReadFrame(c.br, c.frame)
	if err != nil {
		return Response{}, err
	}
	c.frame = body[:0]
	return DecodeResponse(body)
}

// settle records the answer to a request that was not waited for: the
// first failure on a handle is the one its next call reports.
func (c *Client) settle(p pending, resp Response) error {
	if p.op == OpCommit {
		if !resp.Status.OK() {
			return fmt.Errorf("wire: settled Commit of handle %d answered %v", p.h, resp.Status)
		}
		return nil
	}
	if p.op == OpBegin {
		if err := numbered(p.h, resp); err != nil {
			return err
		}
	}
	if t, ok := c.txs[p.h]; ok && t.st.OK() {
		t.st, t.settled = resp.Status, resp.Settled
		c.txs[p.h] = t
	}
	return nil
}

// numbered checks the answer to a Begin against the handle the
// numbering rule gives it.
func numbered(h pgssi.Handle, resp Response) error {
	if resp.Status.OK() && resp.Handle != h {
		return fmt.Errorf("wire: Begin answered with handle %d, expected %d", resp.Handle, h)
	}
	return nil
}

// failed reports, as the answer to req, the failure a queued request on
// req's handle met, and retires the handle as pgssi.Session would after
// that failure.
func (c *Client) failed(req *Request) (pgssi.Status, bool) {
	t, ok := c.txs[req.Handle]
	if !ok || t.st.OK() {
		return 0, false
	}
	st := t.st
	switch req.Op {
	case OpRollback:
		delete(c.txs, req.Handle)
		return pgssi.StatusOK, true
	case OpCommit:
		delete(c.txs, req.Handle)
	default:
		t.st = pgssi.StatusTxDone
		c.txs[req.Handle] = t
	}
	return st, true
}

// roundTrip sends req behind whatever is queued and returns its answer.
// Transport and protocol failures are folded into StatusNetwork with
// the error latched.
func (c *Client) roundTrip(req *Request) Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTripLocked(req)
}

func (c *Client) roundTripLocked(req *Request) Response {
	if c.err != nil {
		return Response{Status: pgssi.StatusNetwork}
	}
	if st, ok := c.failed(req); ok {
		return Response{Status: st}
	}
	resp, err := c.exchange(req)
	if err != nil {
		return Response{Status: c.fail(err)}
	}
	// A queued request on this handle failed in the same burst: the
	// server rolled the transaction back before it saw req.
	if st, ok := c.failed(req); ok {
		return Response{Status: st}
	}
	if req.Op == OpCommit || req.Op == OpRollback {
		delete(c.txs, req.Handle)
	} else if t, ok := c.txs[req.Handle]; ok {
		t.settled = resp.Settled
		c.txs[req.Handle] = t
	}
	return resp
}

// Begin starts a transaction on the server and returns its handle. It is
// queued (see Client).
func (c *Client) Begin(level pgssi.IsolationLevel, readOnly, deferrable bool) (pgssi.Handle, pgssi.Status) {
	req := Request{Op: OpBegin, Isolation: level}
	if readOnly {
		req.Flags |= FlagReadOnly
	}
	if deferrable {
		req.Flags |= FlagDeferrable
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, pgssi.StatusNetwork
	}
	c.begins++
	h := c.begins
	if err := c.enqueue(&req, pending{h: h, op: OpBegin}); err != nil {
		return 0, c.fail(err)
	}
	c.txs[h] = txState{readOnly: readOnly}
	return h, pgssi.StatusOK
}

// Get returns the value of key in table.
func (c *Client) Get(h pgssi.Handle, table, key string) ([]byte, pgssi.Status) {
	resp := c.roundTrip(&Request{Op: OpGet, Handle: h, Table: table, Key: key})
	return resp.Value, resp.Status
}

// Put upserts key in table. On a read-write handle it is queued and
// returns StatusOK (see Client).
func (c *Client) Put(h pgssi.Handle, table, key string, value []byte) pgssi.Status {
	req := Request{Op: OpPut, Handle: h, Table: table, Key: key, Value: value}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.txs[h]; !ok || t.readOnly || !t.st.OK() || c.err != nil {
		return c.roundTripLocked(&req).Status
	}
	req.AbortOnError = true
	if err := c.enqueue(&req, pending{h: h, op: OpPut}); err != nil {
		return c.fail(err)
	}
	return pgssi.StatusOK
}

// Insert adds a new row.
func (c *Client) Insert(h pgssi.Handle, table, key string, value []byte) pgssi.Status {
	return c.roundTrip(&Request{Op: OpInsert, Handle: h, Table: table, Key: key, Value: value}).Status
}

// Update replaces an existing row.
func (c *Client) Update(h pgssi.Handle, table, key string, value []byte) pgssi.Status {
	return c.roundTrip(&Request{Op: OpUpdate, Handle: h, Table: table, Key: key, Value: value}).Status
}

// Delete removes the visible version of key.
func (c *Client) Delete(h pgssi.Handle, table, key string) pgssi.Status {
	return c.roundTrip(&Request{Op: OpDelete, Handle: h, Table: table, Key: key}).Status
}

// Scan returns up to limit rows with lo <= key < hi.
func (c *Client) Scan(h pgssi.Handle, table, lo, hi string, limit int) ([]pgssi.KV, pgssi.Status) {
	var lim uint32
	if limit > 0 {
		lim = uint32(limit)
	}
	resp := c.roundTrip(&Request{Op: OpScan, Handle: h, Table: table, Key: lo, Hi: hi, Limit: lim})
	return resp.Rows, resp.Status
}

// Commit finishes the transaction. The Commit of a settled handle is
// sent at once and not waited for (see Client).
func (c *Client) Commit(h pgssi.Handle) pgssi.Status {
	req := Request{Op: OpCommit, Handle: h}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.txs[h]; !ok || !t.settled || !t.st.OK() || c.err != nil {
		return c.roundTripLocked(&req).Status
	}
	delete(c.txs, h)
	if err := c.appendFrame(&req); err != nil {
		return c.fail(err)
	}
	if err := c.send(); err != nil {
		return c.fail(err)
	}
	c.queued = append(c.queued, pending{h: h, op: OpCommit})
	return pgssi.StatusOK
}

// Rollback aborts the transaction.
func (c *Client) Rollback(h pgssi.Handle) pgssi.Status {
	return c.roundTrip(&Request{Op: OpRollback, Handle: h}).Status
}

// Savepoint establishes a savepoint.
func (c *Client) Savepoint(h pgssi.Handle, name string) pgssi.Status {
	return c.roundTrip(&Request{Op: OpSavepoint, Handle: h, Key: name}).Status
}

// ReleaseSavepoint releases a savepoint.
func (c *Client) ReleaseSavepoint(h pgssi.Handle, name string) pgssi.Status {
	return c.roundTrip(&Request{Op: OpReleaseSavepoint, Handle: h, Key: name}).Status
}

// RollbackToSavepoint rolls back to a savepoint.
func (c *Client) RollbackToSavepoint(h pgssi.Handle, name string) pgssi.Status {
	return c.roundTrip(&Request{Op: OpRollbackToSavepoint, Handle: h, Key: name}).Status
}

// CreateTable creates a table.
func (c *Client) CreateTable(name string) pgssi.Status {
	return c.roundTrip(&Request{Op: OpCreateTable, Table: name}).Status
}

// Ping round-trips an empty request.
func (c *Client) Ping() pgssi.Status {
	return c.roundTrip(&Request{Op: OpPing}).Status
}

// ReplicaStatus reports the server's replication position: the applied
// and safe-snapshot commit sequence numbers. A primary reports its
// current commit sequence for both (it is trivially "caught up" with
// itself), so a monitor can read a replica's lag as the primary's
// position minus the replica's.
func (c *Client) ReplicaStatus() (applied, safe uint64, st pgssi.Status) {
	resp := c.roundTrip(&Request{Op: OpReplicaStatus})
	return resp.AppliedSeq, resp.SafeSeq, resp.Status
}
