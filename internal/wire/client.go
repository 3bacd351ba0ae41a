package wire

import (
	"bufio"
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
// A Client multiplexes nothing: requests on one connection are strictly
// synchronous (one in flight), serialized by an internal mutex. Open
// several clients for parallelism, as cmd/pgload's connection pool
// does. Transport failures poison the client: the failing call and
// every later one return StatusNetwork, and Err reports the underlying
// error.
type Client struct {
	mu    sync.Mutex //ssi:lock level=20 name=wire.client
	conn  net.Conn
	br    *bufio.Reader
	buf   []byte // outgoing frame, reused
	frame []byte // incoming frame body, reused
	err   error

	// deadline bounds each round trip (write + read); a zero Timeout
	// means no deadline.
	deadline CoarseDeadline
}

// clientReadBuffer lets a scan response of a thousand small rows
// (≈ 20 KB) arrive in one read.
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
		deadline: CoarseDeadline{Timeout: opts.Timeout},
	}
}

// Err returns the sticky transport error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close closes the connection. Open server-side transactions are rolled
// back by the server's connection cleanup.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends req and decodes the response. Transport and protocol
// failures are folded into StatusNetwork with the error latched.
func (c *Client) roundTrip(req *Request) Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return Response{Status: pgssi.StatusNetwork}
	}
	fail := func(err error) Response {
		c.err = err
		c.conn.Close()
		return Response{Status: pgssi.StatusNetwork}
	}
	if t, ok := c.deadline.Next(time.Now()); ok {
		c.conn.SetDeadline(t)
	}
	c.buf = AppendRequest(BeginFrame(c.buf), req)
	if err := FinishFrame(c.buf); err != nil {
		return fail(err)
	}
	if _, err := c.conn.Write(c.buf); err != nil {
		return fail(err)
	}
	body, err := ReadFrame(c.br, c.frame)
	if err != nil {
		return fail(err)
	}
	c.frame = body[:0]
	resp, err := DecodeResponse(body)
	if err != nil {
		return fail(err)
	}
	return resp
}

// Begin starts a transaction on the server and returns its handle.
func (c *Client) Begin(level pgssi.IsolationLevel, readOnly, deferrable bool) (pgssi.Handle, pgssi.Status) {
	var flags uint8
	if readOnly {
		flags |= FlagReadOnly
	}
	if deferrable {
		flags |= FlagDeferrable
	}
	resp := c.roundTrip(&Request{Op: OpBegin, Isolation: level, Flags: flags})
	return resp.Handle, resp.Status
}

// Get returns the value of key in table.
func (c *Client) Get(h pgssi.Handle, table, key string) ([]byte, pgssi.Status) {
	resp := c.roundTrip(&Request{Op: OpGet, Handle: h, Table: table, Key: key})
	return resp.Value, resp.Status
}

// Put upserts key in table.
func (c *Client) Put(h pgssi.Handle, table, key string, value []byte) pgssi.Status {
	return c.roundTrip(&Request{Op: OpPut, Handle: h, Table: table, Key: key, Value: value}).Status
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

// Commit finishes the transaction.
func (c *Client) Commit(h pgssi.Handle) pgssi.Status {
	return c.roundTrip(&Request{Op: OpCommit, Handle: h}).Status
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
// itself), so lag-aware routers can poll every fleet member uniformly.
func (c *Client) ReplicaStatus() (applied, safe uint64, st pgssi.Status) {
	resp := c.roundTrip(&Request{Op: OpReplicaStatus})
	return resp.AppliedSeq, resp.SafeSeq, resp.Status
}
