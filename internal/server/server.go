// Package server implements pgssid's TCP front-end: one pgssi.Session
// per connection, served over the length-prefixed wire protocol
// (internal/wire, docs/protocol.md).
//
// The server owns the transport concerns the engine does not: read and
// write deadlines, a connection limit, and graceful drain. Shutdown
// (typically SIGTERM via DrainOnSignal) stops accepting, refuses new
// Begin requests with StatusShuttingDown, lets connections with
// in-flight transactions keep issuing requests until they commit or
// roll back, and force-closes whatever remains after the drain timeout
// (open transactions are rolled back by the connection cleanup).
package server

import (
	"bufio"
	"errors"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pgssi"
	"pgssi/internal/mvcc"
	"pgssi/internal/wal"
	"pgssi/internal/wire"
)

// ErrServerClosed is returned by Serve after a graceful Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Config configures a Server. The zero value serves with no connection
// limit, a 5-minute idle timeout, and a 10-second drain timeout.
type Config struct {
	// MaxConns caps concurrently served connections; further accepts
	// are closed immediately. 0 means unlimited.
	MaxConns int
	// IdleTimeout is the per-request read deadline: a connection that
	// sends nothing for this long is closed (its open transactions are
	// rolled back). 0 defaults to 5 minutes; negative disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write. 0 defaults to 30s;
	// negative disables.
	//
	// Both deadlines are kept by wire.CoarseDeadline: the connection is
	// given at least the timeout and at most a quarter more.
	WriteTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight transactions.
	// 0 defaults to 10s.
	DrainTimeout time.Duration
	// Logf, if non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server serves a pgssi.DB (primary mode) or a pgssi.Replica (replica
// mode) over TCP. Replica mode serves the same protocol restricted to
// read-only traffic: Begin requires the read-only flag, serializable
// begins run on safe snapshots (deferrable = wait for one), DDL is
// refused, and OpReplicate reports StatusNoReplication (cascading
// replication is not supported).
type Server struct {
	db  *pgssi.DB      // nil in replica mode
	rep *pgssi.Replica // nil in primary mode
	cfg Config

	mu       sync.Mutex //ssi:lock level=10 name=server.conns
	listener net.Listener
	conns    map[*conn]struct{}
	wg       sync.WaitGroup

	draining     atomic.Bool
	drainStarted chan struct{}
	done         chan struct{}
	shutdownOnce sync.Once
}

// conn is one served connection. Requests are read through br, so
// requests that arrive together cost one read of the socket; answers are
// built in out, and flush sends all of them in one write once no whole
// request is left in br. Only the connection's own goroutine touches
// anything but Conn.Close and sess.Open.
type conn struct {
	net.Conn
	sess  *pgssi.Session
	br    *bufio.Reader
	idle  wire.CoarseDeadline // read deadline
	stall wire.CoarseDeadline // write deadline
	out   []byte              // outgoing frames not yet written, reused
}

// maxHeldAnswers bounds the answers a connection holds back while more
// requests are buffered: a peer that streams requests without reading
// gets its answers in pieces of about this size rather than all at once.
const maxHeldAnswers = 64 << 10

func (s *Server) newConn(nc net.Conn) *conn {
	return &conn{
		Conn:  nc,
		sess:  s.newSession(),
		br:    bufio.NewReader(nc),
		idle:  wire.CoarseDeadline{Timeout: s.cfg.IdleTimeout},
		stall: wire.CoarseDeadline{Timeout: s.cfg.WriteTimeout},
	}
}

// flush writes every frame in c.out in one Write.
func (c *conn) flush() error {
	if t, ok := c.stall.Next(time.Now()); ok {
		c.SetWriteDeadline(t)
	}
	_, err := c.Conn.Write(c.out)
	c.out = c.out[:0]
	return err
}

// send completes the frame that starts at c.out[start:] and flushes it
// together with the answers held before it.
func (c *conn) send(start int) error {
	if err := wire.FinishFrame(c.out[start:]); err != nil {
		return err
	}
	return c.flush()
}

// respond sends resp as one frame.
func (c *conn) respond(resp wire.Response) error {
	start := len(c.out)
	c.out = wire.AppendResponse(wire.BeginFrame(c.out), &resp)
	return c.send(start)
}

// writeRecord sends one WAL record as a frame carrying the record body
// (the WAL's own body encoding — docs/wal.md — inside the wire framing).
func (c *conn) writeRecord(rec wal.Record) error {
	body, err := wal.EncodeRecordBody(rec)
	if err != nil {
		return err
	}
	start := len(c.out)
	c.out = append(wire.BeginFrame(c.out), body...)
	return c.send(start)
}

// New returns a server over db.
func New(db *pgssi.DB, cfg Config) *Server {
	return &Server{
		db:           db,
		cfg:          cfg.withDefaults(),
		conns:        make(map[*conn]struct{}),
		drainStarted: make(chan struct{}),
		done:         make(chan struct{}),
	}
}

// NewReplicaServer returns a server over a replica: the read tier's
// front-end. Sessions come from Replica.NewSession, and OpReplicaStatus
// reports the replica's applied/safe positions (with
// StatusReplicaHalted once the apply loop has halted on an error — a
// client must stop sending traffic here, not read stale data).
func NewReplicaServer(rep *pgssi.Replica, cfg Config) *Server {
	return &Server{
		rep:          rep,
		cfg:          cfg.withDefaults(),
		conns:        make(map[*conn]struct{}),
		drainStarted: make(chan struct{}),
		done:         make(chan struct{}),
	}
}

// newSession opens a session on whichever store the server fronts.
func (s *Server) newSession() *pgssi.Session {
	if s.rep != nil {
		return s.rep.NewSession()
	}
	return s.db.NewSession()
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// DrainStarted is closed when a shutdown begins (observability for
// tests and operators).
func (s *Server) DrainStarted() <-chan struct{} { return s.drainStarted }

// Serve accepts connections on l until Shutdown, then returns
// ErrServerClosed once the drain completes. Accept errors other than
// listener closure are returned as-is.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	var active atomic.Int64
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				<-s.done
				return ErrServerClosed
			}
			return err
		}
		if s.cfg.MaxConns > 0 && active.Load() >= int64(s.cfg.MaxConns) {
			s.cfg.Logf("server: connection limit (%d) reached, refusing %v", s.cfg.MaxConns, nc.RemoteAddr())
			nc.Close()
			continue
		}
		c := s.newConn(nc)
		s.mu.Lock()
		if s.draining.Load() {
			// Raced a concurrent Shutdown's conn sweep: don't serve.
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		active.Add(1)
		go func() {
			defer active.Add(-1)
			s.serveConn(c)
		}()
	}
}

// removeConn untracks a finished connection.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// serveConn runs one connection's request loop.
func (s *Server) serveConn(c *conn) {
	defer s.wg.Done()
	defer s.removeConn(c)
	// Rolling back open transactions is the last thing that happens, so
	// a force-closed connection cannot leak transactions (or their
	// SIREAD locks past the reclaimer's horizon).
	defer c.sess.Close()
	defer c.Close()

	var frame []byte
	for {
		if t, ok := c.idle.Next(time.Now()); ok {
			c.SetReadDeadline(t)
		}
		body, err := wire.ReadFrame(c.br, frame)
		if err != nil {
			// EOF, deadline, forced close, or a framing error (after
			// which the stream offset is unknown): drop the connection.
			return
		}
		frame = body[:0]
		req, derr := wire.DecodeRequest(body)
		if derr != nil {
			// The frame itself was well-formed, so framing is still
			// synchronized; report the bad message, then close anyway —
			// a client that builds undecodable requests is broken.
			c.respond(wire.Response{Status: pgssi.StatusInvalidRequest})
			return
		}
		if req.Op == wire.OpReplicate {
			// Replicate hijacks the connection: one response frame, then
			// a one-way stream of record frames until either side closes.
			s.serveReplication(c, req.AfterSeq)
			return
		}
		if req.Op == wire.OpFetchCheckpoint {
			// FetchCheckpoint hijacks the connection the same way: one
			// response frame, then the checkpoint's record frames ending
			// with a safe-snapshot terminator, then the connection closes.
			s.serveCheckpoint(c)
			return
		}
		start := len(c.out)
		c.out = s.dispatch(c.sess, &req, wire.BeginFrame(c.out))
		if err := wire.FinishFrame(c.out[start:]); err != nil {
			return
		}
		// Requests that arrived together are answered together, and the
		// loop never waits for a request while it owes answers.
		if wire.FrameBuffered(c.br) && len(c.out) < maxHeldAnswers {
			continue
		}
		if err := c.flush(); err != nil {
			return
		}
		// During a drain, a connection is closed as soon as it has no
		// transaction in flight and every request it sent is answered;
		// one with a transaction keeps being served so it can finish
		// (commit or roll back), up to the drain timeout.
		if s.draining.Load() && c.sess.Open() == 0 && !wire.FrameBuffered(c.br) {
			return
		}
	}
}

// servedLog is the log the replication endpoints serve: the primary's, or
// nil in replica mode or for a database without one.
func (s *Server) servedLog() *wal.DurableLog {
	if s.db == nil {
		return nil
	}
	return s.db.DurableWAL()
}

// serveReplication turns c into a WAL stream: it subscribes to the
// primary's log from the requested position and forwards each record as
// one frame (conn.writeRecord). The stream ends when the
// subscription is dropped (the replica fell behind the fan-out buffer),
// the log closes, the write fails, or a drain force-closes the
// connection; the replica then reconnects from its applied position.
func (s *Server) serveReplication(c *conn, afterSeq uint64) {
	wl := s.servedLog()
	if wl == nil {
		c.respond(wire.Response{Status: pgssi.StatusNoReplication})
		return
	}
	// Subscribe before acknowledging: a resume position below the log's
	// checkpoint GC floor is refused with StatusSeqTruncated — the
	// records are gone, and the replica must fetch a checkpoint instead
	// of waiting for a gap that can never fill.
	ch, cancel, err := wl.SubscribeFrom(mvcc.SeqNo(afterSeq))
	if err != nil {
		st := pgssi.StatusInternal
		if errors.Is(err, wal.ErrSeqTruncated) {
			st = pgssi.StatusSeqTruncated
		}
		c.respond(wire.Response{Status: st})
		return
	}
	defer cancel()
	if c.respond(wire.Response{Status: pgssi.StatusOK}) != nil {
		return
	}
	// The request loop is done with this connection: no further reads,
	// so the idle deadline set before OpReplicate must not fire mid-
	// stream.
	c.SetReadDeadline(time.Time{})

	// The replica never sends another byte, so a completed read — EOF,
	// a stray write (one the request loop's reader already buffered
	// included, hence the read through c.br), or the drain sweep
	// force-closing the socket — means this stream is over. Without this
	// sentinel the loop below would park on an idle WAL channel forever
	// and Shutdown could never finish its wg.Wait.
	gone := make(chan struct{})
	go func() {
		c.br.ReadByte()
		close(gone)
	}()
	for {
		var rec wal.Record
		var ok bool
		select {
		case rec, ok = <-ch:
			if !ok {
				return
			}
		case <-gone:
			return
		}
		if err := c.writeRecord(rec); err != nil {
			// A dead connection, or (never, in a log that accepted the
			// record) an unencodable one: either way the stream is over.
			var ne net.Error
			if !errors.As(err, &ne) {
				s.cfg.Logf("server: replication stream: %v", err)
			}
			return
		}
	}
}

// serveCheckpoint streams the primary's newest checkpoint over c: one
// StatusOK response, then each checkpoint record as a frame carrying the
// record body, terminated by a safe-snapshot marker frame whose sequence
// is the checkpoint sequence (the client resumes replication from it). A
// client that sees the stream end without the terminator must treat the
// checkpoint as torn and retry. StatusNotFound reports that the primary
// has never checkpointed; StatusNoReplication that it emits no WAL
// stream at all (replica mode, or a database without a log).
func (s *Server) serveCheckpoint(c *conn) {
	wl := s.servedLog()
	if wl == nil {
		c.respond(wire.Response{Status: pgssi.StatusNoReplication})
		return
	}
	// Probe before acknowledging, so "no checkpoint yet" is a clean
	// status instead of a torn stream. Checkpoints only ever advance, so
	// a positive probe cannot race to nothing below.
	if _, have := wl.CheckpointInfo(); !have {
		c.respond(wire.Response{Status: pgssi.StatusNotFound})
		return
	}
	if c.respond(wire.Response{Status: pgssi.StatusOK}) != nil {
		return
	}
	c.SetReadDeadline(time.Time{})
	info, err := wl.ReplayCheckpoint(c.writeRecord)
	if err != nil {
		// Read failure on the checkpoint file or a dead connection: drop
		// without the terminator; the client discards the torn seed.
		s.cfg.Logf("server: checkpoint stream: %v", err)
		return
	}
	if err := c.writeRecord(wal.Record{Seq: info.Seq, SafeSnapshot: true}); err != nil {
		s.cfg.Logf("server: checkpoint terminator: %v", err)
	}
}

// dispatch executes one decoded request against the connection's
// session and appends the response body to out. An ok answer to a
// Begin, Get or Scan carries the settled flag when the handle's Commit
// can no longer fail (pgssi.Session.Settled): the client may then send
// that Commit without waiting for its answer.
func (s *Server) dispatch(sess *pgssi.Session, req *wire.Request, out []byte) []byte {
	if req.Op == wire.OpScan {
		// Rows go from the engine's callback straight into the frame.
		rows := wire.BeginRowsResponse(out)
		st := sess.ScanEach(req.Handle, req.Table, req.Key, req.Hi, int(req.Limit), rows.AppendRow)
		return rows.Finish(st, st.OK() && sess.Settled(req.Handle))
	}
	resp := s.execute(sess, req)
	return wire.AppendResponse(out, &resp)
}

// execute runs every request whose response is small enough to be built
// as a wire.Response first.
func (s *Server) execute(sess *pgssi.Session, req *wire.Request) wire.Response {
	switch req.Op {
	case wire.OpBegin:
		if s.draining.Load() {
			// A refused Begin still uses up its handle number: the client
			// may already be naming the next Begin's transaction.
			sess.SkipHandle()
			return wire.Response{Status: pgssi.StatusShuttingDown}
		}
		h, st := sess.Begin(req.Isolation, req.Flags&wire.FlagReadOnly != 0, req.Flags&wire.FlagDeferrable != 0)
		return wire.Response{Status: st, Handle: h, Settled: st.OK() && sess.Settled(h)}
	case wire.OpGet:
		v, st := sess.Get(req.Handle, req.Table, req.Key)
		return wire.Response{Status: st, Value: v, Found: st.OK(), Settled: st.OK() && sess.Settled(req.Handle)}
	case wire.OpPut:
		st := sess.Put(req.Handle, req.Table, req.Key, req.Value)
		if !st.OK() && req.AbortOnError {
			// Its sender has moved on without the answer, and what it sent
			// next may be a Commit: roll back so that cannot commit the
			// transaction without this write.
			sess.Rollback(req.Handle)
		}
		return wire.Response{Status: st}
	case wire.OpInsert:
		return wire.Response{Status: sess.Insert(req.Handle, req.Table, req.Key, req.Value)}
	case wire.OpUpdate:
		return wire.Response{Status: sess.Update(req.Handle, req.Table, req.Key, req.Value)}
	case wire.OpDelete:
		return wire.Response{Status: sess.Delete(req.Handle, req.Table, req.Key)}
	case wire.OpCommit:
		return wire.Response{Status: sess.Commit(req.Handle)}
	case wire.OpRollback:
		return wire.Response{Status: sess.Rollback(req.Handle)}
	case wire.OpSavepoint:
		return wire.Response{Status: sess.Savepoint(req.Handle, req.Key)}
	case wire.OpReleaseSavepoint:
		return wire.Response{Status: sess.ReleaseSavepoint(req.Handle, req.Key)}
	case wire.OpRollbackToSavepoint:
		return wire.Response{Status: sess.RollbackToSavepoint(req.Handle, req.Key)}
	case wire.OpCreateTable:
		return wire.Response{Status: sess.CreateTable(req.Table)}
	case wire.OpPing:
		return wire.Response{Status: pgssi.StatusOK}
	case wire.OpReplicaStatus:
		if s.rep != nil {
			// Safe is read before applied: both only grow, so a commit
			// and its marker applied between the two reads cannot put
			// safe past applied in the answer.
			safe := s.rep.SafeSeq()
			resp := wire.Response{
				Status:     pgssi.StatusOK,
				HasSeqs:    true,
				AppliedSeq: s.rep.AppliedSeq(),
				SafeSeq:    safe,
			}
			if s.rep.Err() != nil {
				resp.Status = pgssi.StatusReplicaHalted
			}
			return resp
		}
		// A primary is trivially caught up with itself.
		seq := s.db.CurrentSeq()
		return wire.Response{Status: pgssi.StatusOK, HasSeqs: true, AppliedSeq: seq, SafeSeq: seq}
	default:
		return wire.Response{Status: pgssi.StatusInvalidRequest}
	}
}

// Shutdown drains the server gracefully: stop accepting, refuse new
// Begins, close idle connections, wait up to DrainTimeout for in-flight
// transactions to finish, then force-close the rest (rolling their
// transactions back). It blocks until the drain completes and is safe
// to call multiple times and from signal handlers.
func (s *Server) Shutdown() {
	s.shutdownOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainStarted)
		s.mu.Lock()
		if s.listener != nil {
			s.listener.Close()
		}
		s.mu.Unlock()

		deadline := time.Now().Add(s.cfg.DrainTimeout)
		for {
			s.mu.Lock()
			remaining := 0
			for c := range s.conns {
				if c.sess.Open() == 0 {
					// Quiescent: unblock its read loop. The handler
					// also self-closes after its next response, so
					// this only shortens the wait for idle readers.
					c.Close()
				} else {
					remaining++
				}
			}
			s.mu.Unlock()
			if remaining == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}

		// Force whatever is left; serveConn's cleanup rolls back.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		close(s.done)
	})
	<-s.done
}

// DrainOnSignal installs a handler that calls Shutdown on the first of
// sigs (default: SIGTERM and SIGINT) and returns. A second signal
// force-exits the process.
func (s *Server) DrainOnSignal(sigs ...os.Signal) {
	if len(sigs) == 0 {
		sigs = []os.Signal{syscall.SIGTERM, syscall.SIGINT}
	}
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, sigs...)
	go func() {
		sig := <-ch
		s.cfg.Logf("server: received %v, draining", sig)
		go func() {
			<-ch
			log.Fatal("server: second signal, forcing exit")
		}()
		s.Shutdown()
	}()
}
