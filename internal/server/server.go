package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wam"
)

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// Config tunes the server's admission, deadline and quota policy. The
// zero value gets sensible defaults (see withDefaults).
type Config struct {
	// MaxSessions is the size of the core.Session pool — the number of
	// queries that may execute concurrently. Sessions are created
	// eagerly at New, so a misconfigured knowledge base fails fast.
	MaxSessions int
	// QueueDepth bounds how many admitted queries may wait for a free
	// session; past it, queries are shed immediately with an overloaded
	// reply instead of queueing without bound.
	QueueDepth int
	// QueueWait bounds how long one query may wait in the admission
	// queue before being shed.
	QueueWait time.Duration
	// MaxConns caps concurrently open connections; connections past the
	// cap are shed at accept. 0 derives a cap from MaxSessions and
	// QueueDepth.
	MaxConns int

	// ReadTimeout is the per-command read deadline: an idle connection
	// is closed after this long without a complete line.
	ReadTimeout time.Duration
	// WriteTimeout is the per-reply write deadline: a client that stops
	// reading while solutions stream at it is disconnected once the
	// socket buffers fill and a write blocks this long.
	WriteTimeout time.Duration

	// QueryTimeout bounds each query's wall-clock execution (0 = no
	// bound): every pool session gets it as its per-query budget.
	// Delivered inside the query as a catchable timeout ball.
	QueryTimeout time.Duration
	// Quota caps each query's resource consumption (heap, trail, EDB
	// pages, solutions); see core.Quota. The zero quota is unlimited.
	Quota core.Quota

	// Profile enables the per-predicate 4-port profiler on every pool
	// session; profiles merge into the KB table at query end (see
	// core.Session.EnableProfiling).
	Profile bool
	// SlowThreshold arms each pool session's slow-query diagnostic log:
	// served queries at or above it emit one slow_query record through
	// Tracer and bump the server.slow_queries counter (0 = disarmed).
	SlowThreshold time.Duration
	// Tracer receives the pool sessions' per-query trace events
	// (including slow_query records). One tracer serialises records from
	// all sessions; nil leaves tracing off.
	Tracer *obs.Tracer

	// RetryAfter is the hint attached to overloaded replies.
	RetryAfter time.Duration
	// DrainGrace is how long Shutdown waits after interrupting in-flight
	// queries (and again after force-closing connections) for handlers
	// to finish.
	DrainGrace time.Duration

	// SockWriteBuffer, when positive, shrinks each TCP connection's
	// kernel send buffer so write deadlines engage after a bounded
	// amount of unread output (used by tests to reap slow readers
	// deterministically).
	SockWriteBuffer int

	// SessionInit, when set, runs on every pool session at New — e.g. to
	// consult resident rules each session needs.
	SessionInit func(*core.Session) error

	// Faults, when set, injects deterministic failures (tests only).
	Faults *Faults
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxSessions
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 4*c.MaxSessions + 2*c.QueueDepth + 8
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = time.Second
	}
	return c
}

// Server serves the line protocol over a pool of sessions. Create with
// New, run with Serve (or Start), stop with Shutdown.
type Server struct {
	kb  *core.KnowledgeBase
	cfg Config

	// sessions is the pool; a session is owned exclusively by whoever
	// received it from the channel, and the channel's synchronisation
	// orders each owner's SetQuota/Query calls after the previous
	// owner's.
	sessions chan *core.Session
	queued   atomic.Int64

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	inflight map[*core.Session]struct{}
	closed   bool

	draining chan struct{}
	wg       sync.WaitGroup

	// shedSem bounds the goroutines writing overloaded replies to
	// connections shed at accept; when it is full the connection is
	// closed without the courtesy reply.
	shedSem chan struct{}

	mAccepted       *obs.Counter
	mAcceptSheds    *obs.Counter
	mAdmissionSheds *obs.Counter
	mQueries        *obs.Counter
	mSolutions      *obs.Counter
	mQueryErrors    *obs.Counter
	mQuotaKills     *obs.Counter
	mSlowQueries    *obs.Counter
	gConns          *obs.Gauge
	gQueue          *obs.Gauge
	gInflight       *obs.Gauge
	gDrainNS        *obs.Gauge
	hLatency        *obs.Histogram
}

// New builds a server over kb, creating the session pool eagerly.
func New(kb *core.KnowledgeBase, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		kb:       kb,
		cfg:      cfg,
		sessions: make(chan *core.Session, cfg.MaxSessions),
		conns:    map[net.Conn]struct{}{},
		inflight: map[*core.Session]struct{}{},
		draining: make(chan struct{}),
		shedSem:  make(chan struct{}, 32),
	}
	reg := kb.Obs()
	s.mAccepted = reg.Counter("server.conns_accepted")
	s.mAcceptSheds = reg.Counter("server.accept_sheds")
	s.mAdmissionSheds = reg.Counter("server.admission_sheds")
	s.mQueries = reg.Counter("server.queries")
	s.mSolutions = reg.Counter("server.solutions")
	s.mQueryErrors = reg.Counter("server.query_errors")
	s.mQuotaKills = reg.Counter("server.quota_kills")
	s.mSlowQueries = reg.Counter("server.slow_queries")
	s.gConns = reg.Gauge("server.active_conns")
	s.gQueue = reg.Gauge("server.queue_depth")
	s.gInflight = reg.Gauge("server.inflight")
	s.gDrainNS = reg.Gauge("server.drain_ns")
	s.hLatency = reg.Histogram("server.query_latency")

	for i := 0; i < cfg.MaxSessions; i++ {
		sess, err := kb.NewSession()
		if err == nil {
			if cfg.Profile {
				sess.EnableProfiling(true)
			}
			sess.SetTimeout(cfg.QueryTimeout)
			sess.SetSlowThreshold(cfg.SlowThreshold)
			if cfg.Tracer != nil {
				sess.SetTracer(cfg.Tracer)
			}
		}
		if err == nil && cfg.SessionInit != nil {
			if ierr := cfg.SessionInit(sess); ierr != nil {
				sess.Close()
				err = ierr
			}
		}
		if err != nil {
			close(s.sessions)
			for prev := range s.sessions {
				prev.Close()
			}
			return nil, fmt.Errorf("server: session %d: %w", i, err)
		}
		s.sessions <- sess
	}
	return s, nil
}

// Start listens on addr and serves in a background goroutine, returning
// the bound address (convenient with addr ":0").
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(ln)
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Shutdown (returning
// ErrServerClosed) or a non-temporary accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.draining:
				return ErrServerClosed
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.mAccepted.Inc()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		if len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.shedConn(c)
			continue
		}
		s.conns[c] = struct{}{}
		n := len(s.conns)
		s.mu.Unlock()
		s.gConns.Set(int64(n))
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// shedConn rejects a connection at accept with a best-effort overloaded
// reply, written from a bounded pool of writers so a connect flood
// cannot stall the accept loop or spawn unbounded goroutines.
func (s *Server) shedConn(c net.Conn) {
	s.mAcceptSheds.Inc()
	select {
	case s.shedSem <- struct{}{}:
		go func() {
			defer func() { <-s.shedSem }()
			c.SetWriteDeadline(time.Now().Add(time.Second))
			io.WriteString(c, overloadedLine(s.cfg.RetryAfter)+"\n")
			c.Close()
		}()
	default:
		c.Close()
	}
}

// handleConn runs one connection's command loop.
func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		n := len(s.conns)
		s.mu.Unlock()
		s.gConns.Set(int64(n))
		c.Close()
	}()

	if drop, stall := s.cfg.Faults.onConn(); drop {
		return
	} else if stall > 0 {
		select {
		case <-time.After(stall):
		case <-s.draining:
			return
		}
	}
	if s.cfg.SockWriteBuffer > 0 {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetWriteBuffer(s.cfg.SockWriteBuffer)
		}
	}
	// Replies collect in w; the loop sends each command's in one write.
	w := bufio.NewWriter(deadlineConn{c, s.cfg.WriteTimeout})
	defer w.Flush()
	ok := writeLine(w, protoGreeting)

	// pinned is the session held by this connection's open transaction,
	// nil outside one. A connection that dies mid-transaction (EOF, read
	// timeout, drain nudge, oversized line) rolls back here, so the
	// session always returns to the pool with no transaction open.
	var pinned *core.Session
	defer func() {
		if pinned != nil {
			_ = pinned.Rollback()
			s.releaseSession(pinned)
		}
	}()

	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 1024), maxLineBytes)
	for {
		if !ok || w.Flush() != nil {
			return
		}
		// Deadline first, then the drain check: Shutdown closes draining
		// before nudging read deadlines, so every interleaving either
		// sees the closed channel here or scans with an already-expired
		// deadline — an idle connection can never sleep through a drain.
		c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		select {
		case <-s.draining:
			writeLine(w, protoDraining)
			return
		default:
		}
		if !sc.Scan() {
			// EOF, oversized line, read timeout, or drain nudge. A drain
			// nudge expires the deadline mid-Scan, so a client parked in
			// a read (e.g. holding a transaction open) would otherwise
			// see a bare close; give it the same deterministic draining
			// reply an idle loop iteration would have sent. The deferred
			// rollback then releases its transaction.
			select {
			case <-s.draining:
				writeLine(w, protoDraining)
			default:
			}
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		switch cmd {
		case "ping":
			ok = writeLine(w, protoPong)
		case "quit":
			writeLine(w, protoBye)
			return
		case "q":
			ok = s.runQuery(w, strings.TrimSpace(rest), &pinned)
		case "TXN", "txn":
			ok = s.cmdTxn(w, &pinned)
		case "COMMIT", "commit":
			ok = s.cmdCommit(w, &pinned)
		case "ROLLBACK", "rollback":
			ok = s.cmdRollback(w, &pinned)
		case "BACKUP", "backup":
			ok = s.cmdBackup(w, pinned, strings.TrimSpace(rest))
		case "RW", "rw":
			ok = s.cmdClearReadOnly(w, pinned)
		default:
			ok = writeLine(w, "err unknown command "+sanitizeLine(cmd))
		}
	}
}

// cmdTxn opens a transaction: it admits like a query, then pins the
// acquired session to the connection until COMMIT/ROLLBACK (or
// disconnect, which rolls back). The transaction holds the KB write
// lock, so it serializes against every other session; the connection's
// read deadline bounds how long an idle transaction can do that.
func (s *Server) cmdTxn(w *bufio.Writer, pinned **core.Session) bool {
	if *pinned != nil {
		return writeLine(w, "err nested_transaction")
	}
	if s.kb.Store().ReadOnly() {
		return writeLine(w, protoReadOnly)
	}
	sess, shed := s.acquire()
	if sess == nil {
		return writeLine(w, shed)
	}
	if err := sess.Begin(); err != nil {
		s.releaseSession(sess)
		if errors.Is(err, store.ErrReadOnly) {
			return writeLine(w, protoReadOnly)
		}
		return writeLine(w, "err "+sanitizeLine(err.Error()))
	}
	*pinned = sess
	return writeLine(w, protoTxn)
}

// cmdCommit commits the connection's open transaction and returns the
// session to the pool. A failed commit has already rolled back and
// degraded the store to read-only; the reply reflects that.
func (s *Server) cmdCommit(w *bufio.Writer, pinned **core.Session) bool {
	if *pinned == nil {
		return writeLine(w, "err no_transaction")
	}
	sess := *pinned
	*pinned = nil
	err := sess.Commit()
	s.releaseSession(sess)
	if err != nil {
		if s.kb.Store().ReadOnly() {
			return writeLine(w, protoReadOnly)
		}
		return writeLine(w, "err "+sanitizeLine(err.Error()))
	}
	return writeLine(w, protoCommit)
}

// cmdRollback rolls back the connection's open transaction.
func (s *Server) cmdRollback(w *bufio.Writer, pinned **core.Session) bool {
	if *pinned == nil {
		return writeLine(w, "err no_transaction")
	}
	sess := *pinned
	*pinned = nil
	err := sess.Rollback()
	s.releaseSession(sess)
	if err != nil {
		return writeLine(w, "err "+sanitizeLine(err.Error()))
	}
	return writeLine(w, protoRollback)
}

// cmdBackup streams an online backup of the knowledge base to a file on
// the server host, with progress lines while the copy runs, each flushed
// as it is written. Refused
// inside a transaction: the pinned session holds the KB write lock for
// the transaction's whole lifetime and the backup's start/finish edges
// need the read lock, so the connection would deadlock against itself.
// A failed backup removes the partial file and leaves the primary (and
// its read-write status) untouched.
func (s *Server) cmdBackup(w *bufio.Writer, pinned *core.Session, path string) bool {
	if pinned != nil {
		return writeLine(w, "err backup_in_transaction")
	}
	if path == "" {
		return writeLine(w, "err backup needs a file path")
	}
	f, err := os.Create(path)
	if err != nil {
		return writeLine(w, "err backup "+sanitizeLine(err.Error()))
	}
	wok := true
	info, err := s.kb.BackupProgress(f, func(copied, total uint64) error {
		if _, err := fmt.Fprintf(w, "bk %d/%d\n", copied, total); err != nil || w.Flush() != nil {
			wok = false
			return errors.New("client went away")
		}
		return nil
	})
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		if !wok {
			return false
		}
		return writeLine(w, "err backup "+sanitizeLine(err.Error()))
	}
	return writeLine(w, fmt.Sprintf("ok backup pages=%d start_lsn=%d end_lsn=%d",
		info.Pages, info.StartLSN, info.EndLSN))
}

// cmdClearReadOnly lifts read-only degradation after the operator has
// resolved the fault behind it (see store.ClearReadOnly); a no-op "ok
// rw" when the store is already writable. Refused inside a transaction
// for the same self-deadlock reason as BACKUP.
func (s *Server) cmdClearReadOnly(w *bufio.Writer, pinned *core.Session) bool {
	if pinned != nil {
		return writeLine(w, "err rw_in_transaction")
	}
	if err := s.kb.ClearReadOnly(); err != nil {
		return writeLine(w, "err rw "+sanitizeLine(err.Error()))
	}
	return writeLine(w, protoRW)
}

// releaseSession returns a session to the pool.
func (s *Server) releaseSession(sess *core.Session) {
	s.sessions <- sess // buffered to pool size; never blocks
}

// acquire admits a query: fast path when a session is free, else a
// bounded wait in the admission queue. A nil session means shed (or
// draining); the returned line is the reply to send.
func (s *Server) acquire() (*core.Session, string) {
	select {
	case <-s.draining:
		return nil, protoDraining
	default:
	}
	if s.cfg.Faults.shedQuery() {
		s.mAdmissionSheds.Inc()
		return nil, overloadedLine(s.cfg.RetryAfter)
	}
	select {
	case sess := <-s.sessions:
		return sess, ""
	default:
	}
	q := s.queued.Add(1)
	s.gQueue.Set(q)
	defer func() { s.gQueue.Set(s.queued.Add(-1)) }()
	if q > int64(s.cfg.QueueDepth) {
		s.mAdmissionSheds.Inc()
		return nil, overloadedLine(s.cfg.RetryAfter)
	}
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case sess := <-s.sessions:
		return sess, ""
	case <-t.C:
		s.mAdmissionSheds.Inc()
		return nil, overloadedLine(s.cfg.RetryAfter)
	case <-s.draining:
		return nil, protoDraining
	}
}

// runQuery executes one goal on a pooled session, streaming solutions.
// Inside a transaction the connection's pinned session runs the goal
// (and keeps its pin, unless a query error auto-rolled the transaction
// back); otherwise a session is acquired through admission control, and
// a goal that leaves a transaction open (begin/0) pins it to the
// connection. It returns false when the connection is dead and must be
// closed.
func (s *Server) runQuery(w *bufio.Writer, goal string, pinned **core.Session) bool {
	if goal == "" {
		return writeLine(w, "err empty goal")
	}
	sess := *pinned
	if sess == nil {
		var shed string
		sess, shed = s.acquire()
		if sess == nil {
			return writeLine(w, shed)
		}
	}
	s.gInflight.Add(1)
	s.mu.Lock()
	s.inflight[sess] = struct{}{}
	s.mu.Unlock()
	s.mQueries.Inc()
	start := time.Now()

	quota := s.cfg.Quota
	if s.cfg.Faults != nil && s.cfg.Faults.ForceQuota {
		// An already-exhausted solution budget: the query dies inside
		// the WAM with resource_error(solutions) on its first Next.
		quota = core.Quota{Solutions: -1}
	}
	sess.SetQuota(quota)

	n, wok := 0, true
	sols, err := sess.Query(goal)
	if err == nil {
		for sols.Next() {
			n++
			if wok = writeSolution(w, sols); !wok {
				break
			}
		}
		sols.Close()
		err = sols.Err()
	}
	s.mu.Lock()
	delete(s.inflight, sess)
	s.mu.Unlock()
	s.gInflight.Add(-1)
	if *pinned == sess {
		// An error mid-query (timeout, quota, interrupt, disk fault)
		// auto-rolls the transaction back inside the session; the pin
		// then has nothing to protect, so release it.
		if !sess.InTxn() {
			*pinned = nil
			s.releaseSession(sess)
		}
	} else if sess.InTxn() {
		// The goal itself called begin/0 (a plain `q begin.` without the
		// TXN verb). Adopt the session as the connection's pin — exactly
		// as if TXN had opened the transaction — instead of returning it
		// to the pool holding the KB write lock, which would wedge every
		// other session; disconnect rolls it back like any pinned one.
		*pinned = sess
	} else {
		s.releaseSession(sess)
	}
	elapsed := time.Since(start)
	s.hLatency.Observe(elapsed)
	s.mSolutions.Add(uint64(n))
	if s.cfg.SlowThreshold > 0 && elapsed >= s.cfg.SlowThreshold {
		s.mSlowQueries.Inc()
	}

	if !wok {
		return false // write failed or timed out; reap the connection
	}
	if err != nil {
		s.mQueryErrors.Inc()
		if wam.ResourceKind(err) != "" {
			s.mQuotaKills.Inc()
		}
		return writeLine(w, "err "+sanitizeLine(err.Error()))
	}
	_, err = fmt.Fprintf(w, "end %d\n", n)
	return err == nil
}

// writeSolution appends the current solution's bindings as one sol line.
func writeSolution(w *bufio.Writer, sols *core.Solutions) bool {
	w.WriteString("sol ")
	names := sols.Vars()
	if len(names) == 0 {
		w.WriteString("true")
	}
	for i, name := range names {
		if i > 0 {
			w.WriteString(", ")
		}
		w.WriteString(name)
		w.WriteString(" = ")
		if t := sols.Binding(name); t != nil {
			w.WriteString(sanitizeLine(t.String()))
		} else {
			w.WriteString("_")
		}
	}
	return w.WriteByte('\n') == nil
}

// writeLine appends one reply line to the connection's buffer, reporting
// false once a write to the connection has failed.
func writeLine(w *bufio.Writer, line string) bool {
	w.WriteString(line)
	return w.WriteByte('\n') == nil
}

// deadlineConn arms the write deadline once per write: per reply flush.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (c deadlineConn) Write(p []byte) (int, error) {
	c.SetWriteDeadline(time.Now().Add(c.timeout))
	return c.Conn.Write(p)
}

// Shutdown drains the server: stop accepting, tell idle connections and
// queued queries the server is draining, wait for in-flight work until
// ctx expires, then interrupt the in-flight queries (they die with a
// catchable interrupted ball), and finally force-close any connection
// still open. All pool sessions are closed before returning. Safe to
// call more than once; later calls return immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()

	close(s.draining)
	if ln != nil {
		ln.Close()
	}
	// Nudge idle readers: an expired read deadline unblocks their Scan.
	// Ordered after close(draining) — see the handleConn loop comment.
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.inflight {
			sess.Interrupt()
		}
		s.mu.Unlock()
		select {
		case <-done:
		case <-time.After(s.cfg.DrainGrace):
			s.mu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.mu.Unlock()
			select {
			case <-done:
			case <-time.After(s.cfg.DrainGrace):
				return errors.New("server: connections survived drain")
			}
		}
	}

	// Every handler has exited, so every session is back in the pool.
	close(s.sessions)
	for sess := range s.sessions {
		sess.Close()
	}
	s.gDrainNS.Set(time.Since(start).Nanoseconds())
	return nil
}
