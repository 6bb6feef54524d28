package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/term"
)

// testProgram is stored externally (in the EDB) so every pool session
// reaches it through the dynamic loader, like real served predicates.
//
//   - f/1: 100 facts, the well-behaved workload;
//   - nat/1: infinitely many solutions of growing size — the hostile
//     enumerator used to occupy sessions and fill socket buffers;
//   - loop/1: a long-running deterministic computation;
//   - grow/1: unreclaimable heap pressure (see the core quota tests).
const testProgram = `
	nat(0).
	nat(s(N)) :- nat(N).

	loop(0).
	loop(N) :- N > 0, M is N - 1, loop(M).

	mklist(0, []).
	mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).
	islist([]).
	islist([_|T]) :- islist(T).
	grow(N) :- mklist(N, L), islist(L).
`

func newTestKB(t *testing.T) *core.KnowledgeBase {
	t.Helper()
	kb, err := core.OpenKB(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kb.Close() })
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ConsultExternal(testProgram); err != nil {
		t.Fatalf("store rules: %v", err)
	}
	facts := make([]term.Term, 0, 100)
	for i := 1; i <= 100; i++ {
		facts = append(facts, term.Comp("f", term.Int(int64(i))))
	}
	if err := s.ConsultExternalTerms(facts); err != nil {
		t.Fatalf("store facts: %v", err)
	}
	return kb
}

// newTestServer starts a server on a loopback port and arranges its
// shutdown at test end.
func newTestServer(t *testing.T, kb *core.KnowledgeBase, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(kb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, addr.String()
}

// TestPoolSessionsStartFromKBDefaults: the rule storage and strategy in
// the KB's Options are the defaults of every session it creates — a plain
// kb.NewSession() and a server pool session alike — and a setter on one
// session changes neither the KB's default nor the next session.
func TestPoolSessionsStartFromKBDefaults(t *testing.T) {
	kb, err := core.OpenKB(core.Options{RuleStorage: core.RuleStorageSource, Strategy: core.StrategySet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kb.Close() })
	check := func(what string, s *core.Session) {
		t.Helper()
		if s.RuleStorage() != core.RuleStorageSource || s.Strategy() != core.StrategySet {
			t.Errorf("%s: rule storage %d, strategy %s; want the KB's source storage and set strategy",
				what, s.RuleStorage(), s.Strategy())
		}
	}

	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check("kb.NewSession()", s)
	if err := s.SetRuleStorage(core.RuleStorageCompiled); err != nil {
		t.Fatal(err)
	}
	s.SetStrategy(core.StrategyTuple)
	if s.RuleStorage() != core.RuleStorageCompiled || s.Strategy() != core.StrategyTuple {
		t.Fatal("setters did not change their own session")
	}
	next, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	check("the session created after another's setters", next)

	pooled := 0
	newTestServer(t, kb, Config{MaxSessions: 2, SessionInit: func(s *core.Session) error {
		pooled++
		check("pool session", s)
		return nil
	}})
	if pooled != 2 {
		t.Fatalf("SessionInit saw %d pool sessions, want 2", pooled)
	}
}

func TestServeBasic(t *testing.T) {
	kb := newTestKB(t)
	_, addr := newTestServer(t, kb, Config{MaxSessions: 2})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	res, err := cl.Query("f(X)")
	if err != nil {
		t.Fatalf("f(X): %v", err)
	}
	if res.N != 100 || len(res.Solutions) != 100 {
		t.Fatalf("f(X): %d solutions (end %d), want 100", len(res.Solutions), res.N)
	}
	if res.Solutions[0] != "X = 1" {
		t.Fatalf("first solution %q, want %q", res.Solutions[0], "X = 1")
	}

	// A variable-free goal answers "true".
	res, err = cl.Query("f(42)")
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1 || res.Solutions[0] != "true" {
		t.Fatalf("f(42) = %+v, want one true", res)
	}

	// A failing goal is a clean zero-solution end, not an error.
	res, err = cl.Query("f(101)")
	if err != nil || res.N != 0 {
		t.Fatalf("f(101) = %+v err=%v, want end 0", res, err)
	}

	// A malformed goal is a query error; the connection stays usable.
	if _, err = cl.Query("f(X"); err == nil {
		t.Fatal("malformed goal did not error")
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("malformed goal error %T, want *QueryError", err)
	}
	if res, err = cl.Query("f(7)"); err != nil || res.N != 1 {
		t.Fatalf("connection unusable after query error: %+v err=%v", res, err)
	}
}

// rawConn is a protocol-level test client that can misbehave: send
// commands without reading replies, go silent, disconnect mid-query.
type rawConn struct {
	t *testing.T
	c net.Conn
	r *bufio.Scanner
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rc := &rawConn{t: t, c: c, r: bufio.NewScanner(c)}
	rc.r.Buffer(make([]byte, 0, 1024), maxLineBytes)
	return rc
}

func (rc *rawConn) send(line string) {
	rc.t.Helper()
	rc.c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(rc.c, line+"\n"); err != nil {
		rc.t.Fatalf("send %q: %v", line, err)
	}
}

func (rc *rawConn) recv() (string, error) {
	rc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if !rc.r.Scan() {
		if err := rc.r.Err(); err != nil {
			return "", err
		}
		return "", io.EOF
	}
	return rc.r.Text(), nil
}

func (rc *rawConn) expect(want string) {
	rc.t.Helper()
	got, err := rc.recv()
	if err != nil {
		rc.t.Fatalf("expecting %q: %v", want, err)
	}
	if got != want {
		rc.t.Fatalf("got %q, want %q", got, want)
	}
}

func (rc *rawConn) close() { rc.c.Close() }

// occupySession parks one server session: it starts an infinite
// enumeration and stops reading, so the server blocks writing solutions
// at it until the write deadline fires.
func occupySession(t *testing.T, addr string) *rawConn {
	t.Helper()
	rc := dialRaw(t, addr)
	rc.expect(protoGreeting)
	rc.send("q nat(X)")
	// Wait for the first solution so the session is certainly acquired.
	rc.expect("sol X = 0")
	return rc
}

func TestAdmissionShedding(t *testing.T) {
	kb := newTestKB(t)
	srv, addr := newTestServer(t, kb, Config{
		MaxSessions:     1,
		QueueDepth:      1,
		QueueWait:       300 * time.Millisecond,
		WriteTimeout:    10 * time.Second,
		RetryAfter:      125 * time.Millisecond,
		SockWriteBuffer: 4096,
	})

	hog := occupySession(t, addr)
	defer hog.close()

	// With the only session held, the first contender waits in the
	// queue and is shed after QueueWait; a second contender arriving
	// while the queue is full is shed immediately.
	type outcome struct {
		line    string
		elapsed time.Duration
	}
	results := make(chan outcome, 2)
	runContender := func() {
		rc := dialRaw(t, addr)
		defer rc.close()
		rc.expect(protoGreeting)
		start := time.Now()
		rc.send("q f(X)")
		line, err := rc.recv()
		if err != nil {
			line = "recv error: " + err.Error()
		}
		results <- outcome{line: line, elapsed: time.Since(start)}
	}
	go runContender()
	time.Sleep(100 * time.Millisecond) // let the first enter the queue
	go runContender()

	var got []outcome
	for i := 0; i < 2; i++ {
		select {
		case o := <-results:
			got = append(got, o)
		case <-time.After(5 * time.Second):
			t.Fatal("contender did not finish")
		}
	}
	for _, o := range got {
		ra, ok := parseRetryAfter(o.line)
		if !ok {
			t.Fatalf("contender got %q, want an overloaded reply", o.line)
		}
		if ra != 125*time.Millisecond {
			t.Fatalf("retry-after hint %v, want 125ms", ra)
		}
	}
	if v := srv.mAdmissionSheds.Value(); v < 2 {
		t.Fatalf("admission_sheds = %d, want >= 2", v)
	}

	// Releasing the hog frees the session; a new query succeeds.
	hog.close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl, err := Dial(addr)
		if err == nil {
			res, qerr := cl.Query("f(X)")
			cl.Close()
			if qerr == nil && res.N == 100 {
				break
			}
			err = qerr
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not recover after hog release: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSlowReaderReaped proves the acceptance scenario: a client that
// starts an infinite enumeration and stops reading is disconnected by
// the write deadline, and its session returns to the pool.
func TestSlowReaderReaped(t *testing.T) {
	kb := newTestKB(t)
	srv, addr := newTestServer(t, kb, Config{
		MaxSessions:     1,
		QueueDepth:      1,
		QueueWait:       2 * time.Second,
		WriteTimeout:    300 * time.Millisecond,
		SockWriteBuffer: 4096,
	})

	slow := occupySession(t, addr)
	defer slow.close()
	// Do not read anything further: the socket buffers fill with nat/1
	// solutions and the server's write blocks until WriteTimeout.

	// The single session must come back within a few write-timeouts.
	start := time.Now()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Query("f(X)")
	if err != nil || res.N != 100 {
		t.Fatalf("query after slow reader: %+v err=%v", res, err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("slow reader held the session for %v", d)
	}
	if srv.gInflight.Value() != 0 {
		t.Fatalf("inflight gauge = %d after reap, want 0", srv.gInflight.Value())
	}
}

func TestQuotaOverWire(t *testing.T) {
	kb := newTestKB(t)
	srv, addr := newTestServer(t, kb, Config{
		MaxSessions: 1,
		Quota:       core.Quota{Solutions: 3, HeapCells: 1 << 20},
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The enumeration delivers its three under-cap solutions, then the
	// quota kill arrives as an err line naming the resource.
	res, err := cl.Query("f(X)")
	if err == nil {
		t.Fatalf("f(X) under a 3-solution quota succeeded: %+v", res)
	}
	var qe *QueryError
	if !errors.As(err, &qe) || !strings.Contains(qe.Msg, "resource_error(solutions)") {
		t.Fatalf("quota kill reported as %v, want resource_error(solutions)", err)
	}

	// The same ball is catchable in the query itself: the client can
	// turn exhaustion into a normal answer.
	res, err = cl.Query("catch(grow(10000000), error(resource_error(heap), _), R = quota_hit)")
	if err != nil {
		t.Fatalf("catch over wire: %v", err)
	}
	found := false
	for _, s := range res.Solutions {
		if strings.Contains(s, "quota_hit") {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovery solution missing: %+v", res)
	}

	// The session survived both kills.
	if res, err = cl.Query("f(42)"); err != nil || res.N != 1 {
		t.Fatalf("session poisoned by quota kills: %+v err=%v", res, err)
	}
	// Only the uncaught kill counts: the caught query recovered inside
	// Prolog and finished as a normal success.
	if v := srv.mQuotaKills.Value(); v != 1 {
		t.Fatalf("quota_kills = %d, want 1", v)
	}
}

func TestForceQuotaFault(t *testing.T) {
	kb := newTestKB(t)
	_, addr := newTestServer(t, kb, Config{
		MaxSessions: 1,
		Faults:      &Faults{ForceQuota: true},
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		_, err := cl.Query("f(X)")
		var qe *QueryError
		if !errors.As(err, &qe) || !strings.Contains(qe.Msg, "resource_error(solutions)") {
			t.Fatalf("forced-quota query %d: %v, want resource_error(solutions)", i, err)
		}
	}
}

func TestDropAndStallFaults(t *testing.T) {
	kb := newTestKB(t)
	t.Run("drop", func(t *testing.T) {
		_, addr := newTestServer(t, kb, Config{
			MaxSessions: 1,
			Faults:      &Faults{DropEveryN: 2},
		})
		// Connection 1 survives, connection 2 is dropped pre-greeting.
		cl, err := Dial(addr)
		if err != nil {
			t.Fatalf("conn 1: %v", err)
		}
		cl.Close()
		if _, err := Dial(addr); err == nil {
			t.Fatal("conn 2 was not dropped")
		}
		if cl, err = Dial(addr); err != nil {
			t.Fatalf("conn 3: %v", err)
		}
		cl.Close()
	})
	t.Run("stall", func(t *testing.T) {
		_, addr := newTestServer(t, kb, Config{
			MaxSessions: 1,
			Faults:      &Faults{StallEveryN: 1, Stall: 300 * time.Millisecond},
		})
		start := time.Now()
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		cl.Close()
		if d := time.Since(start); d < 300*time.Millisecond {
			t.Fatalf("stalled connection greeted after %v, want >= 300ms", d)
		}
	})
}

func TestGracefulDrain(t *testing.T) {
	kb := newTestKB(t)
	srv, err := New(kb, Config{MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// One idle client connected; drain must notify and release it.
	idle := dialRaw(t, addr.String())
	defer idle.close()
	idle.expect(protoGreeting)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("idle drain took %v", d)
	}

	// The idle client sees the draining notice or an EOF.
	if line, err := idle.recv(); err == nil && line != protoDraining {
		t.Fatalf("idle client got %q during drain", line)
	}
	// New connections are refused.
	if _, err := net.DialTimeout("tcp", addr.String(), time.Second); err == nil {
		t.Fatal("listener still accepting after drain")
	}
	if srv.gDrainNS.Value() <= 0 {
		t.Fatal("drain_ns gauge not recorded")
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestDrainInterruptsStragglers proves the escalation path: an in-flight
// query that outlives the drain deadline is interrupted (a catchable
// ball), the client is told, and Shutdown still returns cleanly.
func TestDrainInterruptsStragglers(t *testing.T) {
	kb := newTestKB(t)
	srv, err := New(kb, Config{MaxSessions: 1, DrainGrace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	type reply struct {
		res *Result
		err error
	}
	replies := make(chan reply, 1)
	go func() {
		res, err := cl.Query(fmt.Sprintf("loop(%d)", int64(1)<<40))
		replies <- reply{res, err}
	}()
	// Give the query time to be admitted and start running.
	waitUntil(t, 5*time.Second, func() bool { return srv.gInflight.Value() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("drain with straggler took %v", d)
	}
	select {
	case r := <-replies:
		var qe *QueryError
		if !errors.As(r.err, &qe) || !strings.Contains(qe.Msg, "interrupted") {
			t.Fatalf("straggler outcome %+v err=%v, want interrupted error", r.res, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("straggler client never got an answer")
	}
}

func TestUnknownCommandAndEmptyGoal(t *testing.T) {
	kb := newTestKB(t)
	_, addr := newTestServer(t, kb, Config{MaxSessions: 1})
	rc := dialRaw(t, addr)
	defer rc.close()
	rc.expect(protoGreeting)
	rc.send("frobnicate now")
	rc.expect("err unknown command frobnicate")
	rc.send("q")
	rc.expect("err empty goal")
	rc.send("ping")
	rc.expect(protoPong)
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countingListener counts the writes to every connection it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneWritePerReply: a command's reply leaves in one write — a query's
// sol lines with its end line, or with its err line when it fails after
// producing solutions, and TXN's and COMMIT's lines each.
func TestOneWritePerReply(t *testing.T) {
	kb := newTestKB(t)
	srv, err := New(kb, Config{MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	go srv.Serve(countingListener{ln, &writes})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	rc := dialRaw(t, ln.Addr().String())
	defer rc.close()
	rc.expect(protoGreeting)
	for _, tc := range []struct {
		cmd   string
		reply []string // the last line is matched as a prefix
	}{
		{"q f(X), X < 4", []string{"sol X = 1", "sol X = 2", "sol X = 3", "end 3"}},
		{"q f(X), (X < 3 -> true ; throw(boom))", []string{"sol X = 1", "sol X = 2", "err "}},
		{"TXN", []string{protoTxn}},
		{"COMMIT", []string{protoCommit}},
	} {
		before := writes.Load()
		rc.send(tc.cmd)
		last := len(tc.reply) - 1
		for _, want := range tc.reply[:last] {
			rc.expect(want)
		}
		if got, err := rc.recv(); err != nil || !strings.HasPrefix(got, tc.reply[last]) {
			t.Fatalf("%s: last line %q (%v), want %q...", tc.cmd, got, err, tc.reply[last])
		}
		if n := writes.Load() - before; n != 1 {
			t.Errorf("%s: reply took %d writes, want 1", tc.cmd, n)
		}
	}
}
