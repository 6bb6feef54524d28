package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store/simfs"
)

// --- TXN / COMMIT / ROLLBACK over the wire -----------------------------------

func TestServerTransactionVerbs(t *testing.T) {
	kb := newTestKB(t)
	_, addr := newTestServer(t, kb, Config{MaxSessions: 2})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Committed transaction: the write is visible to other connections.
	if err := cl.Begin(); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := cl.Query("assert_external(f(991))"); err != nil {
		t.Fatalf("assert in txn: %v", err)
	}
	// The owner sees its own write mid-transaction.
	if res, err := cl.Query("f(991)"); err != nil || res.N != 1 {
		t.Fatalf("own write invisible in txn: %v (%v)", res, err)
	}
	if err := cl.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if res, err := cl2.Query("f(991)"); err != nil || res.N != 1 {
		t.Fatalf("committed write invisible elsewhere: %v (%v)", res, err)
	}

	// Rolled-back transaction: the write vanishes.
	if err := cl.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query("assert_external(f(992))"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if res, err := cl.Query("f(992)"); err != nil || res.N != 0 {
		t.Fatalf("rolled-back write survived: %v (%v)", res, err)
	}

	// Error mapping: stray COMMIT/ROLLBACK, nested TXN.
	var qe *QueryError
	if err := cl.Commit(); !errors.As(err, &qe) || !strings.Contains(qe.Msg, "no_transaction") {
		t.Fatalf("stray commit: %v", err)
	}
	if err := cl.Rollback(); !errors.As(err, &qe) || !strings.Contains(qe.Msg, "no_transaction") {
		t.Fatalf("stray rollback: %v", err)
	}
	if err := cl.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Begin(); !errors.As(err, &qe) || !strings.Contains(qe.Msg, "nested_transaction") {
		t.Fatalf("nested begin: %v", err)
	}
	if err := cl.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestServerTxnDisconnectRollsBack kills the connection mid-transaction
// and verifies the server rolls back and returns the pinned session to
// the pool.
func TestServerTxnDisconnectRollsBack(t *testing.T) {
	kb := newTestKB(t)
	_, addr := newTestServer(t, kb, Config{MaxSessions: 1})

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewScanner(c)
	expect := func(want string) {
		t.Helper()
		if !r.Scan() {
			t.Fatalf("expecting %q: %v", want, r.Err())
		}
		if got := r.Text(); got != want {
			t.Fatalf("reply = %q, want %q", got, want)
		}
	}
	expect(protoGreeting)
	io.WriteString(c, "TXN\n")
	expect(protoTxn)
	io.WriteString(c, "q assert_external(f(993))\n")
	expect("sol true")
	expect("end 1")
	c.Close() // vanish mid-transaction

	// A fresh connection's query blocks until the server notices the
	// dead peer, rolls back, and unpins the pool's only session — then
	// sees the pre-transaction state.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if res, err := cl.Query("f(993)"); err != nil || res.N != 0 {
		t.Fatalf("abandoned txn's write survived: %v (%v)", res, err)
	}
}

// TestServerInlineBeginPinsSession sends a plain `q begin.` — the
// begin/0 builtin without the TXN verb — and verifies the server adopts
// the session as the connection's pin instead of returning it to the
// pool with the KB write lock held (which would wedge every other
// session on its next storage access).
func TestServerInlineBeginPinsSession(t *testing.T) {
	kb := newTestKB(t)
	_, addr := newTestServer(t, kb, Config{MaxSessions: 1})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if res, err := cl.Query("begin"); err != nil || res.N != 1 {
		t.Fatalf("inline begin: %v (%v)", res, err)
	}
	if _, err := cl.Query("assert_external(f(995))"); err != nil {
		t.Fatal(err)
	}
	// The adopted pin interoperates with the COMMIT verb.
	if err := cl.Commit(); err != nil {
		t.Fatalf("commit after inline begin: %v", err)
	}
	// The pool's only session is back and unwedged: a second connection
	// runs queries and sees the committed write.
	cl2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if res, err := cl2.Query("f(995)"); err != nil || res.N != 1 {
		t.Fatalf("query after inline-begin txn: %v (%v)", res, err)
	}

	// Inline commit/0 releases the adopted pin the same way.
	if res, err := cl2.Query("begin"); err != nil || res.N != 1 {
		t.Fatalf("second inline begin: %v (%v)", res, err)
	}
	if _, err := cl2.Query("assert_external(f(996))"); err != nil {
		t.Fatal(err)
	}
	if res, err := cl2.Query("commit"); err != nil || res.N != 1 {
		t.Fatalf("inline commit: %v (%v)", res, err)
	}
	if res, err := cl.Query("f(996)"); err != nil || res.N != 1 {
		t.Fatalf("inline-committed write invisible elsewhere: %v (%v)", res, err)
	}

	// A connection that vanishes after an inline begin rolls back like a
	// TXN-opened one.
	if res, err := cl.Query("begin"); err != nil || res.N != 1 {
		t.Fatalf("third inline begin: %v (%v)", res, err)
	}
	if _, err := cl.Query("assert_external(f(997))"); err != nil {
		t.Fatal(err)
	}
	cl.c.Close() // vanish mid-transaction, bypassing ROLLBACK
	if res, err := cl2.Query("f(997)"); err != nil || res.N != 0 {
		t.Fatalf("abandoned inline txn's write survived: %v (%v)", res, err)
	}
}

// TestServerTxnQueryErrorUnpins checks that a query error inside a
// transaction auto-rolls it back server-side and releases the pin.
func TestServerTxnQueryErrorUnpins(t *testing.T) {
	kb := newTestKB(t)
	_, addr := newTestServer(t, kb, Config{MaxSessions: 1})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query("assert_external(f(994))"); err != nil {
		t.Fatal(err)
	}
	var qe *QueryError
	if _, err := cl.Query("no_such_predicate_xyz(1)"); !errors.As(err, &qe) {
		t.Fatalf("undefined predicate: %v", err)
	}
	// The error aborted the transaction: COMMIT has nothing to commit,
	// and the write is gone.
	if err := cl.Commit(); !errors.As(err, &qe) || !strings.Contains(qe.Msg, "no_transaction") {
		t.Fatalf("commit after auto-rollback: %v", err)
	}
	if res, err := cl.Query("f(994)"); err != nil || res.N != 0 {
		t.Fatalf("auto-rolled-back write survived: %v (%v)", res, err)
	}
}

// --- satellite 2: client retry with capped jittered backoff ------------------

func TestClientRetryBackoff(t *testing.T) {
	kb := newTestKB(t)
	_, addr := newTestServer(t, kb, Config{
		MaxSessions: 1,
		RetryAfter:  40 * time.Millisecond,
		Faults:      &Faults{ShedFirstN: 3},
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var sleeps []time.Duration
	cl.MaxRetries = 5
	cl.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }

	res, err := cl.Query("f(1)")
	if err != nil || res.N != 1 {
		t.Fatalf("query with retries: %v (%v)", res, err)
	}
	if len(sleeps) != 3 {
		t.Fatalf("slept %d times, want 3 (one per shed)", len(sleeps))
	}
	// Backoff doubles from the server hint with ±50% jitter:
	// attempt k sleeps in [hint<<k / 2, hint<<k].
	for k, d := range sleeps {
		lo := (40 * time.Millisecond << k) / 2
		hi := 40 * time.Millisecond << k
		if d < lo || d > hi {
			t.Fatalf("sleep %d = %v, want within [%v, %v]", k, d, lo, hi)
		}
	}
}

func TestClientRetryExhausted(t *testing.T) {
	kb := newTestKB(t)
	_, addr := newTestServer(t, kb, Config{
		MaxSessions: 1,
		Faults:      &Faults{ShedFirstN: 1000},
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	slept := 0
	cl.MaxRetries = 2
	cl.sleep = func(time.Duration) { slept++ }

	var ov *OverloadedError
	if _, err := cl.Query("f(1)"); !errors.As(err, &ov) {
		t.Fatalf("exhausted retries: %v, want OverloadedError", err)
	}
	if slept != 2 {
		t.Fatalf("slept %d times, want 2", slept)
	}
	// Without MaxRetries the first shed surfaces immediately.
	cl.MaxRetries = 0
	slept = 0
	if _, err := cl.Query("f(1)"); !errors.As(err, &ov) || slept != 0 {
		t.Fatalf("opt-out retry: %v (slept %d)", err, slept)
	}
}

// --- read-only degradation over the wire -------------------------------------

// TestServerReadOnlyAfterFailedCommit injects ENOSPC on the commit's
// first durability write and verifies the wire-level degraded mode:
// COMMIT answers "readonly", later TXNs are refused the same way,
// reads keep flowing, and in-query writes surface the catchable
// transaction_error(read_only) ball.
func TestServerReadOnlyAfterFailedCommit(t *testing.T) {
	ctl := simfs.NewCtl(-1)
	kb, err := core.OpenKBFS(simfs.New(ctl), core.Options{StorePath: "kb", PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kb.Close() })
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ConsultExternal("f(1). f(2)."); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := kb.Flush(); err != nil {
		t.Fatal(err)
	}

	_, addr := newTestServer(t, kb, Config{MaxSessions: 2})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query("assert_external(f(3))"); err != nil {
		t.Fatal(err)
	}
	// No durability ops happen inside the transaction (the WAL commit is
	// deferred), so the next op is the failed commit's first write.
	ctl.FailAt(ctl.Ops(), syscall.ENOSPC)

	var ro *ReadOnlyError
	if err := cl.Commit(); !errors.As(err, &ro) {
		t.Fatalf("commit over full disk: %v, want ReadOnlyError", err)
	}
	// Degraded mode: new transactions refused, reads fine, writes inside
	// queries throw the catchable ball, and the gauge is visible.
	if err := cl.Begin(); !errors.As(err, &ro) {
		t.Fatalf("TXN on read-only KB: %v, want ReadOnlyError", err)
	}
	if res, err := cl.Query("f(X)"); err != nil || res.N != 2 {
		t.Fatalf("read on degraded KB: %v (%v)", res, err)
	}
	var qe *QueryError
	if _, err := cl.Query("assert_external(f(4))"); !errors.As(err, &qe) || !strings.Contains(qe.Msg, "read_only") {
		t.Fatalf("write on degraded KB: %v", err)
	}
	if res, err := cl.Query("catch(assert_external(f(4)), error(transaction_error(read_only), educe), true)"); err != nil || res.N != 1 {
		t.Fatalf("read_only ball not catchable: %v (%v)", res, err)
	}
	if res, err := cl.Query("educe_statistics(store_read_only, N)"); err != nil || res.N != 1 || res.Solutions[0] != "N = 1" {
		t.Fatalf("store_read_only stat: %v (%v)", res, err)
	}
	if res, err := cl.Query("f(3)"); err != nil || res.N != 0 {
		t.Fatalf("failed commit leaked its write: %v (%v)", res, err)
	}
}

// TestServerTxnWriteSeenByRepeatedRead is the served_rw shape: two pool
// sessions keep answering one read text from the code they linked for it,
// and a transaction committed on one connection that retracts and asserts
// schedule2/5 clauses must show in the other connection's next run of the
// identical text.
func TestServerTxnWriteSeenByRepeatedRead(t *testing.T) {
	kb := newTestKB(t)
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	err = s.ConsultExternal("schedule2(l1, bus, a, b, 7). schedule2(l2, bus, b, c, 5).")
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, addr := newTestServer(t, kb, Config{MaxSessions: 2})
	writer, reader := dialClient(t, addr), dialClient(t, addr)
	const read = "schedule2(l1, Kind, From, To, M)"
	// The pool hands its sessions out in turn, so a run of reads from one
	// connection reaches both of them.
	reads := func(want string) {
		t.Helper()
		for i := 0; i < 4; i++ {
			res, err := reader.Query(read)
			if err != nil || strings.Join(res.Solutions, "; ") != want {
				t.Fatalf("%s, read %d: %v (err %v), want %s", read, i, res, err, want)
			}
		}
	}
	reads("From = a, Kind = bus, M = 7, To = b")
	if err := writer.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"retract_external(schedule2(l1, bus, a, b, 7))", "assert_external(schedule2(l1, tram, b, d, 9))"} {
		if res, err := writer.Query(g); err != nil || res.N != 1 {
			t.Fatalf("%s: %v (err %v)", g, res, err)
		}
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	reads("From = b, Kind = tram, M = 9, To = d")
}

func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}
