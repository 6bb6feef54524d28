package core

// Query-boundary robustness: runtime panics are contained as Prolog
// system_error terms, and runaway queries are bounded by deadlines and
// interrupts.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/wam"
)

func TestPanicContainedAsSystemError(t *testing.T) {
	e := newSession(t, Options{})
	e.Machine().RegisterBuiltin(wam.Builtin{Name: "boom", Arity: 0,
		Fn: func(*wam.Machine, []wam.Cell) (bool, error) { panic("kernel bug") }})
	if err := e.Consult(`go :- boom.`); err != nil {
		t.Fatal(err)
	}

	sols, err := e.Query("go")
	if err != nil {
		t.Fatalf("Query itself failed: %v", err)
	}
	if sols.Next() {
		t.Fatal("panicking goal produced a solution")
	}
	err = sols.Err()
	if err == nil {
		t.Fatal("panic vanished: no error reported")
	}
	if !strings.Contains(err.Error(), "system_error") || !strings.Contains(err.Error(), "kernel bug") {
		t.Fatalf("panic surfaced as %q, want a system_error term carrying the panic value", err)
	}
	if got := e.KB().Obs().Counter("core.panics_recovered").Value(); got != 1 {
		t.Fatalf("core.panics_recovered = %d, want 1", got)
	}

	// The session must remain usable for ordinary queries.
	if err := e.Consult(`ok(1).`); err != nil {
		t.Fatal(err)
	}
	if got := values(t, e, "ok(X)", "X"); len(got) != 1 || got[0] != "1" {
		t.Fatalf("session broken after contained panic: %v", got)
	}
}

func TestPanicInSystemErrorIsCatchable(t *testing.T) {
	e := newSession(t, Options{})
	e.Machine().RegisterBuiltin(wam.Builtin{Name: "boom", Arity: 0,
		Fn: func(*wam.Machine, []wam.Cell) (bool, error) { panic("contained") }})
	// A panic unwinds the Go stack past the WAM, so catch/3 cannot see
	// it mid-flight — but the error a caller gets is a ball term it can
	// match on.
	sols, err := e.Query("boom")
	if err != nil {
		t.Fatal(err)
	}
	sols.Next()
	ball, ok := sols.Err().(*wam.ErrBall)
	if !ok {
		t.Fatalf("panic error is %T, want *wam.ErrBall", sols.Err())
	}
	if !strings.Contains(ball.Term.String(), "system_error") {
		t.Fatalf("ball %s, want system_error", ball.Term)
	}
}

func TestDeadlineStopsRunawayQuery(t *testing.T) {
	e := newSession(t, Options{})
	e.SetTimeout(50 * time.Millisecond)
	start := time.Now()
	// A goal with an astronomically large search space: between/3
	// enumeration with a failing continuation never terminates on its
	// own within the test's lifetime.
	_, err := e.QueryAll("between(1, 1000000000, X), X < 0")
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("runaway query ended with %v, want timeout error", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline enforcement took %v", elapsed)
	}

	// Disarming restores normal operation.
	e.SetTimeout(0)
	if got := values(t, e, "between(1, 3, X)", "X"); len(got) != 3 {
		t.Fatalf("after disarm: %v", got)
	}
}

func TestTimeoutIsCatchable(t *testing.T) {
	e := newSession(t, Options{})
	e.SetTimeout(50 * time.Millisecond)
	defer e.SetTimeout(0)
	got, ok, err := e.QueryOnce("catch((between(1, 1000000000, X), X < 0), error(timeout, _), true)")
	if err != nil {
		t.Fatalf("catch of timeout failed: %v", err)
	}
	if !ok {
		t.Fatal("recovery goal did not succeed")
	}
	_ = got
}

func TestInterruptStopsRunawayQuery(t *testing.T) {
	e := newSession(t, Options{})
	done := make(chan error, 1)
	go func() {
		_, err := e.QueryAll("between(1, 1000000000, X), X < 0")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	e.Interrupt()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "interrupted") {
			t.Fatalf("interrupted query ended with %v, want interrupted error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("interrupt never took effect")
	}
	// The pending-interrupt flag must not leak into the next query.
	if got := values(t, e, "between(1, 3, X)", "X"); len(got) != 3 {
		t.Fatalf("after interrupt: %v", got)
	}
}
