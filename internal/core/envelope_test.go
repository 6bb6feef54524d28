package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wam"
)

// spinGoal resolves for well over a second in either mode on a bounded
// stack: between/3 enumerates, the comparison fails, nothing nests.
const spinGoal = "between(1, 20000000, X), X < 0"

// TestEnvelopeBoundsBothEvaluators is the per-query envelope's contract:
// every way of bounding a query ends a runaway goal promptly and with the
// same error whether the WAM or the baseline interpreter evaluates it, the
// session answers a cheap query afterwards, and nothing is left running.
func TestEnvelopeBoundsBothEvaluators(t *testing.T) {
	const bound = 50 * time.Millisecond
	isPages := func(err error) bool { return wam.ResourceKind(err) == "pages" }
	is := func(want error) func(error) bool {
		return func(err error) bool { return errors.Is(err, want) }
	}
	cases := []struct {
		name string
		goal string
		// run starts goal on s and returns its iterator.
		run  func(t *testing.T, s *Session, goal string) (*Solutions, error)
		want func(error) bool
	}{
		{name: "SetTimeout", goal: spinGoal, want: is(wam.ErrTimeout),
			run: func(t *testing.T, s *Session, goal string) (*Solutions, error) {
				s.SetTimeout(bound)
				return s.Query(goal)
			}},
		{name: "QueryCtx deadline", goal: spinGoal, want: is(context.DeadlineExceeded),
			run: func(t *testing.T, s *Session, goal string) (*Solutions, error) {
				ctx, cancel := context.WithTimeout(context.Background(), bound)
				t.Cleanup(cancel)
				return s.QueryCtx(ctx, goal)
			}},
		{name: "QueryCtx cancel", goal: spinGoal, want: is(context.Canceled),
			run: func(t *testing.T, s *Session, goal string) (*Solutions, error) {
				ctx, cancel := context.WithCancel(context.Background())
				t.Cleanup(cancel)
				sols, err := s.QueryCtx(ctx, goal)
				time.AfterFunc(bound, cancel)
				return sols, err
			}},
		{name: "Interrupt", goal: spinGoal, want: is(wam.ErrInterrupted),
			run: func(t *testing.T, s *Session, goal string) (*Solutions, error) {
				sols, err := s.Query(goal)
				time.AfterFunc(bound, s.Interrupt)
				return sols, err
			}},
		{name: "pages quota", goal: "f(X), X < 0", want: isPages,
			run: func(t *testing.T, s *Session, goal string) (*Solutions, error) {
				s.SetQuota(Quota{PagesTouched: 2})
				return s.Query(goal)
			}},
	}

	var facts strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&facts, "f(%d).\n", i)
	}
	base := runtime.NumGoroutine()
	for mode, modeName := range map[RuleStorage]string{RuleStorageCompiled: "compiled", RuleStorageSource: "source"} {
		kb, err := OpenKB(Options{RuleStorage: mode})
		if err != nil {
			t.Fatal(err)
		}
		loader, err := kb.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := loader.ConsultExternal(facts.String() + "ok(yes).\n"); err != nil {
			t.Fatal(err)
		}
		loader.Close()
		for _, tc := range cases {
			t.Run(modeName+"/"+tc.name, func(t *testing.T) {
				s, err := kb.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				start := time.Now()
				sols, err := tc.run(t, s, tc.goal)
				if err != nil {
					t.Fatal(err)
				}
				if sols.Next() {
					t.Fatalf("%s produced a solution", tc.goal)
				}
				if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
					t.Errorf("ended after %v, want within 500ms", elapsed)
				}
				if !tc.want(sols.Err()) {
					t.Errorf("err = %v", sols.Err())
				}
				// The bound that killed the query must not leak into the
				// next one, beyond the session's own standing budget.
				s.SetQuota(Quota{})
				if got := values(t, s, "ok(X)", "X"); len(got) != 1 || got[0] != "yes" {
					t.Errorf("cheap query after the kill = %v", got)
				}
			})
		}
		kb.Close()
	}

	// Deep recursion: the WAM runs the loop in constant stack; the
	// interpreter nests with every step and must refuse, not overflow the
	// goroutine stack (which Go cannot recover from).
	t.Run("source depth", func(t *testing.T) {
		e := newSession(t, Options{RuleStorage: RuleStorageSource})
		if err := e.ConsultExternal("loop(0).\nloop(N) :- N > 0, M is N - 1, loop(M).\n"); err != nil {
			t.Fatal(err)
		}
		_, err := e.QueryAll("loop(3000000)")
		if wam.ResourceKind(err) != "depth" {
			t.Fatalf("loop(3000000) err = %v, want resource_error(depth)", err)
		}
		if n, err := e.QueryCount("loop(1000)"); err != nil || n != 1 {
			t.Fatalf("loop(1000) after the refusal: n=%d err=%v", n, err)
		}
	})

	// Interpreter workers and context watchers unwind asynchronously; give
	// them a moment, then insist none is left (the server package's leak
	// check, scoped to this test).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d alive, started with %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
