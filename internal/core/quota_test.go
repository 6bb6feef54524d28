package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/term"
	"repro/internal/wam"
)

// quotaTestProgram gives each resource a deterministic way to exhaust it:
//
//   - mklist/2 builds a live list of N cells — heap pressure the collector
//     cannot reclaim;
//   - trailburn/1 allocates N variables, pushes a choice point, then
//     binds them all, so every binding is trailed;
//   - EDB facts qf/2 (stored externally by the test setup) give the pages
//     and solutions workloads.
const quotaTestProgram = `
	mklist(0, []).
	mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).

	islist([]).
	islist([_|T]) :- islist(T).

	% grow/1 builds a list and then walks it, so the whole spine stays
	% reachable from the pending islist goal: heap the collector cannot
	% reclaim. (A bare mklist tail call lets the GC legitimately collect
	% the prefix behind the unbound tail.)
	grow(N) :- mklist(N, L), islist(L).

	mkvars(0, []).
	mkvars(N, [_|T]) :- N > 0, M is N - 1, mkvars(M, T).

	bindall([]).
	bindall([x|T]) :- bindall(T).

	chpt(1).
	chpt(2).

	trailburn(N) :- mkvars(N, L), chpt(_), bindall(L).
`

// newQuotaSession builds a session with the quota workloads resident and
// 3000 qf/2 facts in the EDB (enough to span several pages and several
// thousand solutions).
func newQuotaSession(t *testing.T) *Session {
	t.Helper()
	e := newSession(t, Options{})
	if err := e.Consult(quotaTestProgram); err != nil {
		t.Fatalf("consult: %v", err)
	}
	facts := make([]term.Term, 0, 3000)
	for i := 0; i < 3000; i++ {
		facts = append(facts, term.Comp("qf", term.Int(int64(i)), term.Int(int64(i%7))))
	}
	if err := e.ConsultExternalTerms(facts); err != nil {
		t.Fatalf("store facts: %v", err)
	}
	return e
}

// assertReusable proves a session still answers queries after a quota
// kill — the acceptance criterion that exhaustion must not poison the
// session.
func assertReusable(t *testing.T, s *Session) {
	t.Helper()
	s.SetQuota(Quota{})
	m, ok, err := s.QueryOnce("X is 6 * 7")
	if err != nil || !ok {
		t.Fatalf("session not reusable after quota kill: ok=%v err=%v", ok, err)
	}
	if got := m["X"].String(); got != "42" {
		t.Fatalf("reuse query answered %s, want 42", got)
	}
	if n, err := s.QueryCount("qf(1, Y)"); err != nil || n != 1 {
		t.Fatalf("EDB access after quota kill: n=%d err=%v", n, err)
	}
}

// TestQuotaResourceErrors is the quota-exhaustion table: each cap kills
// its workload with the right resource_error kind, the same ball is
// catchable from Prolog, and the session remains reusable afterwards.
func TestQuotaResourceErrors(t *testing.T) {
	cases := []struct {
		kind  string
		quota Quota
		// bare runs to exhaustion and must die with resource_error(kind).
		bare string
		// caught wraps the workload in catch/3; it must succeed with
		// R = quota_hit instead of erroring.
		caught string
	}{
		{
			kind:   "heap",
			quota:  Quota{HeapCells: 20000},
			bare:   "grow(200000)",
			caught: "catch(grow(200000), error(resource_error(heap), _), R = quota_hit)",
		},
		{
			kind:   "trail",
			quota:  Quota{TrailEntries: 2000},
			bare:   "trailburn(20000)",
			caught: "catch(trailburn(20000), error(resource_error(trail), _), R = quota_hit)",
		},
		{
			kind:   "pages",
			quota:  Quota{PagesTouched: 2},
			bare:   "qf(X, Y), qf(Y, Z), fail",
			caught: "catch((qf(X, Y), qf(Y, Z), fail), error(resource_error(pages), _), R = quota_hit)",
		},
		{
			kind:   "solutions",
			quota:  Quota{Solutions: 5},
			bare:   "qf(X, _)",
			caught: "catch(qf(X, _), error(resource_error(solutions), _), R = quota_hit)",
		},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			s := newQuotaSession(t)
			s.SetQuota(c.quota)

			// Bare workload: enumerate everything; the iteration must end
			// in resource_error(kind).
			sols, err := s.Query(c.bare)
			if err == nil {
				n := 0
				for sols.Next() {
					n++
					if c.quota.Solutions > 0 && n > c.quota.Solutions {
						t.Fatalf("%d solutions delivered past a %d-solution quota", n, c.quota.Solutions)
					}
				}
				sols.Close()
				err = sols.Err()
			}
			if got := wam.ResourceKind(err); got != c.kind {
				t.Fatalf("bare workload died with %v (kind %q), want resource_error(%s)", err, got, c.kind)
			}

			// Drop the code the bare run loaded, so the caught run pays
			// the EDB retrieval again — the pages quota measures I/O,
			// and warm resident code touches no pages.
			s.KB().InvalidateLoaded("qf", 2)

			// Catch-wrapped workload: the ball must be catchable in
			// Prolog, with the recovery goal producing a solution. The
			// solutions workload delivers its under-cap answers first
			// (catch markers stay armed across solutions), so scan for
			// the recovery binding rather than expecting it first.
			s.SetQuota(c.quota)
			sols2, err := s.Query(c.caught)
			if err != nil {
				t.Fatalf("caught workload errored at Query: %v", err)
			}
			hit := false
			for sols2.Next() {
				if fmt.Sprint(sols2.Binding("R")) == "quota_hit" {
					hit = true
					break
				}
			}
			sols2.Close()
			if !hit {
				t.Fatalf("recovery solution never delivered (err=%v): the ball was not catchable", sols2.Err())
			}

			assertReusable(t, s)
		})
	}
}

// TestSolutionsQuotaExactBudget proves the cap is a budget, not a guess:
// exactly Solutions answers come through, and the overflow error names
// the right resource.
func TestSolutionsQuotaExactBudget(t *testing.T) {
	s := newQuotaSession(t)
	s.SetQuota(Quota{Solutions: 7})
	sols, err := s.Query("qf(X, _)")
	if err != nil {
		t.Fatal(err)
	}
	defer sols.Close()
	n := 0
	for sols.Next() {
		n++
	}
	if n != 7 {
		t.Fatalf("delivered %d solutions, want exactly 7", n)
	}
	if got := wam.ResourceKind(sols.Err()); got != "solutions" {
		t.Fatalf("overflow error = %v, want resource_error(solutions)", sols.Err())
	}
	assertReusable(t, s)
}

// TestQuotaDoesNotFireUnderCap proves generous quotas are invisible: the
// same workloads complete when the caps exceed their needs, and
// reclaimable garbage does not count against the heap cap.
func TestQuotaDoesNotFireUnderCap(t *testing.T) {
	s := newQuotaSession(t)
	s.SetQuota(Quota{HeapCells: 1 << 22, TrailEntries: 1 << 22, PagesTouched: 1 << 20, Solutions: 1 << 20})
	if _, ok, err := s.QueryOnce("mklist(5000, L)"); err != nil || !ok {
		t.Fatalf("under-cap heap workload: ok=%v err=%v", ok, err)
	}
	if n, err := s.QueryCount("qf(X, _)"); err != nil || n != 3000 {
		t.Fatalf("under-cap EDB scan: n=%d err=%v", n, err)
	}
	// The heap cap is per query: consecutive queries each allocating a
	// sizeable fraction of the cap must all succeed, because Query
	// resets the machine between them.
	s.SetQuota(Quota{HeapCells: 60000})
	for i := 0; i < 5; i++ {
		if _, ok, err := s.QueryOnce("mklist(8000, L)"); err != nil || !ok {
			t.Fatalf("query %d under per-query heap cap: ok=%v err=%v", i, ok, err)
		}
	}
	assertReusable(t, s)
}

// TestQuotaErrorMessageShape pins the uncaught error text the server
// sends over the wire.
func TestQuotaErrorMessageShape(t *testing.T) {
	s := newQuotaSession(t)
	s.SetQuota(Quota{Solutions: 1})
	_, err := s.QueryAll("qf(X, _)")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "resource_error(solutions)") {
		t.Fatalf("error text %q does not name the resource", err.Error())
	}
}
