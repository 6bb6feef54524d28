package core_test

// Concurrency tests for the KnowledgeBase/Session split: N sessions over
// one shared knowledge base must answer queries concurrently (run these
// with -race), and a writer updating a stored procedure must invalidate
// every session's loaded copy.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/bench/mvv"
	"repro/internal/core"
)

// mvvStressQueries picks a mixed workload of MVV Class 1 and Class 2
// queries (direct connections and one-change routes).
func mvvStressQueries(data *mvv.Data) []string {
	var qs []string
	qs = append(qs, data.Class1[:5]...)
	qs = append(qs, data.Class2[:5]...)
	return qs
}

// TestConcurrentSessionsMVV runs 8 concurrent sessions over one shared
// knowledge base, each answering the mixed MVV workload, and checks every
// session's solution counts against a single session loaded with
// the same data (the differential baseline).
func TestConcurrentSessionsMVV(t *testing.T) {
	if testing.Short() {
		t.Skip("MVV stress test is slow")
	}
	data := mvv.Generate()
	queries := mvvStressQueries(data)

	// Differential baseline: one session over a private knowledge base.
	base, err := bench.SetupMVV(bench.EduceStar, data)
	if err != nil {
		t.Fatalf("baseline setup: %v", err)
	}
	defer base.KB().Close()
	defer base.Close()
	want := make([]int, len(queries))
	for i, q := range queries {
		n, err := base.QueryCount(q)
		if err != nil {
			t.Fatalf("baseline query %q: %v", q, err)
		}
		want[i] = n
	}

	kb, err := bench.SetupMVVKB(data)
	if err != nil {
		t.Fatalf("shared KB setup: %v", err)
	}
	defer kb.Close()

	const nSessions = 8
	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for w := 0; w < nSessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := bench.NewMVVSession(kb)
			if err != nil {
				errs <- fmt.Errorf("session %d: %v", w, err)
				return
			}
			defer s.Close()
			// Two passes: the first loads code from the EDB (and fills
			// the shared cache), the second hits resident/frozen code.
			for pass := 0; pass < 2; pass++ {
				for i, q := range queries {
					n, err := s.QueryCount(q)
					if err != nil {
						errs <- fmt.Errorf("session %d pass %d query %q: %v", w, pass, q, err)
						return
					}
					if n != want[i] {
						errs <- fmt.Errorf("session %d pass %d query %q: got %d solutions, want %d",
							w, pass, q, n, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWriterInvalidatesReaders checks cross-session cache invalidation:
// readers freeze a stored procedure's definition in their machines, a
// different session updates the stored procedure with ConsultExternal,
// and the readers' next queries must see the new clauses.
func TestWriterInvalidatesReaders(t *testing.T) {
	kb, err := core.OpenKB(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()

	writer, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.ConsultExternal("route(a, b). route(b, c)."); err != nil {
		t.Fatal(err)
	}

	const nReaders = 4
	readers := make([]*core.Session, nReaders)
	for i := range readers {
		s, err := kb.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		readers[i] = s
	}
	// Load (and freeze) the definition in every reader.
	for i, r := range readers {
		n, err := r.QueryCount("route(X, Y)")
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
		if n != 2 {
			t.Fatalf("reader %d: got %d routes before update, want 2", i, n)
		}
	}

	// The writer appends a clause to the stored procedure.
	if err := writer.ConsultExternal("route(c, d)."); err != nil {
		t.Fatal(err)
	}

	// Every reader must observe the update on its next query, even though
	// its machine had installed the old definition.
	for i, r := range readers {
		n, err := r.QueryCount("route(X, Y)")
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
		if n != 3 {
			t.Errorf("reader %d: got %d routes after update, want 3 (stale cache?)", i, n)
		}
	}

	// The writer's own session must see its write too.
	n, err := writer.QueryCount("route(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("writer: got %d routes after update, want 3", n)
	}
}

// TestConcurrentReadersWithWriter races reading sessions against a
// writing session appending facts to a stored procedure (run with -race).
// Each reader must always observe one of the states the writer produced
// (monotonically growing counts), never an error or a torn result, and its
// keyed read of tick(0), a key the writer never writes, must always answer
// the same: that variant stays resident while the writes drop the others.
func TestConcurrentReadersWithWriter(t *testing.T) {
	kb, err := core.OpenKB(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()

	setup, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.ConsultExternal("tick(0)."); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const nReaders = 8
	const nWrites = 20
	var wg sync.WaitGroup
	errs := make(chan error, nReaders+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		w, err := kb.NewSession()
		if err != nil {
			errs <- err
			return
		}
		defer w.Close()
		for i := 1; i <= nWrites; i++ {
			if err := w.ConsultExternal(fmt.Sprintf("tick(%d).", i)); err != nil {
				errs <- fmt.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()

	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s, err := kb.NewSession()
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			last := 0
			for i := 0; i < 50; i++ {
				n, err := s.QueryCount("tick(X)")
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if n < last || n > nWrites+1 {
					errs <- fmt.Errorf("reader %d: count went from %d to %d (writer max %d)",
						r, last, n, nWrites+1)
					return
				}
				last = n
				if n, err := s.QueryCount("tick(0)"); err != nil || n != 1 {
					errs <- fmt.Errorf("reader %d: tick(0) gave %d solutions (err=%v), want 1", r, n, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiesced: everyone sees the final state.
	final, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	n, err := final.QueryCount("tick(X)")
	if err != nil {
		t.Fatal(err)
	}
	if n != nWrites+1 {
		t.Errorf("final count %d, want %d", n, nWrites+1)
	}
}

// TestConcurrentSourceSessionsShareLibrary: sessions resolve library
// predicates against one table, compiled or read once per process (source
// mode's interpreter reads its terms, compiled mode links its code), and
// their own code against their own lists; several sessions running at once
// must neither race on the table nor see each other's code.
func TestConcurrentSourceSessionsShareLibrary(t *testing.T) {
	for _, rs := range []core.RuleStorage{core.RuleStorageSource, core.RuleStorageCompiled} {
		t.Run(fmt.Sprintf("storage%d", rs), func(t *testing.T) {
			concurrentSessionsShareLibrary(t, rs)
		})
	}
}

func concurrentSessionsShareLibrary(t *testing.T, rs core.RuleStorage) {
	kb, err := core.OpenKB(core.Options{RuleStorage: rs})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	const nSessions, rounds = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < nSessions; g++ {
		s, err := kb.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Consult(fmt.Sprintf("p(%d). p(x).", g)); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.Close()
			want := fmt.Sprintf("[%d]", g)
			for i := 0; i < rounds; i++ {
				n, err := s.QueryCount("append(X, Y, [1,2,3]), nth1(2, [a,b,c], b), msort([c,a,b], [a,b,c])")
				if err != nil || n != 4 {
					t.Errorf("session %d: append/nth1/msort: %d solutions, %v; want 4", g, n, err)
					return
				}
				sol, ok, err := s.QueryOnce("findall(X, (p(X), integer(X)), L)")
				if err != nil || !ok || sol["L"].String() != want {
					t.Errorf("session %d: own code: %v %v %v; want L = %s", g, sol, ok, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
