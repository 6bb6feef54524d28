package repro

// One benchmark per table/figure of the paper's evaluation (§5), plus the
// ablation benchmarks for the design decisions of §3. See DESIGN.md for
// the experiment index and EXPERIMENTS.md for recorded results.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/bench/icheck"
	"repro/internal/bench/mvv"
	"repro/internal/bench/wisconsin"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/obs"
	"repro/internal/wam"
)

// --- shared lazily-built environments ---------------------------------------

var (
	mvvOnce sync.Once
	mvvData *mvv.Data
	mvvEng  map[bench.System]*core.Session
	mvvErr  error

	wiscOnce sync.Once
	wiscEnv  *bench.WisconsinEnv
	wiscErr  error

	icOnce sync.Once
	icEng  map[bench.System]*core.Session
	icErr  error

	mvvKBOnce sync.Once
	mvvKB     *core.KnowledgeBase
	mvvKBData *mvv.Data
	mvvKBErr  error

	wiscKBOnce sync.Once
	wiscKB     *core.KnowledgeBase
	wiscKBErr  error
)

func mvvSetup(b *testing.B) (map[bench.System]*core.Session, *mvv.Data) {
	b.Helper()
	mvvOnce.Do(func() {
		mvvData = mvv.Generate()
		mvvEng = map[bench.System]*core.Session{}
		for _, sys := range []bench.System{bench.EduceStar, bench.Educe} {
			e, err := bench.SetupMVV(sys, mvvData)
			if err != nil {
				mvvErr = err
				return
			}
			mvvEng[sys] = e
		}
	})
	if mvvErr != nil {
		b.Fatal(mvvErr)
	}
	return mvvEng, mvvData
}

func wiscSetup(b *testing.B) *bench.WisconsinEnv {
	b.Helper()
	wiscOnce.Do(func() { wiscEnv, wiscErr = bench.SetupWisconsin(10000) })
	if wiscErr != nil {
		b.Fatal(wiscErr)
	}
	return wiscEnv
}

func icSetup(b *testing.B) map[bench.System]*core.Session {
	b.Helper()
	icOnce.Do(func() {
		icEng = map[bench.System]*core.Session{}
		for _, sys := range []bench.System{bench.GoodCompiler, bench.EduceStar} {
			e, err := bench.SetupIC(sys)
			if err != nil {
				icErr = err
				return
			}
			icEng[sys] = e
		}
	})
	if icErr != nil {
		b.Fatal(icErr)
	}
	return icEng
}

// newSession opens a private knowledge base with opts and one session over
// it; both are closed when the benchmark ends.
func newSession(tb testing.TB, opts core.Options) *core.Session {
	tb.Helper()
	kb, err := core.OpenKB(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { kb.Close() })
	s, err := kb.NewSession()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// --- E1: Table 1 — MVV times -------------------------------------------------

func benchMVV(b *testing.B, sys bench.System, class int) {
	engines, data := mvvSetup(b)
	e := engines[sys]
	queries := data.Class1
	if class == 2 {
		queries = data.Class2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.RunMVVClass(e, queries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMVVClass1EduceStar(b *testing.B) { benchMVV(b, bench.EduceStar, 1) }
func BenchmarkMVVClass2EduceStar(b *testing.B) { benchMVV(b, bench.EduceStar, 2) }
func BenchmarkMVVClass1Educe(b *testing.B)     { benchMVV(b, bench.Educe, 1) }
func BenchmarkMVVClass2Educe(b *testing.B)     { benchMVV(b, bench.Educe, 2) }

// Profiled variant: same class-1 workload with the 4-port profiler on.
// Diffing this against BenchmarkMVVClass1EduceStar measures the enabled
// profiler's overhead; BenchmarkMVVClass1EduceStar itself (profiler off,
// one nil check per port site) must stay within 5% of the recorded
// pre-profiler baseline in EXPERIMENTS.md.
func BenchmarkMVVClass1Profiled(b *testing.B) {
	kb, data := mvvKBSetup(b)
	s, err := bench.NewMVVSession(kb)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.EnableProfiling(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.RunMVVClass(s, data.Class1); err != nil {
			b.Fatal(err)
		}
	}
}

// File-backed variants: same workload through the durable store —
// checksummed frames, write-ahead log, recovery metadata — to measure
// the cost of crash safety against the in-memory baselines above.
func benchMVVFile(b *testing.B, class int) {
	data := mvv.Generate()
	e, err := bench.SetupMVVAt(bench.EduceStar, data, filepath.Join(b.TempDir(), "mvv.edb"))
	if err != nil {
		b.Fatal(err)
	}
	defer e.KB().Close()
	defer e.Close()
	queries := data.Class1
	if class == 2 {
		queries = data.Class2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.RunMVVClass(e, queries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMVVClass1EduceStarFile(b *testing.B) { benchMVVFile(b, 1) }
func BenchmarkMVVClass2EduceStarFile(b *testing.B) { benchMVVFile(b, 2) }

// --- E1 concurrent: N sessions over one shared knowledge base -----------------

func mvvKBSetup(b *testing.B) (*core.KnowledgeBase, *mvv.Data) {
	b.Helper()
	mvvKBOnce.Do(func() {
		mvvKBData = mvv.Generate()
		mvvKB, mvvKBErr = bench.SetupMVVKB(mvvKBData)
	})
	if mvvKBErr != nil {
		b.Fatal(mvvKBErr)
	}
	return mvvKB, mvvKBData
}

// BenchmarkMVVParallel serves the mixed MVV workload from GOMAXPROCS
// concurrent sessions sharing one knowledge base; one op is one query.
// Compare with the single-session Class benchmarks to see the scaling of
// the shared read path.
func BenchmarkMVVParallel(b *testing.B) {
	kb, data := mvvKBSetup(b)
	queries := append(append([]string{}, data.Class1...), data.Class2...)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s, err := bench.NewMVVSession(kb)
		if err != nil {
			b.Error(err)
			return
		}
		defer s.Close()
		i := 0
		for pb.Next() {
			q := queries[i%len(queries)]
			i++
			if _, err := s.QueryCount(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- E2/E3: Tables 2a/2b — Wisconsin ----------------------------------------

func benchWisc(b *testing.B, f func(*bench.WisconsinEnv) (int, error)) {
	env := wiscSetup(b)
	st := env.Session.KB().Store()
	st.ResetStats()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		n, err := f(env)
		if err != nil {
			b.Fatal(err)
		}
		rows = n
	}
	b.StopTimer()
	io := st.Stats()
	b.ReportMetric(float64(rows), "rows")
	b.ReportMetric(float64(io.Accesses)/float64(b.N), "bufacc/op")
	b.ReportMetric(float64(io.Reads)/float64(b.N), "pgreads/op")
	b.ReportMetric(float64(io.Writes)/float64(b.N), "pgwrites/op")
}

func BenchmarkWisconsinSel1Pct(b *testing.B) {
	benchWisc(b, func(e *bench.WisconsinEnv) (int, error) { return wisconsin.Select1Pct(e.A) })
}

func BenchmarkWisconsinSel10Pct(b *testing.B) {
	benchWisc(b, func(e *bench.WisconsinEnv) (int, error) { return wisconsin.Select10Pct(e.A) })
}

func BenchmarkWisconsinSelOne(b *testing.B) {
	benchWisc(b, func(e *bench.WisconsinEnv) (int, error) { return wisconsin.SelectOne(e.A) })
}

func BenchmarkWisconsinJoin2(b *testing.B) {
	benchWisc(b, func(e *bench.WisconsinEnv) (int, error) { return wisconsin.JoinAselB(e.A, e.B) })
}

func BenchmarkWisconsinJoin3(b *testing.B) {
	benchWisc(b, func(e *bench.WisconsinEnv) (int, error) {
		return wisconsin.JoinCselAselB(e.A, e.B, e.C)
	})
}

func BenchmarkWisconsinTermSelOne(b *testing.B) {
	env := wiscSetup(b)
	q := wisconsin.TermQueries("wisc_a", "wisc_b", "wisc_c", env.N)["selone"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Session.QueryCount(q); err != nil {
			b.Fatal(err)
		}
	}
}

func wiscKBSetup(b *testing.B) *core.KnowledgeBase {
	b.Helper()
	wiscKBOnce.Do(func() { wiscKB, wiscKBErr = bench.SetupWisconsinKB(10000) })
	if wiscKBErr != nil {
		b.Fatal(wiscKBErr)
	}
	return wiscKB
}

// BenchmarkWisconsinParallel drives the term-oriented one-row selection
// from GOMAXPROCS concurrent sessions over one shared knowledge base
// (each session calls the relations as predicates, found at their first
// call; the buffer pool and indices are shared).
func BenchmarkWisconsinParallel(b *testing.B) {
	kb := wiscKBSetup(b)
	q := wisconsin.TermQueries("wisc_a", "wisc_b", "wisc_c", 10000)["selone"]
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s, err := kb.NewSession()
		if err != nil {
			b.Error(err)
			return
		}
		defer s.Close()
		for pb.Next() {
			if _, err := s.QueryCount(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkWisconsinTermSel1Pct(b *testing.B) {
	env := wiscSetup(b)
	q := wisconsin.TermQueries("wisc_a", "wisc_b", "wisc_c", env.N)["sel1pct"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Session.QueryCount(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: Table 3 — integrity-check preprocess --------------------------------

func benchIC(b *testing.B, sys bench.System) {
	engines := icSetup(b)
	e := engines[sys]
	updates := icheck.Updates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range updates {
			if _, err := e.QueryAll(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkIntegrityPreprocessGC(b *testing.B)        { benchIC(b, bench.GoodCompiler) }
func BenchmarkIntegrityPreprocessEduceStar(b *testing.B) { benchIC(b, bench.EduceStar) }

// --- E6: compile-phase split ---------------------------------------------------

func BenchmarkCompilePhases(b *testing.B) {
	e := newSession(b, core.Options{})
	src := mvv.Rules + icheck.Program
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Consult(src); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ph := e.Cost().Phases
	parse, compile, link := ph.Get(obs.PhaseParse), ph.Get(obs.PhaseCompile), ph.Get(obs.PhaseLink)
	if total := parse + compile + link; total > 0 {
		b.ReportMetric(100*float64(parse)/float64(total), "parse%")
		b.ReportMetric(100*float64(compile)/float64(total), "codegen%")
		b.ReportMetric(100*float64(link)/float64(total), "link%")
	}
}

// --- E7: per-use rule cost ------------------------------------------------------

func benchRuleUse(b *testing.B, sys bench.System) {
	opts := core.Options{}
	if sys == bench.Educe {
		opts.RuleStorage = core.RuleStorageSource
	}
	e := newSession(b, opts)
	src := "f(0, 1).\nf(N, V) :- N > 0, N1 is N - 1, f(N1, V1), V is V1 + N.\nwork :- f(60, _), f(61, _), f(62, _), f(63, _), f(64, _).\n"
	if err := e.ConsultExternal(src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.QueryAll("work"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuleUseEduceStar(b *testing.B) { benchRuleUse(b, bench.EduceStar) }
func BenchmarkRuleUseEduce(b *testing.B)     { benchRuleUse(b, bench.Educe) }

// --- A1: pre-unification on/off ------------------------------------------------

func benchPreUnification(b *testing.B, disable bool) {
	// Measures the cost of one dynamic load (trap -> EDB retrieval ->
	// link) with and without the pre-unification filter. The loaded code
	// is invalidated between iterations so every query pays a fresh
	// load; without invalidation the session code cache would hide the
	// retrieval entirely (the frozen-definition fast path).
	e := newSession(b, core.Options{DisablePreUnification: disable})
	var src string
	for i := 0; i < 2000; i++ {
		src += fmt.Sprintf("fact(k%d, %d).\n", i, i)
	}
	if err := e.ConsultExternal(src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.InvalidateLoaded("fact", 2)
		q := fmt.Sprintf("fact(k%d, V)", i%2000)
		if _, err := e.QueryAll(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := e.Stats()
	b.ReportMetric(float64(st.EDB.CandidatesReturned)/float64(st.EDB.Retrievals), "candidates/retrieval")
}

func BenchmarkPreUnificationOn(b *testing.B)  { benchPreUnification(b, false) }
func BenchmarkPreUnificationOff(b *testing.B) { benchPreUnification(b, true) }

// --- A2/A4: first-argument indexing & choice-point elision -----------------------

func benchIndexing(b *testing.B, disable bool) {
	e := newSession(b, core.Options{DisableIndexing: disable})
	var src string
	for i := 0; i < 500; i++ {
		src += fmt.Sprintf("big(c%d, %d).\n", i, i)
	}
	if err := e.Consult(src); err != nil {
		b.Fatal(err)
	}
	e.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("big(c%d, V)", i%500)
		if _, err := e.QueryAll(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := e.Stats().Machine
	b.ReportMetric(float64(st.ChoicePoints)/float64(b.N), "choicepoints/op")
	b.ReportMetric(float64(st.Instructions)/float64(b.N), "instrs/op")
}

func BenchmarkFirstArgIndexingOn(b *testing.B)  { benchIndexing(b, false) }
func BenchmarkFirstArgIndexingOff(b *testing.B) { benchIndexing(b, true) }

// --- A3: dictionary-ID unification vs string comparison --------------------------

var sinkBool bool

func BenchmarkDictUnifyIDs(b *testing.B) {
	// Atom identity via dictionary IDs: one 64-bit compare, independent
	// of name length (the paper's §3.3.1 design point 1).
	m := wam.NewMachine(nil)
	long := make([]byte, 256)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	a := wam.MakeCon(m.Dict.Intern(string(long), 0))
	c := wam.MakeCon(m.Dict.Intern(string(long), 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = a == c
	}
}

func BenchmarkDictUnifyStrings(b *testing.B) {
	// The counterfactual: comparing the atom names as strings on every
	// unification, cost growing with name length.
	long := make([]byte, 256)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	s1 := string(long)
	s2 := string(append([]byte(nil), long...)) // distinct backing array
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = s1 == s2
	}
}

// --- A5: GC overhead ---------------------------------------------------------------

func benchGC(b *testing.B, disable bool) {
	e := newSession(b, core.Options{})
	e.Machine().SetGC(!disable)
	e.Machine().SetGCThreshold(64 * 1024)
	e.Consult(`
		build(0, []) :- !.
		build(N, [N|T]) :- N1 is N - 1, build(N1, T).
		churn(0) :- !.
		churn(N) :- build(400, _), N1 is N - 1, churn(N1).
	`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.QueryAll("churn(200)"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Stats().Machine.GCRuns)/float64(b.N), "gcruns/op")
}

func BenchmarkGCOverheadEnabled(b *testing.B)  { benchGC(b, false) }
func BenchmarkGCOverheadDisabled(b *testing.B) { benchGC(b, true) }

// --- A6: dictionary growth and balancing ---------------------------------------------

func BenchmarkDictGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := dict.New(dict.WithSegmentSize(1024))
		for j := 0; j < 20000; j++ {
			d.Intern(fmt.Sprintf("atom_%d", j), j%4)
		}
		if i == 0 {
			b.ReportMetric(float64(d.Segments()), "segments")
		}
	}
}

// --- classic Prolog benchmarks (machine throughput context) ------------------

// BenchmarkNrev30 is the classic naive-reverse benchmark (496 logical
// inferences per run on a 30-element list); ns/op / 496 gives the
// emulator's LIPS figure, contextualising the paper-scale results.
func BenchmarkNrev30(b *testing.B) {
	e := newSession(b, core.Options{})
	e.Consult(`
		nrev([], []).
		nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
		run :- nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,
		              21,22,23,24,25,26,27,28,29,30], _).
	`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.QueryAll("run"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(496/(perOp/1e9)/1e6, "MLIPS")
}

// BenchmarkQueens8 stresses backtracking and choice-point machinery.
func BenchmarkQueens8(b *testing.B) {
	e := newSession(b, core.Options{})
	e.Consult(`
		queens(N, Qs) :- numlist(1, N, Ns), perm(Ns, Qs), safe(Qs).
		perm([], []).
		perm(L, [H|T]) :- select(H, L, R), perm(R, T).
		safe([]).
		safe([Q|Qs]) :- noattack(Q, Qs, 1), safe(Qs).
		noattack(_, [], _).
		noattack(Q, [Q2|Qs], D) :-
			Q =\= Q2 + D, Q =\= Q2 - D,
			D1 is D + 1, noattack(Q, Qs, D1).
	`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, ok, err := e.QueryOnce("queens(8, Qs)")
		if err != nil || !ok {
			b.Fatalf("queens: %v %v", ok, err)
		}
		_ = sol
	}
}

// --- A2: choice-point elision on EDB access -----------------------------------

// benchCPElision measures choice points per EDB fact access: with
// type+value indexing the deterministic collect interface creates none
// for selective calls (paper §3.2.1); without it every access carries a
// repeat-style choice point chain.
func benchCPElision(b *testing.B, disable bool) {
	// The "off" configuration is the naive path: no EDB pre-unification
	// (every clause is loaded) and no switch dispatch (a try/retry chain
	// walks them with a live choice point), the repeat-style access the
	// paper argues against.
	e := newSession(b, core.Options{DisableIndexing: disable, DisablePreUnification: disable})
	var src string
	for i := 0; i < 300; i++ {
		src += fmt.Sprintf("row(r%d, %d).\n", i, i)
	}
	if err := e.ConsultExternal(src); err != nil {
		b.Fatal(err)
	}
	e.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("row(r%d, V)", i%300)
		if _, err := e.QueryAll(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Stats().Machine.ChoicePoints)/float64(b.N), "choicepoints/op")
}

func BenchmarkChoicePointElisionOn(b *testing.B)  { benchCPElision(b, false) }
func BenchmarkChoicePointElisionOff(b *testing.B) { benchCPElision(b, true) }
