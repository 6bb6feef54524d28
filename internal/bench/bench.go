// Package bench contains the experiment runners that regenerate every
// table in the paper's evaluation (§5, E1–E7). The same runners back the
// testing.B benchmarks in the repository root and the cmd/benchtool
// table printer. Each setup opens a private knowledge base and returns a
// session over it; callers close the session, then s.KB().
package bench

import (
	"fmt"
	"time"

	"repro/internal/bench/icheck"
	"repro/internal/bench/mvv"
	"repro/internal/bench/wisconsin"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/store"
)

// System identifies which engine configuration runs a workload.
type System string

// Systems under comparison.
const (
	// Educe is the loosely-coupled baseline: source rules, interpreter.
	Educe System = "educe"
	// EduceStar is the paper's system: compiled rules in the EDB, WAM.
	EduceStar System = "educe*"
	// GoodCompiler is a pure in-memory WAM compiler (no EDB), the "GC"
	// column of Table 3.
	GoodCompiler System = "gc"
)

// CPUScale models the paper's §5.4 diskless-workstation experiment: the
// Sun 3/280S (25 MHz, ~4 MIPS) versus the Sun 3/60 (20 MHz, ~3 MIPS).
// Measured times are multiplied by ServerScale for the "server" column and
// ClientScale for the slower "client".
const (
	ServerScale = 1.0
	ClientScale = 4.0 / 3.0
)

// --- E1: the MVV knowledge base (Table 1) ----------------------------------

// MVVRow is one cell of Table 1.
type MVVRow struct {
	System    System
	Class     int // 1 or 2
	Run       int // 1 = first run, 2 = second run (buffer warmth)
	Elapsed   time.Duration
	PerQuery  time.Duration
	Solutions int
}

// openSession opens a private knowledge base with opts and one session
// over it, then runs load on the session; on any error both are closed.
func openSession(opts core.Options, load func(*core.Session) error) (*core.Session, error) {
	kb, err := core.OpenKB(opts)
	if err != nil {
		return nil, err
	}
	s, err := kb.NewSession()
	if err == nil {
		if err = load(s); err != nil {
			s.Close()
		}
	}
	if err != nil {
		kb.Close()
		return nil, err
	}
	return s, nil
}

// closeAll closes s and then the private knowledge base under it.
func closeAll(s *core.Session) {
	s.Close()
	s.KB().Close()
}

// SetupMVV builds a knowledge base loaded with the MVV facts and returns a
// session over it with the route rules in internal storage (paper §5.1).
func SetupMVV(sys System, data *mvv.Data) (*core.Session, error) {
	return SetupMVVAt(sys, data, "")
}

// SetupMVVAt is SetupMVV over a store at path (empty = in-memory). A
// file path exercises the full durable stack — checksummed pages and
// the write-ahead log — under the same workload, so the durability
// overhead can be measured against the in-memory baseline.
func SetupMVVAt(sys System, data *mvv.Data, path string) (*core.Session, error) {
	opts := core.Options{StorePath: path}
	if sys == Educe {
		opts.RuleStorage = core.RuleStorageSource
	}
	return openSession(opts, func(s *core.Session) error {
		if err := s.ConsultExternalTerms(data.Facts()); err != nil {
			return err
		}
		if sys == Educe {
			// Rules are internal: resident in the interpreter.
			return consultInterp(s, mvv.Rules)
		}
		return s.Consult(mvv.Rules)
	})
}

// SetupMVVKB builds a shared knowledge base loaded with the MVV facts,
// for concurrent multi-session benchmarks and tests. Create per-worker
// query contexts with NewMVVSession.
func SetupMVVKB(data *mvv.Data) (*core.KnowledgeBase, error) {
	s, err := SetupMVV(EduceStar, data)
	if err != nil {
		return nil, err
	}
	s.Close()
	return s.KB(), nil
}

// NewMVVSession creates a session over a shared MVV knowledge base with
// the route rules resident (rules are internal storage in the paper's
// §5.1 setup, so each session holds its own compiled copy).
func NewMVVSession(kb *core.KnowledgeBase) (*core.Session, error) {
	s, err := kb.NewSession()
	if err != nil {
		return nil, err
	}
	if err := s.Consult(mvv.Rules); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// consultInterp asserts a program into the baseline interpreter.
func consultInterp(s *core.Session, src string) error {
	p := parser.New(src)
	terms, err := p.ReadAll()
	if err != nil {
		return err
	}
	for _, tm := range terms {
		if err := s.Interp().Assert(tm); err != nil {
			return err
		}
	}
	return nil
}

// RunMVVClass runs one query class once on s, returning elapsed time and
// the total number of solutions.
func RunMVVClass(s *core.Session, queries []string) (time.Duration, int, error) {
	start := time.Now()
	total := 0
	for _, q := range queries {
		n, err := s.QueryCount(q)
		if err != nil {
			return 0, 0, fmt.Errorf("query %q: %w", q, err)
		}
		total += n
	}
	return time.Since(start), total, nil
}

// MVVTable regenerates Table 1: both systems, both classes, two runs.
func MVVTable() ([]MVVRow, error) {
	data := mvv.Generate()
	var rows []MVVRow
	for _, sys := range []System{EduceStar, Educe} {
		s, err := SetupMVV(sys, data)
		if err != nil {
			return nil, err
		}
		for run := 1; run <= 2; run++ {
			for class, queries := range [][]string{1: data.Class1, 2: data.Class2} {
				if class == 0 {
					continue
				}
				el, sols, err := RunMVVClass(s, queries)
				if err != nil {
					closeAll(s)
					return nil, fmt.Errorf("%s class %d: %w", sys, class, err)
				}
				rows = append(rows, MVVRow{
					System: sys, Class: class, Run: run,
					Elapsed:   el,
					PerQuery:  el / time.Duration(len(queries)),
					Solutions: sols,
				})
			}
		}
		closeAll(s)
	}
	return rows, nil
}

// --- E2/E3: Wisconsin (Tables 2a and 2b) ------------------------------------

// WiscRow is one Wisconsin query measurement.
type WiscRow struct {
	Query   string
	Format  string // "set" or "term"
	Elapsed time.Duration
	Rows    int
	IO      store.IOStats
}

// WisconsinEnv holds the built benchmark relations and a session with
// them bound as predicates.
type WisconsinEnv struct {
	Session *core.Session
	A, B, C *rel.Relation
	N       int
}

// SetupWisconsin builds relations a and b with n tuples and c with n/10,
// indexed on unique1/unique2, and binds them as predicates.
func SetupWisconsin(n int) (*WisconsinEnv, error) {
	kb, err := SetupWisconsinKB(n)
	if err != nil {
		return nil, err
	}
	s, err := NewWisconsinSession(kb)
	if err != nil {
		kb.Close()
		return nil, err
	}
	cat := kb.Catalog()
	return &WisconsinEnv{Session: s, A: cat.Get("wisc_a"), B: cat.Get("wisc_b"), C: cat.Get("wisc_c"), N: n}, nil
}

// Close releases the environment.
func (w *WisconsinEnv) Close() { closeAll(w.Session) }

// SetupWisconsinKB builds the Wisconsin relations in a shared knowledge
// base for concurrent multi-session benchmarks; bind them per worker
// with NewWisconsinSession.
func SetupWisconsinKB(n int) (*core.KnowledgeBase, error) {
	kb, err := core.OpenKB(core.Options{})
	if err != nil {
		return nil, err
	}
	cat := kb.Catalog()
	for _, spec := range []struct {
		name string
		n    int
		seed uint64
	}{{"wisc_a", n, 1}, {"wisc_b", n, 2}, {"wisc_c", n / 10, 3}} {
		if _, err := wisconsin.Build(cat, spec.name, spec.n, spec.seed); err != nil {
			kb.Close()
			return nil, err
		}
	}
	return kb, nil
}

// NewWisconsinSession creates a session over a shared Wisconsin knowledge
// base with the three relations bound as predicates.
func NewWisconsinSession(kb *core.KnowledgeBase) (*core.Session, error) {
	s, err := kb.NewSession()
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"wisc_a", "wisc_b", "wisc_c"} {
		if err := s.BindRelation(name); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// WisconsinTable regenerates Tables 2a/2b over the standard query classes,
// each in set-oriented and (where sensible) term-oriented format.
func WisconsinTable(n int) ([]WiscRow, error) {
	env, err := SetupWisconsin(n)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	st := env.Session.KB().Store()
	var rows []WiscRow
	measureSet := func(name string, f func() (int, error)) error {
		st.ResetStats()
		t0 := time.Now()
		cnt, err := f()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, WiscRow{
			Query: name, Format: "set",
			Elapsed: time.Since(t0), Rows: cnt, IO: st.Stats(),
		})
		return nil
	}
	if err := measureSet("sel1pct", func() (int, error) { return wisconsin.Select1Pct(env.A) }); err != nil {
		return nil, err
	}
	if err := measureSet("sel10pct", func() (int, error) { return wisconsin.Select10Pct(env.A) }); err != nil {
		return nil, err
	}
	if err := measureSet("selone", func() (int, error) { return wisconsin.SelectOne(env.A) }); err != nil {
		return nil, err
	}
	if err := measureSet("join2", func() (int, error) { return wisconsin.JoinAselB(env.A, env.B) }); err != nil {
		return nil, err
	}
	if err := measureSet("join3", func() (int, error) {
		return wisconsin.JoinCselAselB(env.A, env.B, env.C)
	}); err != nil {
		return nil, err
	}

	// Term-oriented formats of the same queries.
	for name, q := range wisconsin.TermQueries("wisc_a", "wisc_b", "wisc_c", n) {
		st.ResetStats()
		t0 := time.Now()
		cnt, err := env.Session.QueryCount(q)
		if err != nil {
			return nil, fmt.Errorf("term %s: %w", name, err)
		}
		rows = append(rows, WiscRow{
			Query: name, Format: "term",
			Elapsed: time.Since(t0), Rows: cnt, IO: st.Stats(),
		})
	}
	return rows, nil
}

// --- E4: integrity constraint checking (Table 3) ----------------------------

// ICRow is one preprocess measurement.
type ICRow struct {
	Update  int
	System  System
	Elapsed time.Duration
}

// SetupIC prepares a session for the integrity-check preprocess test.
// GoodCompiler holds everything in main memory; EduceStar stores the
// specialisation program (and the database) in the EDB in compiled form.
func SetupIC(sys System) (*core.Session, error) {
	return openSession(core.Options{}, func(s *core.Session) error {
		if sys == GoodCompiler {
			if err := s.Consult(icheck.Program + icheck.Rules); err != nil {
				return err
			}
			return s.ConsultTerms(icheck.Facts())
		}
		if err := s.ConsultExternal(icheck.Program + icheck.Rules); err != nil {
			return err
		}
		return s.ConsultExternalTerms(icheck.Facts())
	})
}

// ICTable regenerates Table 3's preprocess column for both systems.
func ICTable() ([]ICRow, error) {
	var rows []ICRow
	for _, sys := range []System{GoodCompiler, EduceStar} {
		s, err := SetupIC(sys)
		if err != nil {
			return nil, err
		}
		// Average over repetitions, as the paper averages its query
		// samples; the first repetition carries Educe*'s dynamic load.
		const reps = 20
		for i, q := range icheck.Updates() {
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				n, err := s.QueryCount(q)
				if err != nil {
					closeAll(s)
					return nil, fmt.Errorf("%s update %d: %w", sys, i+1, err)
				}
				if n == 0 {
					closeAll(s)
					return nil, fmt.Errorf("%s update %d: no specialisation produced", sys, i+1)
				}
			}
			rows = append(rows, ICRow{Update: i + 1, System: sys, Elapsed: time.Since(t0) / reps})
		}
		closeAll(s)
	}
	return rows, nil
}

// --- E6: compile-phase split (§3.1's 90/10 claim) ----------------------------

// PhaseRow reports where rule-pipeline time goes for a program corpus.
type PhaseRow struct {
	Corpus  string
	Parse   time.Duration
	Compile time.Duration
	Link    time.Duration
}

// PhaseTable measures parse vs code generation vs loader time on the
// benchmark programs.
func PhaseTable() ([]PhaseRow, error) {
	var rows []PhaseRow
	for _, c := range []struct{ name, src string }{
		{"mvv-rules", mvv.Rules},
		{"icheck", icheck.Program + icheck.Rules},
	} {
		s, err := openSession(core.Options{}, func(s *core.Session) error {
			s.ResetStats()
			// Repeat to get measurable durations.
			for i := 0; i < 50; i++ {
				if err := s.Consult(c.src); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		ph := s.Cost().Phases
		rows = append(rows, PhaseRow{Corpus: c.name, Parse: ph.Get(obs.PhaseParse),
			Compile: ph.Get(obs.PhaseCompile), Link: ph.Get(obs.PhaseLink)})
		closeAll(s)
	}
	return rows, nil
}

// --- E7: per-use rule cost (compiled load vs parse+assert) -------------------

// RuleUseRow compares the cost of using an externally stored rule set.
type RuleUseRow struct {
	System   System
	Uses     int
	Elapsed  time.Duration
	PerUse   time.Duration
	Asserts  uint64
	Retrieve time.Duration
}

// RuleUseTable measures repeated use of an externally stored rule set
// under both storage forms (the §2/§3.1 orders-of-magnitude argument).
// Each "use" is one query that loads the rule set and evaluates it many
// times, the usage pattern the paper describes for EDB-resident rules.
func RuleUseTable(uses int) ([]RuleUseRow, error) {
	src := `
		f(0, 1).
		f(N, V) :- N > 0, N1 is N - 1, f(N1, V1), V is V1 + N.
		work :- g0(_), g1(_), g2(_), g3(_), g4(_), g5(_), g6(_), g7(_), g8(_), g9(_).
	`
	for i := 0; i < 10; i++ {
		src += fmt.Sprintf("g%d(X) :- f(%d, X).\n", i, 60+i)
	}
	var rows []RuleUseRow
	for _, sys := range []System{EduceStar, Educe} {
		opts := core.Options{}
		if sys == Educe {
			opts.RuleStorage = core.RuleStorageSource
		}
		s, err := openSession(opts, func(s *core.Session) error { return s.ConsultExternal(src) })
		if err != nil {
			return nil, err
		}
		s.ResetStats()
		t0 := time.Now()
		for i := 0; i < uses; i++ {
			if _, err := s.QueryAll("work"); err != nil {
				closeAll(s)
				return nil, fmt.Errorf("%s: %w", sys, err)
			}
		}
		el := time.Since(t0)
		cost := s.Cost()
		rows = append(rows, RuleUseRow{
			System: sys, Uses: uses, Elapsed: el,
			PerUse:   el / time.Duration(uses),
			Asserts:  cost.Asserts,
			Retrieve: cost.Phases.Get(obs.PhaseEDBFetch) + cost.Phases.Get(obs.PhasePreUnify),
		})
		closeAll(s)
	}
	return rows, nil
}
