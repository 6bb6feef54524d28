package obs

import "time"

// Phase is one component of the paper's query cost model. The seven
// query phases (PhaseParse .. PhaseGC) reproduce the §3.1/§5 breakdowns:
// the Educe baseline pays parse+assert per rule use, Educe* pays
// edb_fetch+preunify+link once and executes compiled code. PhaseStore is
// the consult-time EDB write phase; it is tracked alongside the others
// but is not part of a query's span set.
type Phase int

// Phases, in emission order.
const (
	PhaseParse Phase = iota
	PhaseCompile
	PhaseEDBFetch
	PhasePreUnify
	PhaseLink
	PhaseExec
	PhaseGC
	PhaseStore
	// NumQueryPhases counts the phases traced per query.
	NumQueryPhases = int(PhaseStore)
	// NumPhases counts every tracked phase including PhaseStore.
	NumPhases = int(PhaseStore) + 1
)

var phaseNames = [NumPhases]string{
	"parse", "compile", "edb_fetch", "preunify", "link", "exec", "gc", "store",
}

func (p Phase) String() string {
	if p < 0 || int(p) >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// QueryPhases lists the seven per-query phases in emission order.
func QueryPhases() []Phase {
	ps := make([]Phase, NumQueryPhases)
	for i := range ps {
		ps[i] = Phase(i)
	}
	return ps
}

// PhaseTimes accumulates nanoseconds per phase. It is owned by a single
// session (plain fields, no atomics); a nil *PhaseTimes is a valid sink
// that records nothing, so instrumented layers need only a nil check.
type PhaseTimes [NumPhases]int64

// Add charges d to phase p.
func (t *PhaseTimes) Add(p Phase, d time.Duration) {
	if t == nil {
		return
	}
	t[p] += d.Nanoseconds()
}

// Get returns the accumulated time of phase p.
func (t *PhaseTimes) Get(p Phase) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t[p])
}

// Total returns the time of every phase.
func (t *PhaseTimes) Total() time.Duration {
	var ns int64
	for _, d := range t {
		ns += d
	}
	return time.Duration(ns)
}

// AddTimes merges o into t (query roll-up into session cumulative).
func (t *PhaseTimes) AddTimes(o *PhaseTimes) {
	if t == nil || o == nil {
		return
	}
	for i := range t {
		t[i] += o[i]
	}
}

// Reset zeroes every phase.
func (t *PhaseTimes) Reset() {
	if t == nil {
		return
	}
	*t = PhaseTimes{}
}

// IndexPath identifies one clause/tuple access path — which physical
// index (or lack of one) a retrieval went through. The EDB paths cover
// stored-procedure clause retrieval; the rel paths cover the relational
// layer's scans.
type IndexPath int

// Access paths.
const (
	// PathAttrIndex: EDB secondary attribute index probe (hash index on
	// the first bound argument).
	PathAttrIndex IndexPath = iota
	// PathVarList: EDB wildcard-entry scan (clauses with a variable in an
	// indexed position, always checked).
	PathVarList
	// PathFullScan: EDB retrieval with no bound argument — every clause
	// of the procedure is a candidate.
	PathFullScan
	// PathRelIndex: relational B-tree index range scan.
	PathRelIndex
	// PathRelSeq: relational sequential heap scan.
	PathRelSeq
	// NumIndexPaths counts the access paths.
	NumIndexPaths = int(PathRelSeq) + 1
)

var pathNames = [NumIndexPaths]string{
	"attr_index", "var_list", "full_scan", "rel_index", "rel_seq",
}

func (p IndexPath) String() string {
	if p < 0 || int(p) >= NumIndexPaths {
		return "unknown"
	}
	return pathNames[p]
}

// PathStats is the selectivity record of one access path: how often it
// was chosen, how many candidates it scanned, and how many survived.
type PathStats struct {
	// Choices counts retrievals that picked this path.
	Choices uint64 `json:"choices"`
	// Scanned counts candidates the path examined.
	Scanned uint64 `json:"scanned"`
	// Matched counts candidates that passed the path's filters.
	Matched uint64 `json:"matched"`
}

// Selectivity returns matched/scanned (1 when nothing was scanned).
func (p *PathStats) Selectivity() float64 {
	if p == nil || p.Scanned == 0 {
		return 1
	}
	return float64(p.Matched) / float64(p.Scanned)
}

// QueryStats is the per-query (and, accumulated, per-session) view of the
// cost model: phase spans plus the counters the paper's tables report.
// It is single-goroutine state; KB-wide totals live in the Registry.
type QueryStats struct {
	Phases PhaseTimes

	// Paths breaks retrieval work down by access path (EDB entries only;
	// the relational layer reports into the registry, not per query).
	Paths [NumIndexPaths]PathStats

	// Retrievals counts EDB clause-set retrievals issued.
	Retrievals uint64
	// ClausesScanned counts stored clauses examined by pre-unification
	// (index candidates plus wildcard entries).
	ClausesScanned uint64
	// ClausesPassed counts clauses that survived pre-unification and
	// were fetched (the paper's candidate clauses).
	ClausesPassed uint64
	// PagesTouched counts buffer-pool accesses made by the retrievals and
	// the relation reads.
	PagesTouched uint64
	// CacheHits/CacheMisses count shared decoded-code cache outcomes.
	CacheHits, CacheMisses uint64
	// Asserts counts baseline-mode assert operations (the per-use cost
	// the paper's §2 itemises for the Educe configuration).
	Asserts uint64
}

// AddQuery merges o into s.
func (s *QueryStats) AddQuery(o *QueryStats) {
	if s == nil || o == nil {
		return
	}
	s.Phases.AddTimes(&o.Phases)
	for i := range s.Paths {
		s.Paths[i].Choices += o.Paths[i].Choices
		s.Paths[i].Scanned += o.Paths[i].Scanned
		s.Paths[i].Matched += o.Paths[i].Matched
	}
	s.Retrievals += o.Retrievals
	s.ClausesScanned += o.ClausesScanned
	s.ClausesPassed += o.ClausesPassed
	s.PagesTouched += o.PagesTouched
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Asserts += o.Asserts
}

// Reset zeroes the stats.
func (s *QueryStats) Reset() {
	if s == nil {
		return
	}
	*s = QueryStats{}
}

// Selectivity returns passed/scanned — the pre-unification selectivity
// the §4 evaluation reports (1 when nothing was scanned).
func (s *QueryStats) Selectivity() float64 {
	if s == nil || s.ClausesScanned == 0 {
		return 1
	}
	return float64(s.ClausesPassed) / float64(s.ClausesScanned)
}
