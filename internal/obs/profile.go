package obs

import (
	"sort"
	"sync"
)

// Per-predicate profiling model: the classic 4-port box counters of the
// Byrd box model (call/exit/redo/fail), plus the engine-specific cost
// attribution the paper's §4 tables are built from — cumulative self-time
// and the I/O a predicate causes (EDB clause-set fetches and buffer-pool
// pages touched while loading it).
//
// The WAM layer records into a single-goroutine per-query profile (plain
// fields, no atomics); on query end the session merges that profile into
// the knowledge base's shared ProfileTable, which is the source for
// /debug/profile, educe_profile/2 and the slow-query log's top-N list.

// PredCounters is the cost vector of one predicate indicator.
type PredCounters struct {
	// Calls counts call-port crossings (every transfer of control into
	// the predicate's box, including last-call transfers).
	Calls uint64 `json:"calls"`
	// Exits counts exit-port crossings (deterministic proceeds out of
	// the box; see DESIGN.md §11 for the attribution rules under LCO).
	Exits uint64 `json:"exits"`
	// Redos counts re-entries into the box through backtracking.
	Redos uint64 `json:"redos"`
	// Fails counts failure-port crossings out of the box.
	Fails uint64 `json:"fails"`
	// SelfNS is cumulative self-time in nanoseconds: wall time spent
	// executing instructions owned by this predicate's code blocks,
	// measured between port events.
	SelfNS int64 `json:"self_ns"`
	// EDBFetches counts EDB clause-set retrievals performed to load this
	// predicate (undefined-procedure traps that went to storage).
	EDBFetches uint64 `json:"edb_fetches"`
	// Pages counts buffer-pool accesses those retrievals performed.
	Pages uint64 `json:"pages"`
}

// Add merges o into c.
func (c *PredCounters) Add(o *PredCounters) {
	c.Calls += o.Calls
	c.Exits += o.Exits
	c.Redos += o.Redos
	c.Fails += o.Fails
	c.SelfNS += o.SelfNS
	c.EDBFetches += o.EDBFetches
	c.Pages += o.Pages
}

// PredProfile is one named row of a profile snapshot.
type PredProfile struct {
	// Pred is the predicate indicator, "name/arity".
	Pred string `json:"pred"`
	PredCounters
}

// ProfileTable accumulates per-predicate counters across queries and
// sessions. It is mutex-guarded: sessions merge whole per-query profiles
// into it at query end (a handful of map updates per query), never from
// the dispatch loop, so the lock is far off the hot path.
type ProfileTable struct {
	mu    sync.Mutex
	preds map[string]*PredCounters
}

// NewProfileTable returns an empty table.
func NewProfileTable() *ProfileTable {
	return &ProfileTable{preds: map[string]*PredCounters{}}
}

// MergeAll folds a whole per-query profile into the table under one lock
// acquisition.
func (t *ProfileTable) MergeAll(profile map[string]*PredCounters) {
	if t == nil || len(profile) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.preds == nil {
		t.preds = map[string]*PredCounters{}
	}
	for pred, c := range profile {
		p, ok := t.preds[pred]
		if !ok {
			p = &PredCounters{}
			t.preds[pred] = p
		}
		p.Add(c)
	}
}

// Snapshot returns every predicate's counters, sorted by name.
func (t *ProfileTable) Snapshot() []PredProfile {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PredProfile, 0, len(t.preds))
	for pred, c := range t.preds {
		out = append(out, PredProfile{Pred: pred, PredCounters: *c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pred < out[j].Pred })
	return out
}

// Totals sums every predicate's counters.
func (t *ProfileTable) Totals() PredCounters {
	if t == nil {
		return PredCounters{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum PredCounters
	for _, c := range t.preds {
		sum.Add(c)
	}
	return sum
}

// Reset drops every accumulated counter.
func (t *ProfileTable) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.preds = map[string]*PredCounters{}
}

// TopBySelfTime returns the n predicates with the largest SelfNS, ties
// broken by name for deterministic output.
func TopBySelfTime(rows []PredProfile, n int) []PredProfile {
	out := append([]PredProfile{}, rows...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNS != out[j].SelfNS {
			return out[i].SelfNS > out[j].SelfNS
		}
		return out[i].Pred < out[j].Pred
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
