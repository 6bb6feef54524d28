package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/mvv"
	"repro/internal/obs"
)

// TestProfiledMVVQuery is the end-to-end acceptance check for the
// per-predicate profiler: a traced MVV run with profiling on must yield
// 4-port counts whose calls cover every EDB fetch, a slow-query record
// matching the documented schema, and educe_profile/2 totals that agree
// with the knowledge base's profile table (the same table /debug/profile
// serves).
func TestProfiledMVVQuery(t *testing.T) {
	data := mvv.Generate()
	kb, err := bench.SetupMVVKB(data)
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	s, err := bench.NewMVVSession(kb)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var trace bytes.Buffer
	s.EnableProfiling(true)
	if !s.ProfilingEnabled() {
		t.Fatal("EnableProfiling(true) did not stick")
	}
	s.SetTracer(obs.NewTracer(&trace))
	s.SetSlowThreshold(time.Nanosecond) // every query is "slow"

	for _, q := range data.Class1 {
		if _, err := s.QueryCount(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	cost := s.Cost()

	// Port counts: every predicate row is internally consistent, and the
	// summed calls must cover at least the EDB fetch count — each fetch
	// is triggered by some predicate's call or redo.
	rows := s.Profile()
	if len(rows) == 0 {
		t.Fatal("profiled run produced no predicate rows")
	}
	var sum obs.PredCounters
	for _, r := range rows {
		if r.Pred == "" {
			t.Fatalf("row with empty predicate: %+v", r)
		}
		if r.Exits > r.Calls+r.Redos {
			t.Errorf("%s: exits %d > calls %d + redos %d", r.Pred, r.Exits, r.Calls, r.Redos)
		}
		sum.Add(&r.PredCounters)
	}
	if sum.Calls+sum.Redos < cost.Retrievals {
		t.Errorf("calls+redos sum %d < %d EDB retrievals: fetches unattributed",
			sum.Calls+sum.Redos, cost.Retrievals)
	}
	if sum.EDBFetches != cost.Retrievals {
		t.Errorf("profile attributes %d EDB fetches, session cost has %d",
			sum.EDBFetches, cost.Retrievals)
	}
	if sum.SelfNS <= 0 {
		t.Error("no self-time attributed")
	}

	// Slow-query records: one per query, valid against the documented
	// schema, with top_preds populated from this query's profile.
	var slow []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("invalid trace JSON %q: %v", ln, err)
		}
		if rec["msg"] == obs.EventSlowQuery {
			slow = append(slow, rec)
		}
	}
	if len(slow) != len(data.Class1) {
		t.Fatalf("got %d slow_query records, want %d", len(slow), len(data.Class1))
	}
	for _, rec := range slow {
		for _, k := range []string{"session_id", "query_id", "goal", "elapsed_ns",
			"threshold_ns", "phases", "top_preds", "io"} {
			if _, ok := rec[k]; !ok {
				t.Fatalf("slow_query record missing %q: %v", k, rec)
			}
		}
		preds, ok := rec["top_preds"].([]any)
		if !ok || len(preds) == 0 {
			t.Fatalf("slow_query record has no top_preds: %v", rec)
		}
		row := preds[0].(map[string]any)
		if _, ok := row["calls"]; !ok {
			t.Fatalf("top_preds row missing calls: %v", row)
		}
	}

	// educe_profile/2 reads the KB profile table, so its totals must
	// agree exactly with kb.Profile().Totals() — which is also what the
	// /debug/profile endpoint serializes. Profiling is switched off first
	// so the educe_profile queries themselves stop moving the totals.
	s.EnableProfiling(false)
	totals := kb.Profile().Totals()
	for key, want := range map[string]int64{
		"'total.calls'":       int64(totals.Calls),
		"'total.exits'":       int64(totals.Exits),
		"'total.edb_fetches'": int64(totals.EDBFetches),
	} {
		sols, err := s.QueryAll(fmt.Sprintf("educe_profile(%s, N)", key))
		if err != nil || len(sols) != 1 {
			t.Fatalf("educe_profile(%s, N): %d solutions, err %v", key, len(sols), err)
		}
		if got := sols[0]["N"].String(); got != fmt.Sprint(want) {
			t.Errorf("educe_profile(%s) = %s, want %d", key, got, want)
		}
	}
	// Enumeration mode yields at least the totals block.
	n, err := s.QueryCount("educe_profile(_, _)")
	if err != nil || n < 7 {
		t.Fatalf("educe_profile enumeration: %d keys (%v)", n, err)
	}

	// Access-path selectivity counters registered and moving: the MVV
	// class-1 queries drive the attribute index.
	snap := kb.Obs().Snapshot()
	scanned, ok := snap["edb.path.attr_index.scanned"].(uint64)
	if !ok {
		t.Fatalf("edb.path.attr_index.scanned missing (have %v)", kb.Obs().Names())
	}
	matched := snap["edb.path.attr_index.matched"].(uint64)
	if scanned == 0 || matched > scanned {
		t.Errorf("attr_index selectivity: matched %d / scanned %d", matched, scanned)
	}
}

// TestProfileAttributionSumsToKBTotals runs 8 profiled sessions in
// parallel over one knowledge base and checks that their per-predicate
// port counts sum exactly to the KB profile-table totals: each port event
// is attributed to exactly one session, none double-merged, none lost.
// CI runs this under -race.
func TestProfileAttributionSumsToKBTotals(t *testing.T) {
	data := mvv.Generate()
	kb, err := bench.SetupMVVKB(data)
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	kb.ResetStats()

	const n = 8
	queries := data.Class1[:3]
	profiles := make([][]obs.PredProfile, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := bench.NewMVVSession(kb)
			if err != nil {
				errs[i] = err
				return
			}
			defer s.Close()
			s.EnableProfiling(true)
			for _, q := range queries {
				if _, err := s.QueryCount(q); err != nil {
					errs[i] = err
					return
				}
			}
			profiles[i] = s.Profile()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	perPred := map[string]*obs.PredCounters{}
	for i := range profiles {
		if len(profiles[i]) == 0 {
			t.Fatalf("session %d recorded no profile rows", i)
		}
		for _, r := range profiles[i] {
			c := perPred[r.Pred]
			if c == nil {
				c = &obs.PredCounters{}
				perPred[r.Pred] = c
			}
			c.Add(&r.PredCounters)
		}
	}

	// Exact per-predicate equality, not just totals: any drift means an
	// event was double-merged or dropped on the drain path.
	kbRows := kb.Profile().Snapshot()
	if len(kbRows) != len(perPred) {
		t.Fatalf("KB table has %d predicates, session sums have %d", len(kbRows), len(perPred))
	}
	for _, kr := range kbRows {
		sc := perPred[kr.Pred]
		if sc == nil {
			t.Errorf("%s: in KB table but in no session profile", kr.Pred)
			continue
		}
		if *sc != kr.PredCounters {
			t.Errorf("%s: sessions sum to %+v, KB table has %+v", kr.Pred, *sc, kr.PredCounters)
		}
	}
	totals := kb.Profile().Totals()
	if totals.Calls == 0 {
		t.Fatal("no calls recorded in KB profile table")
	}
}

// TestProfileResetScope pins the reset split for the PR 5 buffer-pool
// metrics and the PR 7 profile table: Session.ResetStats clears only
// session-local state, KnowledgeBase.ResetStats clears the shared
// registry (per-shard counters, latch waits) and the profile table.
func TestProfileResetScope(t *testing.T) {
	data := mvv.Generate()
	kb, err := bench.SetupMVVKB(data)
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	s, err := bench.NewMVVSession(kb)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnableProfiling(true)
	if _, err := s.QueryCount(data.Class1[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryCount(data.Class1[1]); err != nil {
		t.Fatal(err)
	}

	shardTotal := func() uint64 {
		snap := kb.Obs().Snapshot()
		var sum uint64
		for i := 0; i < kb.Store().Pool().Shards(); i++ {
			if v, ok := snap[fmt.Sprintf("buffer_pool.shard%d.accesses", i)].(uint64); ok {
				sum += v
			}
		}
		return sum
	}
	latchHist := func() uint64 {
		snap := kb.Obs().Snapshot()
		h, _ := snap["buffer_pool.latch_wait_ns"].(obs.HistogramSnapshot)
		return h.Count
	}

	if kb.Profile().Totals().Calls == 0 {
		t.Fatal("no profile accumulated before reset")
	}
	beforeShards := shardTotal()
	if beforeShards == 0 {
		t.Fatal("no shard accesses before reset")
	}

	// Session-scope reset: KB profile table and shared registry intact,
	// session-cumulative profile cleared.
	s.ResetStats()
	if kb.Profile().Totals().Calls == 0 {
		t.Error("Session.ResetStats cleared the KB profile table")
	}
	if shardTotal() < beforeShards {
		t.Error("Session.ResetStats cleared per-shard buffer-pool counters")
	}
	if rows := s.Profile(); len(rows) != 0 {
		t.Errorf("Session.ResetStats left %d session profile rows", len(rows))
	}

	// KB-scope reset: profile table, per-shard counters, latch-wait
	// counter and histogram all zeroed.
	kb.ResetStats()
	if got := kb.Profile().Totals(); got != (obs.PredCounters{}) {
		t.Errorf("KnowledgeBase.ResetStats left profile totals %+v", got)
	}
	if got := shardTotal(); got != 0 {
		t.Errorf("KnowledgeBase.ResetStats left %d shard accesses", got)
	}
	snap := kb.Obs().Snapshot()
	if v, _ := snap["buffer_pool.latch_waits"].(uint64); v != 0 {
		t.Errorf("KnowledgeBase.ResetStats left latch_waits = %d", v)
	}
	if got := latchHist(); got != 0 {
		t.Errorf("KnowledgeBase.ResetStats left latch_wait_ns count = %d", got)
	}
}

// TestDisabledProfilerOverhead guards the "near-zero cost when disabled"
// property: with profiling off the dispatch loop pays one nil check per
// port site, so a disabled run must not be materially slower than an
// enabled run of the same workload (the enabled run pays timestamping
// and map updates on top). The bound is deliberately generous to stay
// robust on loaded CI machines; the precise <5% budget is tracked by
// comparing BenchmarkMVVClass1EduceStar against the recorded baseline
// in EXPERIMENTS.md.
func TestDisabledProfilerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	data := mvv.Generate()
	kb, err := bench.SetupMVVKB(data)
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()

	run := func(profiled bool) time.Duration {
		s, err := bench.NewMVVSession(kb)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.EnableProfiling(profiled)
		// Warm the shared code cache so both runs execute the same path.
		if _, _, err := bench.RunMVVClass(s, data.Class1); err != nil {
			t.Fatal(err)
		}
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			el, _, err := bench.RunMVVClass(s, data.Class1)
			if err != nil {
				t.Fatal(err)
			}
			if el < best {
				best = el
			}
		}
		return best
	}

	enabled := run(true)
	disabled := run(false)
	t.Logf("MVV class 1: disabled=%v enabled=%v", disabled, enabled)
	if disabled > 2*enabled+10*time.Millisecond {
		t.Errorf("disabled-profiler run (%v) much slower than enabled (%v): nil-check gating broken",
			disabled, enabled)
	}
}
