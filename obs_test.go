package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/bench/mvv"
	"repro/internal/obs"
)

// TestTracedMVVQuery runs one MVV query under tracing in both engine
// configurations and validates the emitted trace: every record parses as
// JSON, all seven query phases appear as spans, and the summary carries
// the cost counters. This is the end-to-end check CI runs explicitly.
func TestTracedMVVQuery(t *testing.T) {
	data := mvv.Generate()
	for _, sys := range []bench.System{bench.EduceStar, bench.Educe} {
		t.Run(string(sys), func(t *testing.T) {
			e, err := bench.SetupMVV(sys, data)
			if err != nil {
				t.Fatal(err)
			}
			defer e.KB().Close()
			defer e.Close()
			var buf bytes.Buffer
			e.SetTracer(obs.NewTracer(&buf))
			if _, err := e.QueryCount(data.Class1[0]); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if len(lines) != obs.NumQueryPhases+1 {
				t.Fatalf("got %d trace records, want %d:\n%s", len(lines), obs.NumQueryPhases+1, buf.String())
			}
			phases := map[string]bool{}
			var summary map[string]any
			for _, ln := range lines {
				var rec map[string]any
				if err := json.Unmarshal([]byte(ln), &rec); err != nil {
					t.Fatalf("invalid trace JSON %q: %v", ln, err)
				}
				switch rec["msg"] {
				case obs.EventSpan:
					phases[rec["phase"].(string)] = true
				case obs.EventQuery:
					summary = rec
				default:
					t.Fatalf("unexpected record %q", ln)
				}
			}
			for _, p := range obs.QueryPhases() {
				if !phases[p.String()] {
					t.Errorf("missing %s span", p)
				}
			}
			if summary == nil {
				t.Fatal("missing query summary record")
			}
			wantMode := "compiled"
			if sys == bench.Educe {
				wantMode = "source"
			}
			if summary["mode"] != wantMode {
				t.Errorf("mode = %v, want %v", summary["mode"], wantMode)
			}
			if summary["goal"] != data.Class1[0] {
				t.Errorf("goal = %v", summary["goal"])
			}
			counters, ok := summary["counters"].(map[string]any)
			if !ok || counters["retrievals"].(float64) == 0 {
				t.Errorf("summary must report EDB retrievals: %v", summary)
			}
			// The paper's headline effect: pre-unification passes only a
			// fraction of the scanned clauses in Educe*.
			if sys == bench.EduceStar {
				scanned := counters["clauses_scanned"].(float64)
				passed := counters["clauses_passed"].(float64)
				if scanned == 0 || passed > scanned {
					t.Errorf("selectivity counters scanned=%v passed=%v", scanned, passed)
				}
			}
		})
	}
}

// TestSessionAttributionSumsToKBTotals runs 8 sessions in parallel over
// one MVV knowledge base and checks that the per-session cost counters —
// which attribute each retrieval to exactly one session — sum to the
// knowledge base's shared registry totals. Run under -race in CI, this
// also proves span/counter attribution is race-free.
func TestSessionAttributionSumsToKBTotals(t *testing.T) {
	data := mvv.Generate()
	kb, err := bench.SetupMVVKB(data)
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	kb.ResetStats() // drop the load traffic; measure only the queries

	const n = 8
	queries := data.Class1[:3]
	costs := make([]obs.QueryStats, n)
	ids := make([]uint64, n)
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
			for _, q := range queries {
				if _, err := s.QueryCount(q); err != nil {
					errs[i] = err
					return
				}
			}
			ids[i] = s.ID()
			costs[i] = s.Cost()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	seen := map[uint64]bool{}
	var sum obs.QueryStats
	for i := range costs {
		if seen[ids[i]] {
			t.Fatalf("duplicate session ID %d", ids[i])
		}
		seen[ids[i]] = true
		// A session that races behind another on the same goals may be
		// served entirely from the shared decoded-code cache, so only
		// the sum is required to show EDB traffic — but every session
		// must at least have consulted the cache.
		if costs[i].CacheHits+costs[i].CacheMisses == 0 {
			t.Fatalf("session %d recorded no code-cache lookups", i)
		}
		sum.AddQuery(&costs[i])
	}
	if sum.Retrievals == 0 {
		t.Fatal("no EDB retrievals recorded across all sessions")
	}

	snap := kb.Obs().Snapshot()
	total := func(name string) uint64 {
		v, ok := snap[name].(uint64)
		if !ok {
			t.Fatalf("registry missing %s (have %v)", name, kb.Obs().Names())
		}
		return v
	}
	if got := total("edb.retrievals"); got != sum.Retrievals {
		t.Errorf("retrievals: sessions sum to %d, registry has %d", sum.Retrievals, got)
	}
	if got := total("edb.clauses_scanned"); got != sum.ClausesScanned {
		t.Errorf("clauses scanned: sessions sum to %d, registry has %d", sum.ClausesScanned, got)
	}
	if got := total("edb.clauses_passed"); got != sum.ClausesPassed {
		t.Errorf("clauses passed: sessions sum to %d, registry has %d", sum.ClausesPassed, got)
	}
	hits, misses := total("core.codecache.hits"), total("core.codecache.misses")
	if hits+misses != sum.CacheHits+sum.CacheMisses {
		t.Errorf("code cache: sessions sum to %d lookups, registry has %d",
			sum.CacheHits+sum.CacheMisses, hits+misses)
	}
	// Every session must have spent execution time, and the KB totals
	// must reflect real pre-unification (passed ≤ scanned).
	if sum.Phases.Get(obs.PhaseExec) <= 0 {
		t.Error("no exec time attributed")
	}
	if sum.ClausesPassed > sum.ClausesScanned {
		t.Errorf("passed %d > scanned %d", sum.ClausesPassed, sum.ClausesScanned)
	}

	// Sharded buffer-pool schema: the shards gauge matches the pool, the
	// latch metrics exist, and per-shard accesses sum to the pool-wide
	// aggregate (the two views must never drift).
	shards, ok := snap["buffer_pool.shards"].(int64)
	if !ok || shards != int64(kb.Store().Pool().Shards()) {
		t.Errorf("buffer_pool.shards = %v, pool has %d", snap["buffer_pool.shards"], kb.Store().Pool().Shards())
	}
	if _, ok := snap["buffer_pool.latch_waits"].(uint64); !ok {
		t.Errorf("buffer_pool.latch_waits missing (have %v)", kb.Obs().Names())
	}
	var shardAccesses, shardHits uint64
	for i := int64(0); i < shards; i++ {
		shardAccesses += total(fmt.Sprintf("buffer_pool.shard%d.accesses", i))
		shardHits += total(fmt.Sprintf("buffer_pool.shard%d.hits", i))
	}
	if got := total("store.pool.accesses"); shardAccesses != got {
		t.Errorf("per-shard accesses sum to %d, pool-wide counter has %d", shardAccesses, got)
	}
	if got := total("store.pool.hits"); shardHits != got {
		t.Errorf("per-shard hits sum to %d, pool-wide counter has %d", shardHits, got)
	}
}

// TestSessionResetScope checks the reset split: Session.ResetStats must
// not clear the shared knowledge-base counters, KnowledgeBase.ResetStats
// must.
func TestSessionResetScope(t *testing.T) {
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
	if _, err := s.QueryCount(data.Class1[0]); err != nil {
		t.Fatal(err)
	}
	if kb.DB().Stats().Retrievals == 0 {
		t.Fatal("query should have retrieved from the EDB")
	}

	s.ResetStats()
	if got := kb.DB().Stats().Retrievals; got == 0 {
		t.Error("Session.ResetStats must not clear shared EDB counters")
	}
	if got := s.Cost(); got.Retrievals != 0 || got.Phases.Get(obs.PhaseExec) != 0 {
		t.Errorf("Session.ResetStats must clear session counters: %+v", got)
	}

	kb.ResetStats()
	if got := kb.DB().Stats().Retrievals; got != 0 {
		t.Errorf("KnowledgeBase.ResetStats must clear shared counters, got %d", got)
	}
	if got := kb.Store().Stats().Accesses; got != 0 {
		t.Errorf("KnowledgeBase.ResetStats must clear pool counters, got %d", got)
	}
}
