package benchmark

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/benchmark/gen"
	"repro/internal/core"
)

// TestMechanismChecks feeds each workload's assertions counters that
// satisfy them and counters that violate one at a time: the run must be
// marked incorrect exactly when a mechanism was not exercised or a
// bypassed layer did work.
func TestMechanismChecks(t *testing.T) {
	const ops = 1000
	cases := []struct {
		workload string
		num      map[string]float64
		failures int
	}{
		{"term_hot", map[string]float64{"store.pool.reads": 0, "core.codecache.misses": 5}, 0},
		{"term_hot", map[string]float64{"store.pool.reads": 1, "core.codecache.misses": 5}, 1},
		{"term_hot", map[string]float64{"store.pool.reads": 0, "core.codecache.misses": 11}, 1},
		{"term_cold", map[string]float64{"core.codecache.misses": 900, "edb.retrievals": 800}, 0},
		{"term_cold", map[string]float64{"core.codecache.misses": 790, "edb.retrievals": 800}, 1},
		{"term_cold", map[string]float64{"core.codecache.misses": 900, "edb.retrievals": 799}, 1},
		{"set_rw", map[string]float64{"setops.queries": 1, "setops.fallbacks": 0}, 0},
		{"set_rw", map[string]float64{"setops.queries": 0, "setops.fallbacks": 0}, 1},
		{"set_rw", map[string]float64{"setops.queries": 1, "setops.fallbacks": 1}, 1},
		{"served_rw", map[string]float64{}, 0},
	}
	for _, c := range cases {
		if errs := mechanismChecks(c.workload, counters{num: c.num}, ops); len(errs) != c.failures {
			t.Errorf("%s %v: %d failed assertions %v, want %d", c.workload, c.num, len(errs), errs, c.failures)
		}
	}
}

// TestLostWrites stores one client's line with both acknowledged
// clauses, with one missing and with one a retract should have removed,
// and expects the durability check to count each difference after a
// reopen of the page file.
func TestLostWrites(t *testing.T) {
	acked := gen.WriteSegments(0, 1)
	stale := gen.WriteSegments(0, 2)[0]
	cases := []struct {
		name   string
		stored []string
		lost   int
	}{
		{"all present", acked, 0},
		{"assert lost", acked[:1], 1},
		{"retract lost", append([]string{stale}, acked...), 1},
		{"commit lost", nil, 2},
	}
	for _, c := range cases {
		dir := t.TempDir()
		kb, err := core.OpenKB(core.Options{StorePath: storePath(dir), PoolPages: hotPoolPages})
		if err != nil {
			t.Fatal(err)
		}
		s, err := kb.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		// Another line's segment keeps the procedure in the knowledge
		// base when the client's own line is empty.
		src := "schedule2(other, bus, a, b, 1).\n"
		for _, cl := range c.stored {
			src += cl + ".\n"
		}
		if err := s.ConsultExternal(src); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := kb.Close(); err != nil {
			t.Fatal(err)
		}
		lost, err := lostWrites(dir, [][]string{acked})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if lost != c.lost {
			t.Errorf("%s: lostWrites = %d, want %d", c.name, lost, c.lost)
		}
	}
}

// TestAATable shows that the gate fails on a difference over the bound in
// either direction, setup_s included, and passes within it.
func TestAATable(t *testing.T) {
	var sp spec
	sp.Workloads = []struct{ Name string }{{"w"}}
	sp.EndToEnd = []struct {
		Name, Unit, Better string
		Bound              float64
	}{{"setup_s", "s", "lower", 0.10}, {"ops_per_s", "1/s", "higher", 0.05}}
	cases := []struct {
		setupB, opsB float64
		ok           bool
	}{
		{1.0, 100, true},
		{1.09, 104, true},
		{1.0, 94, false},  // throughput worse
		{1.0, 106, false}, // throughput "better": same instability
		{1.11, 100, false},
		{0.89, 100, false},
	}
	for _, c := range cases {
		var v aaValues
		for k := 0; k < 5; k++ {
			v.add(0, "w", "setup_s", 1.0)
			v.add(0, "w", "ops_per_s", 100)
			v.add(1, "w", "setup_s", c.setupB)
			v.add(1, "w", "ops_per_s", c.opsB)
		}
		var out bytes.Buffer
		if got := aaTable(&out, sp, v); got != c.ok {
			t.Errorf("B = (%v s, %v /s): gate says %v, want %v\n%s", c.setupB, c.opsB, got, c.ok, out.String())
		}
		if !c.ok && !strings.Contains(out.String(), "FAIL") {
			t.Errorf("B = (%v s, %v /s): no FAIL row in\n%s", c.setupB, c.opsB, out.String())
		}
	}
}

// TestReadmeMatchesSpec keeps README.md, the glossary, in step with
// BENCHMARK.json: every workload and metric is named there in backquotes,
// every end-to-end row states the bound BENCHMARK.json holds, and the
// README names no metric BENCHMARK.json lacks.
func TestReadmeMatchesSpec(t *testing.T) {
	sp, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	known := map[string]bool{"fail_ratio": true}
	for _, w := range sp.Workloads {
		known[w.Name] = true
	}
	for _, m := range sp.PerLayer {
		known[m.Name] = true
	}
	for _, m := range sp.EndToEnd {
		known[m.Name] = true
		row := regexp.MustCompile("(?m)^\\| `" + regexp.QuoteMeta(m.Name) + "` \\| " + regexp.QuoteMeta(m.Unit) + " \\|.*\\| (\\d+) % \\|$").FindStringSubmatch(readme)
		if row == nil {
			t.Errorf("README.md has no end-to-end row for %s with unit %s and a bound", m.Name, m.Unit)
		} else if want := fmt.Sprint(math.Round(100 * m.Bound)); row[1] != want {
			t.Errorf("README.md gives %s a bound of %s %%, BENCHMARK.json %s %%", m.Name, row[1], want)
		}
	}
	for name := range known {
		if !strings.Contains(readme, "`"+name+"`") {
			t.Errorf("README.md does not name `%s`", name)
		}
	}
	// Names shaped like a metric (layer.word or word_unit in backquotes
	// inside a table's first column) must exist in BENCHMARK.json.
	for _, line := range strings.Split(readme, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		first := strings.SplitN(line, "|", 3)[1]
		for _, m := range regexp.MustCompile("`([a-z0-9_.]+)`").FindAllStringSubmatch(first, -1) {
			if !known[m[1]] {
				t.Errorf("README.md lists `%s`, which BENCHMARK.json does not name", m[1])
			}
		}
	}
}
