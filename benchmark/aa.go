package benchmark

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json the A/A gate and the smoke test read.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// readSpec reads BENCHMARK.json from dir.
func readSpec(dir string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return sp, err
	}
	return sp, json.Unmarshal(raw, &sp)
}

// AA is the A/A stability gate: two sets of n full runs of this same
// binary, interleaved (A B, B A, A B, ...) so that drift of the machine
// hits both alike, run k of either set on seed+k. It prints the table of
// aaTable and reports false when a difference exceeds its bound; the
// bounds come from BENCHMARK.json in the working directory.
func AA(out io.Writer, n int, seed uint64, seconds float64) (bool, error) {
	sp, err := readSpec(".")
	if err != nil {
		return false, fmt.Errorf("the A/A gate reads its bounds from the working directory: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	var values aaValues
	for k := 0; k < n; k++ {
		for i := 0; i < 2; i++ {
			set := (k + i) % 2
			for _, w := range sp.Workloads {
				cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed+uint64(k)), "-seconds", fmt.Sprint(seconds))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return false, fmt.Errorf("run %d of set %c, %s: %w", k, 'A'+set, w.Name, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var res Result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return false, err
				}
				if !res.Correct {
					return false, fmt.Errorf("run %d of set %c, %s: not correct", k, 'A'+set, w.Name)
				}
				for name, m := range res.Metrics {
					values.add(set, w.Name, name, m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %c run %d %s done\n", 'A'+set, k, w.Name)
			}
		}
	}
	return aaTable(out, sp, values), nil
}

// aaValues holds one value per run: [set][workload][metric].
type aaValues [2]map[string]map[string][]float64

func (v *aaValues) add(set int, workload, metric string, value float64) {
	if v[set] == nil {
		v[set] = map[string]map[string][]float64{}
	}
	if v[set][workload] == nil {
		v[set][workload] = map[string][]float64{}
	}
	v[set][workload][metric] = append(v[set][workload][metric], value)
}

// aaTable prints, for every workload and end-to-end metric, the two
// medians, their difference as a share of the first, the spread
// (interquartile range over median) of each set, and the bound. It
// reports false when a difference exceeds its bound in either direction:
// the two sets are the same code, so a second set that looks better by
// more than the bound is the same instability as one that looks worse.
// A spread over the bound is marked but does not fail the gate: the
// quartiles of n runs are the driver's rule for ten runs and nearly the
// full range for five.
func aaTable(out io.Writer, sp spec, values aaValues) bool {
	ok := true
	fmt.Fprintf(out, "| workload | metric | unit | median A | median B | difference | spread A | spread B | bound | verdict |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			ma, mb := median(a), median(b)
			diff := ratio(mb-ma, ma)
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if max(sa, sb) > m.Bound {
				verdict = "ok, spread over bound"
			}
			if math.Abs(diff) > m.Bound {
				verdict = "FAIL"
				ok = false
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.4f | %.4f | %+.2f %% | %.2f %% | %.2f %% | %.0f %% | %s |\n",
				w.Name, m.Name, m.Unit, ma, mb, 100*diff, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return ok
}

// spread is the distance between the first and third quartile of vs as a
// share of their median, with the quartiles of Python's
// statistics.quantiles(vs, n=4) (the exclusive method).
func spread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return (q(3) - q(1)) / median(s)
}
