// Package benchmark is the repository's benchmark harness: four
// workloads over generated knowledge bases, measured from outside the
// program through its public functions and counters. See README.md for
// the metric glossary and for why each workload exists.
package benchmark

import "repro/benchmark/gen"

// Sizes holds every size constant of the benchmark. They are fixed here
// rather than taken from flags so that two runs always measure the same
// knowledge bases; only -scale (the smoke test) shrinks them.
type Sizes struct {
	Transport gen.TransportSize
	Items     gen.ItemsSize
	Set       gen.SetSize
	// RoundOps is the number of operations in one round of each
	// workload. A run is a whole number of rounds, so operation counts
	// per round repeat exactly and throughput is a median over rounds.
	RoundOps map[string]int
}

// nominalOpsPerSecond is each workload's throughput on the quiet 2-core
// sandbox, reference kernel included. It turns -seconds into a fixed
// number of rounds; it is a calibration of run length, not a metric.
var nominalOpsPerSecond = map[string]float64{
	"term_hot":  39000,
	"term_cold": 15000,
	"set_rw":    1200,
	"served_rw": 4100,
}

// refNominalMS is what one call of the reference kernel (reference.go)
// takes inside each workload's process in an ordinary minute on the
// sandbox; the kernel allocates, so its time depends a little on the
// heap around it. Corrected times read as measured in such a minute.
var refNominalMS = map[string]float64{
	"term_hot":  2.6,
	"term_cold": 2.8,
	"set_rw":    2.5,
	"served_rw": 3.3,
}

// rounds is the fixed length, in rounds, of a timed phase that should
// last seconds: at least two, so the medians over rounds have something
// to work on.
func (sz Sizes) rounds(workload string, seconds float64) int {
	return max(2, int(seconds*nominalOpsPerSecond[workload]/float64(sz.RoundOps[workload])+0.5))
}

// refPerRound is how often the reference kernel (reference.go) is called
// after every round of the timed phase: about 4 % of a run.
const refPerRound = 4

// Buffer-pool sizes in pages. term_hot's queries touch a fraction of its
// pool; term_cold's page file is hundreds of times its pool.
const (
	hotPoolPages  = 512
	coldPoolPages = 64
)

// servedWriteEvery makes one served_rw operation in twenty a write
// transaction: 95 % reads, 5 % writes.
const servedWriteEvery = 20

// SizesAt returns the benchmark's sizes scaled by scale (1 for a real
// run). Scaling keeps every structural minimum: at least one query per
// class, a chain of three nodes, a tree of depth two, and a round of
// two blocks.
func SizesAt(scale float64) Sizes {
	n := func(full, min int) int {
		if v := int(float64(full) * scale); v > min {
			return v
		}
		return min
	}
	return Sizes{
		Transport: gen.TransportSize{Stops: n(4800, 60), Timetable: n(9600, 20), Queries: n(100, 5)},
		Items:     gen.ItemsSize{Facts: n(16000, 200), Rules: n(5000, 50)},
		Set:       gen.SetSize{Tuples: n(20000, 200), Chains: n(32, 2), ChainLen: n(16, 3), Depth: n(6, 2)},
		RoundOps: map[string]int{
			"term_hot":  n(12000, 2*gen.SetBlock),
			"term_cold": n(4000, 2*gen.SetBlock),
			"set_rw":    n(1000, 2*gen.SetBlock),
			"served_rw": n(2000, 2*gen.SetBlock),
		},
	}
}
