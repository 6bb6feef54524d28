package benchmark

import "time"

// The sandbox shares its cores' memory system with other tenants, and for
// spells of ten seconds to minutes everything that allocates runs 20-40 %
// slower. A run is as long as a spell, so medians over its rounds do not
// help: identical code then differs by 10-30 % from run to run. What does
// help is measuring the machine alongside the program. After every round
// the harness times a fixed piece of allocation-heavy Go code that shares
// nothing with the program under test, and divides the times it reports
// by how much slower than nominal that code ran during the same rounds:
// times are in effect measured against the kernel's, not the wall clock's.
// README.md ("Host correction") and AA.md have the trials: the
// interquartile spread of identical runs goes from 10-30 % to 3-16 %. A compute-only loop,
// cache-resident random walks, memory copies and a timed fsync were tried
// as kernels and track the workloads far worse; the workloads allocate 6
// to 360 KiB per operation, and allocation is what the spells slow down. Fitted against
// the kernel (log time on log kernel time), the workloads' exponents
// scatter around one (0.6 to 1.3), so the correction uses none.

type refNode struct {
	next *refNode
	v    [6]uint64
}

// refRing keeps a few hundred KiB of the kernel's nodes reachable, so the
// collector has something of the kernel's to mark as well as to sweep.
var refRing [4096]*refNode

// refKernel allocates 60 000 56-byte nodes, links each to an older one
// and drops an eighth of the older ones: about 3.4 MB of fresh memory
// written per call.
func refKernel() {
	x := uint32(1)
	for i := 0; i < 60000; i++ {
		x = x*1664525 + 1013904223
		n := &refNode{next: refRing[x>>20]}
		n.v[0] = uint64(x)
		refRing[(x>>8)&4095] = n
		if i&7 == 0 {
			refRing[x>>20] = nil
		}
	}
}

// hostMeter collects reference-kernel timings over one measured interval.
type hostMeter struct{ ms []float64 }

// sample times n calls of the reference kernel.
func (h *hostMeter) sample(n int) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		refKernel()
		h.ms = append(h.ms, time.Since(t0).Seconds()*1e3)
	}
}

// slowdown is the factor by which the host stretched times while the
// samples were taken: their median over the kernel's nominal time inside
// the workload's process. Dividing a time by it gives the time on the
// nominal host.
func (h *hostMeter) slowdown(workload string) float64 {
	return median(h.ms) / refNominalMS[workload]
}
