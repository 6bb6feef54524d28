package benchmark

import (
	"sort"

	"repro/internal/obs"
)

// quantile returns the q-th quantile of vs (nearest rank), 0 when empty.
func quantile(vs []int64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	vs = append([]int64(nil), vs...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	i := int(q * float64(len(vs)))
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return float64(vs[i])
}

// median returns the median of vs, 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	if n := len(vs); n%2 == 0 {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	return vs[len(vs)/2]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is the change of a knowledge base's metrics registry between
// two snapshots: numeric metrics by name, and histograms with their
// bucket counts subtracted so quantiles cover the interval only.
type counters struct {
	num  map[string]float64
	hist map[string]obs.HistogramSnapshot
}

// since returns what the registry counted between the snapshot before
// and now. Gauges come out as differences too; the harness reads none of
// them from here.
func since(reg *obs.Registry, before map[string]any) counters {
	c := counters{num: map[string]float64{}, hist: map[string]obs.HistogramSnapshot{}}
	for name, v := range reg.Snapshot() {
		switch now := v.(type) {
		case obs.HistogramSnapshot:
			old, _ := before[name].(obs.HistogramSnapshot)
			d := obs.HistogramSnapshot{Count: now.Count - old.Count, SumNS: now.SumNS - old.SumNS, Buckets: append([]uint64{}, now.Buckets...)}
			for i := range old.Buckets {
				d.Buckets[i] -= old.Buckets[i]
			}
			c.hist[name] = d
		default:
			c.num[name] = toFloat(now) - toFloat(before[name])
		}
	}
	return c
}

// add accumulates another interval's counts into c.
func (c counters) add(o counters) {
	for name, v := range o.num {
		c.num[name] += v
	}
	for name, h := range o.hist {
		sum := c.hist[name]
		sum.Count += h.Count
		sum.SumNS += h.SumNS
		for len(sum.Buckets) < len(h.Buckets) {
			sum.Buckets = append(sum.Buckets, 0)
		}
		for i, n := range h.Buckets {
			sum.Buckets[i] += n
		}
		c.hist[name] = sum
	}
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case uint64:
		return float64(x)
	case int64:
		return float64(x)
	case int:
		return float64(x)
	case float64:
		return x
	}
	return 0
}
