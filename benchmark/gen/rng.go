// Package gen holds the benchmark's seeded input generators and their
// oracles. Every generator is a pure function of its seed and its size
// constants: the same seed gives byte-identical knowledge bases and
// operation streams, so two runs differ only in what the program under
// test does with them. Expected answers are closed-form, or come from a
// Go reference search over the generated data; none is obtained by
// asking the program.
package gen

// RNG is splitmix64: small, fast, and identical on every platform, so
// the op stream does not depend on math/rand's version-specific streams.
type RNG struct{ s uint64 }

// NewRNG derives an independent stream from a seed and a stream label
// (workload name, client number), so adding a consumer never shifts the
// numbers another consumer sees.
func NewRNG(seed uint64, stream string) *RNG {
	h := seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 0x100000001b3
	}
	r := &RNG{s: h}
	r.Uint64()
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Perm returns a random permutation of 0..n-1.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
