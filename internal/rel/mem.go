package rel

import (
	"hash/maphash"
	"math"
	"slices"
)

// MemRel is a materialized in-memory relation: the leaves and results of
// set-at-a-time evaluation (paper §4). It is a set, deduplicated by tuple
// hash and ValueEq (which makes semi-naive iteration converge), in
// insertion order (so the binding stream fed back into the WAM is
// deterministic), with per-column hash indexes built lazily. A deleted
// tuple leaves a nil slot, and its index positions, until dead slots
// outnumber live ones and the relation is compacted. A slice handed out is
// never edited: inserts append past its end and a delete copies the slots
// first, so a reader keeps the tuples it started with.
type MemRel struct {
	arity  int
	tuples []Tuple
	dead   int
	shared bool                    // tuples was handed out since it was last copied
	heads  map[uint64]int32        // tuple hash -> newest slot with that hash
	chain  []int32                 // slot -> next older slot with the same hash, or -1
	idx    map[int]map[Value][]int // column -> key -> slot positions
}

// NewMemRel creates an empty materialized relation of the given arity.
func NewMemRel(arity int) *MemRel {
	return &MemRel{arity: arity, heads: map[uint64]int32{}, idx: map[int]map[Value][]int{}}
}

// Arity returns the relation's arity.
func (m *MemRel) Arity() int { return m.arity }

// Len returns the number of (distinct, live) tuples.
func (m *MemRel) Len() int { return len(m.tuples) - m.dead }

// Tuples exposes the slots in insertion order, a deleted tuple's slot
// being nil. Callers must not mutate the slice; later writes to the
// relation leave it as it is.
func (m *MemRel) Tuples() []Tuple {
	m.shared = true
	return m.tuples
}

// Insert adds a copy of t unless an equal tuple is present, returning the
// stored copy and whether t was new.
func (m *MemRel) Insert(t Tuple) (Tuple, bool) {
	h := hashTuple(t)
	if m.find(h, t) >= 0 {
		return nil, false
	}
	t = append(make(Tuple, 0, len(t)), t...)
	head, ok := m.heads[h]
	if !ok {
		head = -1
	}
	m.heads[h], m.chain = int32(len(m.tuples)), append(m.chain, head)
	for col, buckets := range m.idx {
		buckets[key(t[col])] = append(buckets[key(t[col])], len(m.tuples))
	}
	m.tuples = append(m.tuples, t)
	return t, true
}

// find returns the slot of the live tuple equal to t, whose hash is h, or -1.
func (m *MemRel) find(h uint64, t Tuple) int {
	pos, ok := m.heads[h]
	for ; ok && pos >= 0; pos = m.chain[pos] {
		if u := m.tuples[pos]; u != nil && slices.EqualFunc(u, t, ValueEq) {
			return int(pos)
		}
	}
	return -1
}

// Contains reports whether the tuple is present.
func (m *MemRel) Contains(t Tuple) bool { return m.find(hashTuple(t), t) >= 0 }

// Delete removes the tuple equal to t, reporting whether one was present.
func (m *MemRel) Delete(t Tuple) bool {
	pos := m.find(hashTuple(t), t)
	if pos < 0 {
		return false
	}
	if m.shared {
		m.tuples, m.shared = append([]Tuple(nil), m.tuples...), false
	}
	m.tuples[pos] = nil
	if m.dead++; m.dead > m.Len() {
		old := m.tuples
		*m = *NewMemRel(m.arity)
		for _, u := range old {
			if u != nil {
				m.Insert(u)
			}
		}
	}
	return true
}

// Lookup returns the slot positions, ascending, of the tuples whose column
// col equals v, building the column's hash index on first use. A position
// whose slot in Tuples() is nil is a deleted tuple.
func (m *MemRel) Lookup(col int, v Value) []int {
	buckets, ok := m.idx[col]
	if !ok {
		buckets = map[Value][]int{}
		for pos, t := range m.tuples {
			if t != nil {
				buckets[key(t[col])] = append(buckets[key(t[col])], pos)
			}
		}
		m.idx[col] = buckets
	}
	return buckets[key(v)]
}

// key is v as the hash indexes compare it: two values are ValueEq exactly
// when their keys are equal. A float's bits move to I, with -0 folded into
// +0 and every NaN into one.
func key(v Value) Value {
	switch v.Type {
	case Int:
		return Value{Type: Int, I: v.I}
	case Float:
		f := v.F
		if f == 0 {
			f = 0
		} else if f != f {
			f = math.NaN()
		}
		return Value{Type: Float, I: int64(math.Float64bits(f))}
	}
	return Value{Type: v.Type, S: v.S}
}

// ValueEq reports whether two values are equal, treating values of
// different types as distinct.
func ValueEq(a, b Value) bool { return key(a) == key(b) }

var hashSeed = maphash.MakeSeed()

// hashTuple hashes a tuple consistently with ValueEq.
func hashTuple(t Tuple) uint64 {
	h := uint64(len(t))
	for _, v := range t {
		k := key(v)
		x := uint64(k.I)
		if k.Type != Int && k.Type != Float {
			x = maphash.String(hashSeed, k.S)
		}
		h ^= x + uint64(k.Type)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h
}
