// Package dict implements the segmented closed-hash dictionary of atoms and
// functors described in §3.3.1 of the Educe* paper.
//
// The dictionary provides a stable unique identifier for every interned
// (name, arity) pair; unification then compares identifiers instead of
// strings. The design follows the paper's eight principles:
//
//   - IDs are a concatenation of segment number and slot index, so an entry
//     is never relocated (principle 4).
//   - Each segment is a fixed-size closed (open-addressing) hash table;
//     the table as a whole is extended by chaining new segments when every
//     existing segment passes a high-water mark, default 70% (principle 5).
//   - New insertions go to the "hot" segment — the one with the lowest
//     occupancy — to balance load across segments (paper §3.3.1).
//
// The table is append-only: an entry, once interned, is never removed, so
// an ID stays valid for the table's lifetime and code holding it needs no
// reference count.
package dict

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// ID identifies an interned atom or functor. The zero ID is invalid.
// Layout: segment number in the high bits, slot index plus one in the low
// bits (so that ID 0 never denotes a real entry).
type ID uint32

// None is the invalid ID.
const None ID = 0

const (
	// DefaultSegmentSize matches the paper's test configuration order of
	// magnitude ("32000 entries per segment") rounded to a power of two.
	DefaultSegmentSize = 32768
	// DefaultHighWater is the paper's 70% occupancy mark.
	DefaultHighWater = 0.70
)

type entry struct {
	name  string
	arity int32
	used  bool // a free slot terminates a probe chain
}

type segment struct {
	entries []entry
	used    int
}

// Table is a segmented closed-hash dictionary. Create one with New; the
// zero value is not usable.
//
// Concurrency: a Table is not safe for concurrent mutation (each engine
// session owns its own table), but the read-only paths — Lookup, Name,
// Arity, Hash — are safe under concurrent readers: the stat counters
// they bump are atomic and nothing else is written.
type Table struct {
	segs      []*segment
	segSize   int
	segBits   uint    // log2(segSize)
	highWater int     // used-count threshold per segment
	hwFrac    float64 // configured high-water fraction
	live      int     // total entries
	// stats (atomic: bumped on read paths that may run concurrently)
	probes  atomic.Uint64
	inserts atomic.Uint64
	lookups atomic.Uint64
	// hits/misses count associative-address resolutions through Intern:
	// a hit finds the (name, arity) pair already interned, a miss
	// allocates a fresh ID. The dynamic loader resolves every symbol of
	// an EDB-loaded clause this way, so the hit ratio measures how much
	// of the paper's §3.1 "load/link" share is pure table lookup.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Option configures a Table.
type Option func(*Table)

// WithSegmentSize sets the per-segment capacity; it is rounded up to a
// power of two, minimum 16.
func WithSegmentSize(n int) Option {
	return func(t *Table) {
		if n < 16 {
			n = 16
		}
		t.segSize = 1 << uint(bits.Len(uint(n-1)))
	}
}

// WithHighWater sets the occupancy fraction (0,1] past which a new segment
// is chained.
func WithHighWater(f float64) Option {
	return func(t *Table) {
		if f <= 0 || f > 1 {
			f = DefaultHighWater
		}
		t.highWater = -1 // recomputed in New after segSize is final
		t.hwFrac = f
	}
}

// New returns an empty dictionary.
func New(opts ...Option) *Table {
	t := &Table{segSize: DefaultSegmentSize, hwFrac: DefaultHighWater}
	for _, o := range opts {
		o(t)
	}
	t.segBits = uint(bits.TrailingZeros(uint(t.segSize)))
	t.highWater = int(float64(t.segSize) * t.hwFrac)
	if t.highWater < 1 {
		t.highWater = 1
	}
	t.segs = []*segment{newSegment(t.segSize)}
	return t
}

func newSegment(size int) *segment { return &segment{entries: make([]entry, size)} }

// Hash returns the dictionary hash of a (name, arity) pair. It is exported
// because the clause index keys atoms and functors by it (edb.AtomKey,
// edb.StructKey), so the storage engine can pre-unify on it (paper §4).
func Hash(name string, arity int) uint64 {
	// FNV-1a over the name, then mix in the arity.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= uint64(arity) + 0x9e3779b97f4a7c15
	h *= prime64
	return h
}

func (t *Table) makeID(seg, slot int) ID { return ID(uint32(seg)<<t.segBits | uint32(slot) + 1) }

func (t *Table) split(id ID) (seg, slot int) {
	v := uint32(id) - 1
	return int(v >> t.segBits), int(v & uint32(t.segSize-1))
}

// Intern returns the ID for (name, arity), inserting it if absent.
func (t *Table) Intern(name string, arity int) ID {
	h := Hash(name, arity)
	if id, ok := t.find(h, name, arity); ok {
		t.hits.Add(1)
		return id
	}
	t.misses.Add(1)
	t.inserts.Add(1)
	// maybeGrow keeps some segment below the high-water mark, so the
	// least occupied one has a free slot.
	seg := t.hotSegment()
	s := t.segs[seg]
	mask := t.segSize - 1
	j := int(h) & mask
	for s.entries[j].used {
		j = (j + 1) & mask
	}
	s.entries[j] = entry{name: name, arity: int32(arity), used: true}
	s.used++
	t.live++
	t.maybeGrow()
	return t.makeID(seg, j)
}

// Lookup returns the ID for (name, arity) if it is interned.
func (t *Table) Lookup(name string, arity int) (ID, bool) {
	t.lookups.Add(1)
	return t.find(Hash(name, arity), name, arity)
}

func (t *Table) find(h uint64, name string, arity int) (ID, bool) {
	mask := t.segSize - 1
	start := int(h) & mask
	for si, s := range t.segs {
		if s.used == 0 {
			continue
		}
		for i := 0; i < t.segSize; i++ {
			j := (start + i) & mask
			e := &s.entries[j]
			t.probes.Add(1)
			if !e.used {
				break // end of this segment's probe chain
			}
			if int(e.arity) == arity && e.name == name {
				return t.makeID(si, j), true
			}
		}
	}
	return None, false
}

// hotSegment returns the index of the segment with the lowest occupancy.
func (t *Table) hotSegment() int {
	best, bestUsed := 0, t.segSize+1
	for i, s := range t.segs {
		if s.used < bestUsed {
			best, bestUsed = i, s.used
		}
	}
	return best
}

// maybeGrow chains a new segment once every segment has passed the
// high-water mark.
func (t *Table) maybeGrow() {
	for _, s := range t.segs {
		if s.used < t.highWater {
			return
		}
	}
	t.segs = append(t.segs, newSegment(t.segSize))
}

// Name returns the name of an interned entry. It panics on an ID the
// table never issued, which always indicates an engine bug.
func (t *Table) Name(id ID) string { return t.entry(id).name }

// Arity returns the arity of an interned entry.
func (t *Table) Arity(id ID) int { return int(t.entry(id).arity) }

func (t *Table) entry(id ID) *entry {
	if id == None {
		panic("dict: invalid ID 0")
	}
	seg, slot := t.split(id)
	if seg >= len(t.segs) || !t.segs[seg].entries[slot].used {
		panic(fmt.Sprintf("dict: ID %d names no entry", id))
	}
	return &t.segs[seg].entries[slot]
}

// Len returns the number of entries.
func (t *Table) Len() int { return t.live }

// Segments returns the number of chained segments.
func (t *Table) Segments() int { return len(t.segs) }

// Stats reports cumulative probe/insert/lookup counters, associative-
// address resolution hits/misses, and per-segment occupancy, for
// benchmarks and tests.
type Stats struct {
	Probes, Inserts, Lookups uint64
	// Hits counts Intern calls resolved to an existing entry; Misses
	// counts Intern calls that allocated a fresh ID.
	Hits, Misses uint64
	Live         int
	SegmentUsed  []int
}

// Stats returns a snapshot of the dictionary's counters.
func (t *Table) Stats() Stats {
	st := Stats{
		Probes: t.probes.Load(), Inserts: t.inserts.Load(), Lookups: t.lookups.Load(),
		Hits: t.hits.Load(), Misses: t.misses.Load(), Live: t.live,
	}
	for _, s := range t.segs {
		st.SegmentUsed = append(st.SegmentUsed, s.used)
	}
	return st
}
