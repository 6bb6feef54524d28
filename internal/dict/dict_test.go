package dict

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestInternLookup(t *testing.T) {
	d := New(WithSegmentSize(64))
	a := d.Intern("foo", 0)
	b := d.Intern("foo", 2)
	c := d.Intern("bar", 0)
	if a == b || a == c || b == c {
		t.Fatal("distinct pairs must get distinct IDs")
	}
	if got := d.Intern("foo", 0); got != a {
		t.Fatalf("re-intern foo/0: %d != %d", got, a)
	}
	if id, ok := d.Lookup("foo", 2); !ok || id != b {
		t.Fatalf("lookup foo/2 = (%d,%v)", id, ok)
	}
	if _, ok := d.Lookup("missing", 1); ok {
		t.Fatal("lookup of absent entry succeeded")
	}
	if d.Name(a) != "foo" || d.Arity(a) != 0 {
		t.Fatal("name/arity mismatch")
	}
	if d.Name(b) != "foo" || d.Arity(b) != 2 {
		t.Fatal("name/arity mismatch for functor")
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestIDZeroInvalid(t *testing.T) {
	d := New(WithSegmentSize(16))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ID 0")
		}
	}()
	d.Name(None)
}

func TestGrowthAtHighWater(t *testing.T) {
	d := New(WithSegmentSize(16), WithHighWater(0.70))
	// 16 * 0.70 = 11 entries trigger a second segment.
	for i := 0; i < 11; i++ {
		d.Intern(fmt.Sprintf("a%d", i), 0)
	}
	if d.Segments() != 2 {
		t.Fatalf("segments = %d after high water, want 2", d.Segments())
	}
	// All entries still resolvable after growth.
	for i := 0; i < 11; i++ {
		if _, ok := d.Lookup(fmt.Sprintf("a%d", i), 0); !ok {
			t.Errorf("a%d lost after growth", i)
		}
	}
}

func TestHotSegmentBalancing(t *testing.T) {
	d := New(WithSegmentSize(16), WithHighWater(0.5))
	for i := 0; i < 30; i++ {
		d.Intern(fmt.Sprintf("x%d", i), 0)
	}
	st := d.Stats()
	if len(st.SegmentUsed) < 2 {
		t.Fatalf("expected multiple segments, got %v", st.SegmentUsed)
	}
	// No segment should be wildly imbalanced versus the others:
	// with hot-segment insertion, max-min should stay within the
	// high-water band (8 entries here).
	min, max := st.SegmentUsed[0], st.SegmentUsed[0]
	for _, u := range st.SegmentUsed {
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	if max-min > 8 {
		t.Errorf("segments imbalanced: %v", st.SegmentUsed)
	}
}

func TestStableIDsAcrossGrowth(t *testing.T) {
	d := New(WithSegmentSize(16))
	ids := map[string]ID{}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("atom%d", i)
		ids[name] = d.Intern(name, i%5)
	}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("atom%d", i)
		if got := d.Intern(name, i%5); got != ids[name] {
			t.Fatalf("ID for %s changed: %d -> %d", name, ids[name], got)
		}
		if d.Name(ids[name]) != name {
			t.Fatalf("name for %s corrupted", name)
		}
	}
}

// TestHighWaterOneFillsSegments: with a high-water mark of 1.0 a segment
// fills every slot before the next is chained, and entries in a full
// segment stay reachable.
func TestHighWaterOneFillsSegments(t *testing.T) {
	d := New(WithSegmentSize(16), WithHighWater(1.0))
	ids := map[string]ID{}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("n%d", i)
		ids[name] = d.Intern(name, 0)
	}
	if st := d.Stats(); st.SegmentUsed[0] != 16 || st.SegmentUsed[1] != 16 {
		t.Fatalf("segment occupancy %v, want the first two full", st.SegmentUsed)
	}
	for name, id := range ids {
		if got, ok := d.Lookup(name, 0); !ok || got != id {
			t.Errorf("%s = (%d, %v), want %d", name, got, ok, id)
		}
	}
}

func TestHashDistinguishesArity(t *testing.T) {
	if Hash("f", 1) == Hash("f", 2) {
		t.Error("hash should mix arity")
	}
	if Hash("ab", 0) == Hash("ba", 0) {
		t.Error("hash should be order sensitive")
	}
}

func TestInternProperty(t *testing.T) {
	d := New(WithSegmentSize(64))
	seen := map[[2]any]ID{}
	f := func(name string, arity uint8) bool {
		a := int(arity % 8)
		id := d.Intern(name, a)
		key := [2]any{name, a}
		if prev, ok := seen[key]; ok && prev != id {
			return false
		}
		seen[key] = id
		return d.Name(id) == name && d.Arity(id) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDistinctIDsProperty(t *testing.T) {
	d := New(WithSegmentSize(32))
	byID := map[ID][2]any{}
	f := func(name string, arity uint8) bool {
		a := int(arity % 4)
		id := d.Intern(name, a)
		if prev, ok := byID[id]; ok {
			return prev == [2]any{name, a}
		}
		byID[id] = [2]any{name, a}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntern(b *testing.B) {
	d := New()
	names := make([]string, 1000)
	for i := range names {
		names[i] = fmt.Sprintf("atom_%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Intern(names[i%len(names)], i%4)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	d := New()
	names := make([]string, 1000)
	for i := range names {
		names[i] = fmt.Sprintf("atom_%d", i)
		d.Intern(names[i], 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(names[i%len(names)], 0)
	}
}
