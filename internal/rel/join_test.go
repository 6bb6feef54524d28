package rel

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

// joinRels fills a fresh catalog with an inner relation — keys with
// duplicates, one of them held by enough tuples to span several B-tree
// leaves — indexed on its int and string keys but not on v, and an outer
// relation of n tuples whose keys are partly absent from the inner.
func joinRels(t *testing.T, seed int64, n int) (c *Catalog, outer, inner *Relation) {
	t.Helper()
	c = memCatalog(t)
	rng := rand.New(rand.NewSource(seed))
	inner, err := c.Create(Schema{Name: "inner", Attrs: []Attr{
		{Name: "k", Type: Int}, {Name: "s", Type: String}, {Name: "v", Type: Int},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var ts []Tuple
	for i := 0; i < 3000; i++ {
		k := int64(rng.Intn(300))
		if i%4 == 0 {
			k = 7 // the high fan-out key: about 750 pairs
		}
		ts = append(ts, Tuple{IntV(k), StringV(fmt.Sprintf("s%d", rng.Intn(200))), IntV(int64(rng.Intn(50)))})
	}
	if err := inner.InsertAll(ts); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"k", "s"} {
		if err := inner.CreateIndex(a); err != nil {
			t.Fatal(err)
		}
	}
	outer, err = c.Create(Schema{Name: "outer", Attrs: []Attr{
		{Name: "x", Type: Int}, {Name: "name", Type: String},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts = ts[:0]
	for i := 0; i < n; i++ {
		ts = append(ts, Tuple{IntV(int64(rng.Intn(400) - 20)), StringV(fmt.Sprintf("s%d", rng.Intn(250)))})
	}
	if err := outer.InsertAll(ts); err != nil {
		t.Fatal(err)
	}
	return c, outer, inner
}

// nestedLoopModel is IndexJoin's meaning: every outer tuple, in order,
// followed by each inner tuple whose attribute equals its key, in storage
// order, which in a relation never deleted from is the inner index's
// order (RID order). The inner tuples are read once, up front.
func nestedLoopModel(t *testing.T, outer, inner *Relation, outerAttr int, innerAttr string) []Tuple {
	t.Helper()
	a := inner.Schema.AttrIndex(innerAttr)
	ins, err := Collect(SeqScan(inner))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(NestedLoopJoin(SeqScan(outer), func() Iterator { return &sliceIter{ts: ins} },
		func(o, i Tuple) bool { return ValueEq(o[outerAttr], i[a]) }))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

type sliceIter struct{ ts []Tuple }

func (s *sliceIter) Next() (Tuple, error) {
	if len(s.ts) == 0 {
		return nil, nil
	}
	t := s.ts[0]
	s.ts = s.ts[1:]
	return t, nil
}

func (s *sliceIter) Close() {}

func sameTuples(t *testing.T, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("tuple %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestIndexJoinMatchesNestedLoop compares IndexJoin tuple for tuple, in
// order, with a nested-loop join over random relations: int and string
// keys, duplicate inner keys, a key whose pairs span leaves, outer keys
// absent from the inner, an outer of several batches, an inner with no
// index, an empty outer, and a join closed before its end. The access-
// path counters keep their meaning: one index choice per outer tuple,
// and as many index pairs scanned as tuples matched.
func TestIndexJoinMatchesNestedLoop(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int // outer tuples
		outerAttr int
		innerAttr string
	}{
		{"int", 2*joinBatch + 300, 0, "k"},
		{"string", joinBatch + 1, 1, "s"},
		{"no index", 300, 0, "v"},
		{"empty outer", 0, 0, "k"},
		{"one tuple", 1, 0, "k"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, outer, inner := joinRels(t, int64(tc.n), tc.n)
			want := nestedLoopModel(t, outer, inner, tc.outerAttr, tc.innerAttr)
			reg := c.Store().Obs()
			counter := func(name string) uint64 { return reg.Counter("rel.path.rel_index." + name).Value() }
			choices, scanned, matched := counter("choices"), counter("scanned"), counter("matched")
			got, err := Collect(IndexJoin(SeqScan(outer), inner, tc.outerAttr, tc.innerAttr))
			if err != nil {
				t.Fatal(err)
			}
			sameTuples(t, got, want)
			if !inner.HasIndex(tc.innerAttr) {
				return
			}
			if d := counter("choices") - choices; d != uint64(tc.n) {
				t.Errorf("%d index choices for %d outer tuples", d, tc.n)
			}
			if s, m := counter("scanned")-scanned, counter("matched")-matched; s != m || m != uint64(len(want)) {
				t.Errorf("%d pairs scanned, %d matched, for %d results", s, m, len(want))
			}
		})
	}
	t.Run("close early", func(t *testing.T) {
		_, outer, inner := joinRels(t, 5, 2*joinBatch)
		want := nestedLoopModel(t, outer, inner, 0, "k")
		it := IndexJoin(SeqScan(outer), inner, 0, "k")
		var got []Tuple
		for len(got) < len(want)/2 {
			tp, err := it.Next()
			if err != nil || tp == nil {
				t.Fatalf("Next = %v, %v after %d tuples", tp, err, len(got))
			}
			got = append(got, tp)
		}
		it.Close()
		sameTuples(t, got, want[:len(got)])
		if tp, err := it.Next(); tp != nil || err != nil {
			t.Fatalf("Next after Close = %v, %v", tp, err)
		}
		it.Close()
	})
}

// TestUnknownAttrIsAnError: an attribute the relation lacks, and an outer
// attribute past the outer tuple's end, are errors naming it, not panics.
func TestUnknownAttrIsAnError(t *testing.T) {
	c := memCatalog(t)
	a := sampleRel(t, c, 10)
	if err := a.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		it         func() Iterator
	}{
		{"IndexScan", "nosuch", func() Iterator { return IndexScan(a, "nosuch", IntV(1), IntV(2)) }},
		{"IndexJoin inner", "nosuch", func() Iterator { return IndexJoin(SeqScan(a), a, 0, "nosuch") }},
		{"IndexJoin outer", "99", func() Iterator { return IndexJoin(SeqScan(a), a, 99, "id") }},
		{"IndexJoin outer, no index", "99", func() Iterator { return IndexJoin(SeqScan(a), a, 99, "grp") }},
		{"IndexJoin negative outer", "-1", func() Iterator { return IndexJoin(SeqScan(a), a, -1, "id") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, err := Collect(tc.it())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Collect = %d tuples, %v; want an error naming %s", len(ts), err, tc.want)
			}
		})
	}
}

// TestConcurrentReadOnlyJoins runs joins and scans side by side over
// shared relations and a pool small enough to evict under them: each
// reader holds a pin while it decodes, and every one gets the answer a
// lone reader gets. Run with -race.
func TestConcurrentReadOnlyJoins(t *testing.T) {
	st, err := store.Open(nil, "", store.Options{PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCatalog(st)
	if err != nil {
		t.Fatal(err)
	}
	a := sampleRel(t, c, 2000)
	b, err := c.Create(Schema{Name: "dim", Attrs: []Attr{{Name: "g", Type: Int}, {Name: "label", Type: String}}})
	if err != nil {
		t.Fatal(err)
	}
	var ts []Tuple
	for i := 0; i < 200; i++ {
		ts = append(ts, Tuple{IntV(int64(i % 20)), StringV(fmt.Sprintf("label-%d", i))})
	}
	if err := b.InsertAll(ts); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []struct {
		r    *Relation
		attr string
	}{{a, "id"}, {b, "g"}} {
		if err := idx.r.CreateIndex(idx.attr); err != nil {
			t.Fatal(err)
		}
	}
	queries := []func() Iterator{
		func() Iterator { return IndexJoin(IndexScan(a, "id", IntV(100), IntV(1099)), b, 1, "g") },
		func() Iterator { return IndexJoin(SeqScan(a), b, 1, "g") },
		func() Iterator { return IndexScan(a, "id", IntV(0), IntV(1999)) },
		func() Iterator { return SeqScan(b) },
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		got, err := Collect(q())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(got)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				q := (g + round) % len(queries)
				got, err := Collect(queries[q]())
				if err == nil && fmt.Sprint(got) != want[q] {
					err = fmt.Errorf("query %d: a concurrent reader got a different answer", q)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
