package rel

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/store"
)

func memCatalog(t *testing.T) *Catalog {
	t.Helper()
	st, err := store.Open(nil, "", store.Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCatalog(st)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sampleRel(t *testing.T, c *Catalog, n int) *Relation {
	t.Helper()
	r, err := c.Create(Schema{
		Name: "sample",
		Attrs: []Attr{
			{Name: "id", Type: Int},
			{Name: "grp", Type: Int},
			{Name: "name", Type: String},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ts []Tuple
	for i := 0; i < n; i++ {
		ts = append(ts, Tuple{IntV(int64(i)), IntV(int64(i % 10)), StringV(fmt.Sprintf("row%d", i))})
	}
	if err := r.InsertAll(ts); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestInsertScanCount(t *testing.T) {
	c := memCatalog(t)
	r := sampleRel(t, c, 100)
	if r.Count() != 100 {
		t.Fatalf("count = %d", r.Count())
	}
	ts, err := Collect(SeqScan(r))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 100 {
		t.Fatalf("scan = %d tuples", len(ts))
	}
	if ts[42][0].I != 42 || ts[42][2].S != "row42" {
		t.Fatalf("tuple 42 = %v", ts[42])
	}
}

func TestTypeChecking(t *testing.T) {
	c := memCatalog(t)
	r := sampleRel(t, c, 1)
	if err := r.Insert(Tuple{StringV("oops"), IntV(1), StringV("x")}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if err := r.Insert(Tuple{IntV(1), IntV(1)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	// A rejected tuple writes nothing, whichever path it takes and
	// wherever it sits in its batch: Count and a scan still agree.
	unchanged := func(label string, want int) {
		t.Helper()
		ts, err := Collect(SeqScan(r))
		if err != nil || len(ts) != want || r.Count() != want {
			t.Fatalf("%s: count %d, scan %d tuples (%v), want %d", label, r.Count(), len(ts), err, want)
		}
	}
	good := Tuple{IntV(7), IntV(7), StringV("seven")}
	unchanged("Insert", 1)
	if err := r.InsertAll([]Tuple{good, {IntV(1), IntV(1)}}); err == nil {
		t.Fatal("InsertAll accepted a short tuple")
	}
	unchanged("InsertAll short tuple", 1)
	if err := r.InsertAll([]Tuple{good, {IntV(10), StringV("oops"), IntV(3)}}); err == nil {
		t.Fatal("InsertAll accepted a mistyped tuple")
	}
	unchanged("InsertAll mistyped tuple", 1)
	if err := r.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertAll([]Tuple{good, {IntV(1), IntV(1)}}); err == nil {
		t.Fatal("InsertAll accepted a short tuple on an indexed relation")
	}
	unchanged("indexed InsertAll short tuple", 1)
	long := StringV(strings.Repeat("k", store.MaxKeyLen+1))
	if err := r.Insert(Tuple{IntV(2), IntV(2), long}); err == nil {
		t.Fatal("Insert accepted an indexed value longer than a key")
	}
	unchanged("Insert long indexed value", 1)
	if err := r.InsertAll([]Tuple{good}); err != nil {
		t.Fatal(err)
	}
	unchanged("good InsertAll", 2)
}

func TestIndexScanRange(t *testing.T) {
	c := memCatalog(t)
	r := sampleRel(t, c, 1000)
	if err := r.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(IndexScan(r, "id", IntV(100), IntV(149)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("index range = %d tuples", len(got))
	}
	for _, tp := range got {
		if tp[0].I < 100 || tp[0].I > 149 {
			t.Fatalf("out of range tuple %v", tp)
		}
	}
	// Same result without index (fallback path).
	got2, _ := Collect(IndexScan(r, "grp", IntV(3), IntV(3)))
	if len(got2) != 100 {
		t.Fatalf("unindexed equality = %d", len(got2))
	}
}

func TestNegativeIntKeysOrdered(t *testing.T) {
	c := memCatalog(t)
	r, _ := c.Create(Schema{Name: "neg", Attrs: []Attr{{Name: "v", Type: Int}}})
	for _, v := range []int64{-5, 3, -1, 0, 7, -100} {
		r.Insert(Tuple{IntV(v)})
	}
	r.CreateIndex("v")
	got, _ := Collect(IndexScan(r, "v", IntV(-10), IntV(5)))
	want := []int64{-5, -1, 0, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i, tp := range got {
		if tp[0].I != want[i] {
			t.Fatalf("order: got %v", got)
		}
	}
}

func TestSelectProject(t *testing.T) {
	c := memCatalog(t)
	r := sampleRel(t, c, 50)
	it := Project(Select(SeqScan(r), func(t Tuple) bool { return t[1].I == 4 }), []int{2})
	ts, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 5 {
		t.Fatalf("select+project = %d", len(ts))
	}
	if len(ts[0]) != 1 || ts[0][0].Type != String {
		t.Fatalf("projection shape: %v", ts[0])
	}
}

func TestNestedLoopJoin(t *testing.T) {
	c := memCatalog(t)
	a, _ := c.Create(Schema{Name: "a", Attrs: []Attr{{Name: "x", Type: Int}}})
	b, _ := c.Create(Schema{Name: "b", Attrs: []Attr{{Name: "y", Type: Int}, {Name: "tag", Type: String}}})
	for i := 0; i < 10; i++ {
		a.Insert(Tuple{IntV(int64(i))})
	}
	for i := 0; i < 20; i += 2 {
		b.Insert(Tuple{IntV(int64(i)), StringV("even")})
	}
	j := NestedLoopJoin(SeqScan(a), func() Iterator { return SeqScan(b) },
		func(o, i Tuple) bool { return o[0].I == i[0].I })
	ts, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 5 { // 0,2,4,6,8
		t.Fatalf("join = %d rows", len(ts))
	}
	for _, tp := range ts {
		if tp[0].I != tp[1].I || tp[2].S != "even" {
			t.Fatalf("bad join row %v", tp)
		}
	}
}

func TestIndexJoin(t *testing.T) {
	c := memCatalog(t)
	a := sampleRel(t, c, 100)
	b, _ := c.Create(Schema{Name: "dim", Attrs: []Attr{{Name: "g", Type: Int}, {Name: "label", Type: String}}})
	for i := 0; i < 10; i++ {
		b.Insert(Tuple{IntV(int64(i)), StringV(fmt.Sprintf("group-%d", i))})
	}
	b.CreateIndex("g")
	j := IndexJoin(SeqScan(a), b, 1, "g")
	n, err := Count(j)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("index join = %d rows", n)
	}
}

func TestCatalogPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.db")
	st, _ := store.Open(store.OSFS{}, path, store.Options{PoolPages: 256})
	c, err := OpenCatalog(st)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := c.Create(Schema{Name: "persisted", Attrs: []Attr{
		{Name: "k", Type: Int}, {Name: "v", Type: Float}, {Name: "s", Type: String},
	}})
	for i := 0; i < 200; i++ {
		r.Insert(Tuple{IntV(int64(i)), FloatV(float64(i) / 2), StringV(fmt.Sprintf("s%d", i))})
	}
	r.CreateIndex("k")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, _ := store.Open(store.OSFS{}, path, store.Options{PoolPages: 256})
	defer st2.Close()
	c2, err := OpenCatalog(st2)
	if err != nil {
		t.Fatal(err)
	}
	r2 := c2.Get("persisted")
	if r2 == nil || r2.Count() != 200 {
		t.Fatalf("reopened relation: %+v", r2)
	}
	if !r2.HasIndex("k") {
		t.Fatal("index lost")
	}
	ts, _ := Collect(IndexScan(r2, "k", IntV(50), IntV(50)))
	if len(ts) != 1 || ts[0][1].F != 25 || ts[0][2].S != "s50" {
		t.Fatalf("reopened tuple: %v", ts)
	}
}

func TestValueKeyOrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ka, kb := IntV(a).Key(), IntV(b).Key()
		cmp := IntV(a).Compare(IntV(b))
		switch {
		case cmp < 0:
			return string(ka) < string(kb)
		case cmp > 0:
			return string(ka) > string(kb)
		}
		return string(ka) == string(kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		ka, kb := FloatV(a).Key(), FloatV(b).Key()
		cmp := FloatV(a).Compare(FloatV(b))
		switch {
		case cmp < 0:
			return string(ka) < string(kb)
		case cmp > 0:
			return string(ka) > string(kb)
		}
		return true // NaN etc: no ordering claim
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleCodecProperty(t *testing.T) {
	schema := Schema{Name: "q", Attrs: []Attr{
		{Name: "i", Type: Int}, {Name: "f", Type: Float}, {Name: "s", Type: String},
	}}
	f := func(i int64, fl float64, s string) bool {
		tp := Tuple{IntV(i), FloatV(fl), StringV(s)}
		back, err := decodeTuple(encodeTuple(tp), &schema)
		if err != nil {
			return false
		}
		return back[0].I == i && (back[1].F == fl || fl != fl) && back[2].S == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Every proper prefix of an encoding is an error, never a tuple with
	// zero-filled values.
	enc := encodeTuple(Tuple{IntV(1), FloatV(2.5), StringV("abcdef")})
	for n := range enc {
		if tp, err := decodeTuple(enc[:n], &schema); err == nil {
			t.Fatalf("%d of %d bytes decoded as %v", n, len(enc), tp)
		}
	}
}

// TestMemRelDeleteKeepsViews: a delete, and the compaction it triggers,
// leave the slots and index positions handed out before it as they were;
// -0 and +0 are one key, as are NaNs, as ValueEq has them.
func TestMemRelDeleteKeepsViews(t *testing.T) {
	m := NewMemRel(1)
	for i := 0; i < 4; i++ {
		m.Insert(Tuple{IntV(int64(i))})
	}
	view, keys := m.Tuples(), m.Lookup(0, IntV(2))
	for i := 0; i < 3; i++ {
		if !m.Delete(Tuple{IntV(int64(i))}) || m.Contains(Tuple{IntV(int64(i))}) {
			t.Fatalf("delete %d", i)
		}
	}
	if got := fmt.Sprint(view, keys, view[keys[0]]); got != "[[0] [1] [2] [3]] [2] [2]" {
		t.Fatalf("view after deletes: %s", got)
	}
	if m.Len() != 1 || len(m.Tuples()) != 1 || len(m.Lookup(0, IntV(2))) != 0 {
		t.Fatalf("after compaction: %d live, %d slots", m.Len(), len(m.Tuples()))
	}
	f := NewMemRel(1)
	negZero, nan := math.Copysign(0, -1), math.NaN()
	for _, v := range []float64{0, negZero, nan, -nan} {
		f.Insert(Tuple{FloatV(v)})
	}
	if f.Len() != 2 || len(f.Lookup(0, FloatV(negZero))) != 1 || !ValueEq(FloatV(nan), FloatV(-nan)) {
		t.Fatalf("float keys: %d tuples", f.Len())
	}
}
