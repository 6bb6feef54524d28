package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

func memStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(nil, "", Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// inMemoryPager opens the store's one pager over a fresh pair of
// in-memory files, for tests that drive a pager or a pool directly.
func inMemoryPager(t *testing.T) *filePager {
	t.Helper()
	p, err := openFilePager(memFS{}, "mem", Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPagerAllocateFreeReuse(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		p, err := openFilePager(OSFS{}, filepath.Join(t.TempDir(), "t.db"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		a, _ := p.Allocate()
		b, _ := p.Allocate()
		if a == b || a == 0 || b == 0 {
			t.Fatalf("bad allocation: %d %d", a, b)
		}
		buf := make([]byte, PageSize)
		buf[0] = 0xAB
		if err := p.WritePage(a, buf); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, PageSize)
		if err := p.ReadPage(a, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != 0xAB {
			t.Fatal("page content lost")
		}
		if err := p.Free(a); err != nil {
			t.Fatal(err)
		}
		c, _ := p.Allocate()
		if c != a {
			t.Fatalf("freed page not reused: got %d want %d", c, a)
		}
		// A reused page must come back zeroed.
		if err := p.ReadPage(c, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != 0 {
			t.Fatal("reused page not zeroed")
		}
	})
}

func TestFilePagerPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.db")
	p, err := openFilePager(OSFS{}, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Allocate()
	buf := make([]byte, PageSize)
	copy(buf, "hello pages")
	if err := p.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.metaSet("root", uint64(id)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := openFilePager(OSFS{}, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	v, ok := p2.metaGet("root")
	if !ok || PageID(v) != id {
		t.Fatalf("meta lost: %d %v", v, ok)
	}
	got := make([]byte, PageSize)
	if err := p2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:11]) != "hello pages" {
		t.Fatal("page content lost across reopen")
	}
}

func TestBufferPoolCountsIO(t *testing.T) {
	s := memStore(t)
	f, err := s.Pool().Alloc()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	f.Data[0] = 7
	s.Pool().Unpin(f, true)
	s.ResetStats()

	// Hit: still in pool.
	f, _ = s.Pool().Get(id)
	s.Pool().Unpin(f, false)
	st := s.Stats()
	if st.Accesses != 1 || st.Hits != 1 || st.Reads != 0 {
		t.Fatalf("stats after hit: %+v", st)
	}
}

func TestBufferPoolEviction(t *testing.T) {
	s, err := Open(nil, "", Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 20; i++ {
		f, err := s.Pool().Alloc()
		if err != nil {
			t.Fatal(err)
		}
		f.Data[0] = byte(i)
		ids = append(ids, f.ID())
		s.Pool().Unpin(f, true)
	}
	// All pages readable with correct content despite eviction.
	for i, id := range ids {
		f, err := s.Pool().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data[0] != byte(i) {
			t.Fatalf("page %d content %d, want %d", id, f.Data[0], i)
		}
		s.Pool().Unpin(f, false)
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("expected evictions with a small pool")
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	s, err := Open(nil, "", Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	var frames []*Frame
	for i := 0; i < 8; i++ {
		f, err := s.Pool().Alloc()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if _, err := s.Pool().Alloc(); err == nil {
		t.Fatal("expected pool-exhausted error")
	}
	for _, f := range frames {
		s.Pool().Unpin(f, false)
	}
	if _, err := s.Pool().Alloc(); err != nil {
		t.Fatalf("alloc after unpin: %v", err)
	}
}

func TestHeapInsertGetDelete(t *testing.T) {
	s := memStore(t)
	h, err := CreateHeap(s.Pool())
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("record-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		data, err := h.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != fmt.Sprintf("record-%03d", i) {
			t.Fatalf("record %d corrupted: %q", i, data)
		}
	}
	if err := h.Delete(rids[10]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rids[10]); err == nil {
		t.Fatal("deleted record still readable")
	}
	// Slot reuse.
	rid, err := h.Insert([]byte("replacement"))
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != rids[10].Page || rid.Slot != rids[10].Slot {
		// Reuse is best-effort; at minimum the new record must be intact.
		t.Logf("slot not reused: %v vs %v", rid, rids[10])
	}
	data, _ := h.Get(rid)
	if string(data) != "replacement" {
		t.Fatal("replacement corrupted")
	}
}

func TestHeapLargeRecords(t *testing.T) {
	s := memStore(t)
	h, err := CreateHeap(s.Pool())
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 3*PageSize+123)
	for i := range big {
		big[i] = byte(i * 7)
	}
	rid, err := h.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large record corrupted")
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err == nil {
		t.Fatal("deleted large record still readable")
	}
}

func TestHeapScan(t *testing.T) {
	s := memStore(t)
	h, _ := CreateHeap(s.Pool())
	want := map[string]bool{}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("r%d", i)
		want[key] = true
		if _, err := h.Insert([]byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	err := h.Scan(func(_ RID, data []byte) (bool, error) {
		got[string(data)] = true
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan found %d records, want %d", len(got), len(want))
	}
}

func TestHeapUpdate(t *testing.T) {
	s := memStore(t)
	h, _ := CreateHeap(s.Pool())
	rid, _ := h.Insert([]byte("old"))
	nrid, err := h.Update(rid, []byte("new value that is longer"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h.Get(nrid)
	if string(got) != "new value that is longer" {
		t.Fatal("update lost data")
	}
}

// TestHeapUpdateInPlace: an inline record replaced by one no longer than
// its slot keeps its RID; a growing record moves to the append-hint page,
// and an overflow record is deleted and inserted again, its chain freed.
func TestHeapUpdateInPlace(t *testing.T) {
	s := memStore(t)
	h, _ := CreateHeap(s.Pool())
	rid, err := h.Insert([]byte("a record of some thirty bytes."))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the first page so the append hint moves past it.
	for r := rid; r.Page == rid.Page; {
		if r, err = h.Insert(bytes.Repeat([]byte{'f'}, 200)); err != nil {
			t.Fatal(err)
		}
	}
	update := func(rid RID, data []byte) RID {
		t.Helper()
		nrid, err := h.Update(rid, data)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := h.Get(nrid); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get after Update = %q, %v", got, err)
		}
		return nrid
	}
	for _, data := range []string{"same length: thirty bytes, ok.", "shorter", ""} {
		if nrid := update(rid, []byte(data)); nrid != rid {
			t.Fatalf("update to %d bytes moved %s to %s", len(data), rid, nrid)
		}
	}
	grown := update(rid, []byte("a record longer than the shortest one"))
	if grown.Page == rid.Page {
		t.Fatalf("a grown record stayed on page %d", rid.Page)
	}
	pages := s.Pool().Pager().NumPages()
	big := update(grown, bytes.Repeat([]byte{'o'}, 3*PageSize))
	update(big, []byte("short")) // fits the 9-byte stub, but its chain must go
	if _, err := h.Insert(bytes.Repeat([]byte{'o'}, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	if got := s.Pool().Pager().NumPages(); got > pages+4 {
		t.Errorf("the replaced overflow chain was not freed: %d pages, then %d", pages, got)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestHeapReusesDeletedSpace: a steady insert/delete load around one live
// record must not grow the heap (the parent went from 2 to 202 pages over
// these 4000 rounds: deleted bytes were never reused), and compacting a
// page must leave the live record at its RID, intact.
func TestHeapReusesDeletedSpace(t *testing.T) {
	s := memStore(t)
	h, _ := CreateHeap(s.Pool())
	rec := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 200) }
	live, err := h.Insert(rec(255))
	if err != nil {
		t.Fatal(err)
	}
	base := s.Pool().Pager().NumPages()
	for i := 0; i < 4000; i++ {
		rid, err := h.Insert(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Delete(rid); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Pool().Pager().NumPages(); got > base+1 {
		t.Errorf("heap grew from %d to %d pages under a steady load", base, got)
	}
	if got, err := h.Get(live); err != nil || !bytes.Equal(got, rec(255)) {
		t.Fatalf("live record after compaction: %v", err)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func intKey(v int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(v))
	return b
}

func TestBTreeInsertSearch(t *testing.T) {
	s := memStore(t)
	bt, err := CreateBTree(s.Pool())
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, v := range perm {
		if err := bt.Insert(intKey(v), uint64(v*10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 37 {
		vals, err := bt.SearchEQ(intKey(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 || vals[0] != uint64(i*10) {
			t.Fatalf("search %d = %v", i, vals)
		}
	}
	if vals, _ := bt.SearchEQ(intKey(n + 5)); len(vals) != 0 {
		t.Fatal("found absent key")
	}
	if l, _ := bt.Len(); l != n {
		t.Fatalf("Len = %d, want %d", l, n)
	}
}

func TestBTreeRange(t *testing.T) {
	s := memStore(t)
	bt, _ := CreateBTree(s.Pool())
	for i := 0; i < 1000; i++ {
		if err := bt.Insert(intKey(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := bt.Range(intKey(100), intKey(199), func(_ []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || got[0] != 100 || got[99] != 199 {
		t.Fatalf("range 100..199: %d values, first %d last %d", len(got), got[0], got[len(got)-1])
	}
	// Ordering over the full range.
	prev := -1
	err = bt.Range(nil, nil, func(k []byte, _ uint64) bool {
		v := int(binary.BigEndian.Uint64(k))
		if v < prev {
			t.Fatalf("out of order: %d after %d", v, prev)
		}
		prev = v
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBTreeDuplicates(t *testing.T) {
	s := memStore(t)
	bt, _ := CreateBTree(s.Pool())
	for i := 0; i < 50; i++ {
		if err := bt.Insert([]byte("dup"), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	vals, _ := bt.SearchEQ([]byte("dup"))
	if len(vals) != 50 || !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
		t.Fatalf("duplicates: %d values, want 50 in value order: %v", len(vals), vals)
	}
	if err := bt.Insert([]byte("dup"), 7); err == nil {
		t.Fatal("a pair already present was inserted again")
	}
	ok, err := bt.Delete([]byte("dup"), 25)
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	vals, _ = bt.SearchEQ([]byte("dup"))
	if len(vals) != 49 {
		t.Fatalf("after delete: %d values", len(vals))
	}
	for _, v := range vals {
		if v == 25 {
			t.Fatal("deleted value still present")
		}
	}
	ok, _ = bt.Delete([]byte("dup"), 999)
	if ok {
		t.Fatal("deleted absent value")
	}
}

func TestBTreeVariableKeys(t *testing.T) {
	s := memStore(t)
	bt, _ := CreateBTree(s.Pool())
	keys := []string{"", "a", "abc", "abcd", "b", "zebra", "zz"}
	for i, k := range keys {
		if err := bt.Insert([]byte(k), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	bt.Range(nil, nil, func(k []byte, _ uint64) bool {
		got = append(got, string(k))
		return true
	})
	if !sort.StringsAreSorted(got) {
		t.Fatalf("keys out of order: %v", got)
	}
	if err := bt.Insert(make([]byte, MaxKeyLen+1), 0); err == nil {
		t.Fatal("oversized key accepted")
	}
}

func TestBTreeProperty(t *testing.T) {
	s := memStore(t)
	bt, _ := CreateBTree(s.Pool())
	inserted := map[string]uint64{}
	f := func(key string, val uint64) bool {
		if len(key) > MaxKeyLen {
			key = key[:MaxKeyLen]
		}
		if _, dup := inserted[key]; dup {
			return true
		}
		if err := bt.Insert([]byte(key), val); err != nil {
			return false
		}
		inserted[key] = val
		vals, err := bt.SearchEQ([]byte(key))
		return err == nil && len(vals) == 1 && vals[0] == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Everything remains findable at the end.
	for k, v := range inserted {
		vals, err := bt.SearchEQ([]byte(k))
		if err != nil || len(vals) != 1 || vals[0] != v {
			t.Fatalf("lost key %q: %v %v", k, vals, err)
		}
	}
}

func TestBTreePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bt.db")
	s, _ := Open(OSFS{}, path, Options{PoolPages: 64})
	bt, _ := CreateBTree(s.Pool())
	for i := 0; i < 2000; i++ {
		bt.Insert(intKey(i), uint64(i))
	}
	s.SetMeta("bt", uint64(bt.Anchor()))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(OSFS{}, path, Options{PoolPages: 64})
	defer s2.Close()
	anchor, _ := s2.GetMeta("bt")
	bt2, err := OpenBTree(s2.Pool(), PageID(anchor))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := bt2.SearchEQ(intKey(1234))
	if err != nil || len(vals) != 1 || vals[0] != 1234 {
		t.Fatalf("reopened search: %v %v", vals, err)
	}
}

func TestRIDPacking(t *testing.T) {
	f := func(page uint32, slot uint16) bool {
		r := RID{Page: PageID(page), Slot: slot}
		return UnpackRID(r.Pack()) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
