package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// SearchEQ returns the values stored under key.
func (t *BTree) SearchEQ(key []byte) ([]uint64, error) {
	var out []uint64
	err := t.Range(key, key, func(_ []byte, v uint64) bool {
		out = append(out, v)
		return true
	})
	return out, err
}

// Len counts all stored pairs.
func (t *BTree) Len() (int, error) {
	count := 0
	err := t.Range(nil, nil, func([]byte, uint64) bool { count++; return true })
	return count, err
}

// height counts the tree's levels, root to leaf.
func (t *BTree) height() (int, error) {
	f, depth, err := t.descend(Pair{}, LatchShared, nil)
	if err != nil {
		return 0, err
	}
	t.pool.Unpin(f, false)
	return depth + 1, nil
}

// btModel is the set of pairs a tree must hold, in pair order.
type btModel []Pair

// find returns where (key, val) is or would go, and whether it is there.
func (m btModel) find(key []byte, val uint64) (int, bool) {
	p := Pair{key, val}
	i := sort.Search(len(m), func(i int) bool { return m[i].compare(p) >= 0 })
	return i, i < len(m) && m[i].compare(p) == 0
}

// insert adds (key, val) unless it is present, reporting whether it did.
func (m btModel) insert(key []byte, val uint64) (btModel, bool) {
	i, found := m.find(key, val)
	if found {
		return m, false
	}
	m = append(m, Pair{})
	copy(m[i+1:], m[i:])
	m[i] = Pair{bytes.Clone(key), val}
	return m, true
}

// delete removes (key, val), reporting whether it was present.
func (m btModel) delete(key []byte, val uint64) (btModel, bool) {
	i, found := m.find(key, val)
	if found {
		m = append(m[:i], m[i+1:]...)
	}
	return m, found
}

// verifyModel requires the tree to pass Check and hold exactly the model,
// in order.
func verifyModel(t *testing.T, bt *BTree, m btModel) {
	t.Helper()
	if err := bt.Check(); err != nil {
		t.Fatal(err)
	}
	var got btModel
	if err := bt.Range(nil, nil, func(k []byte, v uint64) bool {
		got = append(got, Pair{bytes.Clone(k), v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m) {
		t.Fatalf("tree holds %d pairs, model %d", len(got), len(m))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, m[i].Key) || got[i].Val != m[i].Val {
			t.Fatalf("pair %d: tree (%q, %d), model (%q, %d)", i, got[i].Key, got[i].Val, m[i].Key, m[i].Val)
		}
	}
}

// checkProbe requires Probe over keys, sorted and made distinct here, to
// visit exactly the pairs that a Range over each key alone visits, in the
// same order.
func checkProbe(t *testing.T, bt *BTree, keys [][]byte) {
	t.Helper()
	slices.SortFunc(keys, bytes.Compare)
	keys = slices.CompactFunc(keys, bytes.Equal)
	type visit struct {
		i   int
		val uint64
	}
	var want, got []visit
	for i, k := range keys {
		if err := bt.Range(k, k, func(_ []byte, v uint64) bool {
			want = append(want, visit{i, v})
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Probe(keys, func(i int, v uint64) { got = append(got, visit{i, v}) }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Probe of %d keys visits %d pairs, per-key Range %d: %v, want %v", len(keys), len(got), len(want), got, want)
	}
}

// TestBTreeMatchesModel drives random inserts and deletes — many pairs
// per key, key lengths from 1 to MaxKeyLen — into a tree at least three
// levels deep, checking it against a sorted model after each batch. An
// insert of a pair already present must be refused. After each batch a
// few probes of sorted keys, some absent and one holding pairs that span
// leaves, must visit what per-key Ranges visit.
func TestBTreeMatchesModel(t *testing.T) {
	s := memStore(t)
	bt, err := CreateBTree(s.Pool())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pool := make([][]byte, 400)
	for i := range pool {
		n := 1 + rng.Intn(16)
		if i%2 == 0 {
			n = 1 + rng.Intn(MaxKeyLen)
		}
		pool[i] = bytes.Repeat([]byte{byte('a' + rng.Intn(4))}, n)
		pool[i][n-1] = byte(rng.Intn(256))
	}
	var m btModel
	span := []byte("span")
	for v := uint64(0); v < 600; v++ {
		if err := bt.Insert(span, v); err != nil {
			t.Fatal(err)
		}
		m, _ = m.insert(span, v)
	}
	for batch := 0; batch < 20; batch++ {
		for op := 0; op < 200; op++ {
			if rng.Intn(10) < 7 || len(m) == 0 {
				key, val := pool[rng.Intn(len(pool))], uint64(rng.Intn(3))
				var added bool
				m, added = m.insert(key, val)
				if err := bt.Insert(key, val); added != (err == nil) || err != nil && !errors.Is(err, errPairPresent) {
					t.Fatalf("Insert(%q, %d) = %v, model says new: %v", key, val, err, added)
				}
				continue
			}
			p := m[rng.Intn(len(m))]
			if rng.Intn(4) == 0 { // often absent
				p = Pair{pool[rng.Intn(len(pool))], uint64(rng.Intn(4))}
			}
			ok, err := bt.Delete(p.Key, p.Val)
			if err != nil {
				t.Fatal(err)
			}
			var want bool
			if m, want = m.delete(p.Key, p.Val); ok != want {
				t.Fatalf("Delete(%q, %d) = %v, model says %v", p.Key, p.Val, ok, want)
			}
		}
		verifyModel(t, bt, m)
		for probe := 0; probe < 5; probe++ {
			keys := [][]byte{span, {byte(rng.Intn(256))}}
			for n := rng.Intn(60); n > 0; n-- {
				keys = append(keys, pool[rng.Intn(len(pool))])
			}
			checkProbe(t, bt, keys)
		}
	}
	if h, err := bt.height(); err != nil || h < 3 {
		t.Fatalf("tree has %d levels (%v), want at least 3", h, err)
	}
}

// TestBTreeSplitsKeysOfUnequalLength: a full leaf of seven MaxKeyLen keys
// and 39 one-byte keys takes an eighth long key in front. Cut at the
// middle entry, its left half would hold eight long keys, more than a
// page; the split cuts at the middle byte instead.
func TestBTreeSplitsKeysOfUnequalLength(t *testing.T) {
	s := memStore(t)
	bt, err := CreateBTree(s.Pool())
	if err != nil {
		t.Fatal(err)
	}
	var m btModel
	insert := func(key []byte, val uint64) {
		if err := bt.Insert(key, val); err != nil {
			t.Fatal(err)
		}
		m, _ = m.insert(key, val)
	}
	for i := 0; i < 39; i++ {
		insert([]byte("b"), uint64(i))
	}
	long := func(i int) []byte { return append(bytes.Repeat([]byte{'a'}, MaxKeyLen-1), byte(i)) }
	for i := 1; i <= 7; i++ {
		insert(long(i), 0)
	}
	insert(long(0), 0)
	verifyModel(t, bt, m)
}

// TestBTreeDeleteDescends: deleting the last of 20k pairs under one key
// reads the anchor and one root-to-leaf path, not the leaf chain through
// the pairs that share its key.
func TestBTreeDeleteDescends(t *testing.T) {
	s := memStore(t)
	bt, err := CreateBTree(s.Pool())
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	key := []byte("bus")
	for i := 0; i < n; i++ {
		if err := bt.Insert(key, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := bt.height()
	if err != nil {
		t.Fatal(err)
	}
	acc := s.Pool().Accesses()
	if ok, err := bt.Delete(key, n-1); !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if got := s.Pool().Accesses() - acc; got > uint64(h+1) {
		t.Fatalf("a delete touched %d pages; the tree is %d levels high, plus the anchor", got, h)
	}
	if got, err := bt.Len(); err != nil || got != n-1 {
		t.Fatalf("Len = %d, %v", got, err)
	}
}

// TestBTreeInPlaceWritesAllocateNothing: an insert and a delete that stay
// within one resident leaf edit its bytes and allocate nothing.
func TestBTreeInPlaceWritesAllocateNothing(t *testing.T) {
	s := memStore(t)
	bt, err := CreateBTree(s.Pool())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := bt.Insert(intKey(2*i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	key := intKey(1001)
	allocs := testing.AllocsPerRun(200, func() {
		if err := bt.Insert(key, 7); err != nil {
			t.Fatal(err)
		}
		if ok, err := bt.Delete(key, 7); !ok || err != nil {
			t.Fatalf("Delete = %v, %v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("an insert+delete pair allocates %.1f times, want 0", allocs)
	}
	if n, err := bt.Len(); err != nil || n != 2000 {
		t.Fatalf("Len = %d, %v", n, err)
	}

	// A splitting insert allocates what Pool.Alloc does for the new page
	// and nothing more. Pairs in order under one key append, so each run
	// of a leaf's worth of inserts splits the full rightmost leaf once.
	sp, err := CreateBTree(s.Pool())
	if err != nil {
		t.Fatal(err)
	}
	key, val := []byte("k"), uint64(0)
	fill := func() {
		for range (PageSize - nodeHdr) / (2 + len(key) + 8) {
			if err := sp.Insert(key, val); err != nil {
				t.Fatal(err)
			}
			val++
		}
	}
	fill()
	pages := testing.AllocsPerRun(100, func() {
		f, err := s.Pool().Alloc()
		if err != nil {
			t.Fatal(err)
		}
		s.Pool().Unpin(f, true)
	})
	if splits := testing.AllocsPerRun(100, fill); splits > pages {
		t.Fatalf("a splitting insert allocates %.1f times, Pool.Alloc %.1f", splits, pages)
	}
	if h, err := sp.height(); err != nil || h != 2 {
		t.Fatalf("the split tree has %d levels (%v), want 2", h, err)
	}
}

// TestBTreeSplitPointsUnchanged pins the shape a fixed insert sequence
// builds, read off the page bytes alone. The random row's numbers are
// those of the decoding implementation this one replaced, so a split
// that does not append cuts where it always did. The ascending row's
// splits append, each leaving a full leaf behind it.
func TestBTreeSplitPointsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name           string
		key            func(rng *rand.Rand, i int) string
		levels, leaves int
		sum            uint32
	}{
		{"random", func(rng *rand.Rand, _ int) string {
			return fmt.Sprintf("%d-%s", rng.Intn(3000), strings.Repeat("x", rng.Intn(60)))
		}, 3, 304, 0x9f192f99},
		{"ascending", func(rng *rand.Rand, i int) string {
			return fmt.Sprintf("%05d-%s", i, strings.Repeat("x", rng.Intn(60)))
		}, 3, 225, 0x67dd3342},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := memStore(t)
			bt, err := CreateBTree(s.Pool())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(27))
			for i := 0; i < 20000; i++ {
				if err := bt.Insert([]byte(tc.key(rng, i)), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			page := func(id PageID) []byte {
				f, err := s.Pool().Get(id)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Pool().Unpin(f, false)
				return bytes.Clone(f.Data)
			}
			id := PageID(binary.LittleEndian.Uint32(page(bt.Anchor())[0:4]))
			levels := 1
			for d := page(id); d[0] != 1; d = page(id) {
				id = PageID(binary.LittleEndian.Uint32(d[7:11]))
				levels++
			}
			var counts []byte
			leaves, total := 0, 0
			for ; id != invalidPage; leaves++ {
				d := page(id)
				counts = append(counts, d[1:3]...)
				total += int(binary.LittleEndian.Uint16(d[1:3]))
				id = PageID(binary.LittleEndian.Uint32(d[3:7]))
			}
			sum := crc32.ChecksumIEEE(counts)
			if levels != tc.levels || leaves != tc.leaves || total != 20000 || sum != tc.sum {
				t.Fatalf("%d levels, %d leaves, %d entries, per-leaf counts crc %#x; want %d, %d, 20000, %#x",
					levels, leaves, total, sum, tc.levels, tc.leaves, tc.sum)
			}
		})
	}
}

// TestBTreeMalformedNodeIsAnError: a node whose count, key length or
// payload runs past its page is reported by Check, Range, Insert, Delete
// and Probe, never a panic.
func TestBTreeMalformedNodeIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(root, leaf node)
		key     []byte // routed through the damage
	}{
		{"count overflow", func(_, leaf node) { leaf.setCount(0xFFFF) }, []byte{0}},
		{"key length overflow", func(_, leaf node) { binary.LittleEndian.PutUint16(leaf[nodeHdr:], 0xFFFF) }, []byte{0}},
		{"truncated internal node", func(root, _ node) {
			// The last separator's key ends two bytes short of the page,
			// so its value and child run past it.
			at := root.first()
			for i := 1; i < root.count(); i++ {
				_, at, _ = root.entry(at)
			}
			binary.LittleEndian.PutUint16(root[at:], uint16(PageSize-at-4))
		}, []byte{0xFF}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := memStore(t)
			bt, err := CreateBTree(s.Pool())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				if err := bt.Insert(intKey(i), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			rootID, err := bt.rootID()
			if err != nil {
				t.Fatal(err)
			}
			rf, err := s.Pool().GetX(rootID)
			if err != nil {
				t.Fatal(err)
			}
			lf, err := s.Pool().GetX(node(rf.Data).child0())
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(node(rf.Data), node(lf.Data))
			s.Pool().Unpin(lf, true)
			s.Pool().Unpin(rf, true)

			if err := bt.Check(); err == nil || !strings.Contains(err.Error(), "node") {
				t.Errorf("Check = %v", err)
			}
			if err := bt.Range(tc.key, nil, func([]byte, uint64) bool { return true }); err == nil {
				t.Error("Range read through a malformed node")
			}
			if err := bt.Insert(tc.key, 1); err == nil {
				t.Error("Insert wrote through a malformed node")
			}
			if _, err := bt.Delete(tc.key, 1); err == nil {
				t.Error("Delete read through a malformed node")
			}
			if err := bt.Probe([][]byte{tc.key}, func(int, uint64) {}); err == nil {
				t.Error("Probe read through a malformed node")
			}
		})
	}
}

// FuzzBTreeOps decodes its input, four bytes an operation, into inserts
// of pairs not yet present, one at a time or as a batch, deletes and
// probes, checked against the model and per-key Ranges, then checks the
// whole tree.
func FuzzBTreeOps(f *testing.F) {
	f.Add([]byte{0, 255, 'a', 0, 1, 255, 'a', 1, 2, 255, 'b', 0, 3, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 200, 7, 1}, 64))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 250, 6, 7, 3, 9, 10, 11}, 80))
	var seq []byte
	for i := 0; i < 300; i++ {
		seq = append(seq, byte(i%4), byte(i*37), byte(i%5), byte(i/3))
	}
	f.Add(seq)
	seq = nil
	for i := 0; i < 400; i++ {
		seq = append(seq, byte(i%8), byte(i*13), byte(i%7), byte(i/5))
	}
	f.Add(seq)
	// A run in ascending pair order, which appends, then one in descending
	// order between its pairs.
	seq = nil
	for i := 0; i < 256; i++ {
		seq = append(seq, 0, byte(i), 5, 0)
	}
	for i := 255; i >= 0; i-- {
		seq = append(seq, 0, byte(i), 5, 1)
	}
	f.Add(seq)
	// Batches, some of them in order and some not.
	seq = nil
	for i := 0; i < 64; i++ {
		seq = append(seq, 6, byte(i*16), byte(i%3), byte(15+16*(i%16)))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*3000 {
			data = data[:4*3000]
		}
		s := memStore(t)
		bt, err := CreateBTree(s.Pool())
		if err != nil {
			t.Fatal(err)
		}
		var m btModel
		for ; len(data) >= 4; data = data[4:] {
			op, a, b, c := data[0], data[1], data[2], data[3]
			if op%8 == 7 && len(m) > 0 {
				// Probe 1 to 8 keys held from the model's (a, b)th pair on,
				// c apart, and one key of even length, which no insert makes.
				keys := [][]byte{bytes.Repeat([]byte{b % 8}, 2+int(a)%64)}
				for i, at := 0, int(a)<<8|int(b); i <= int(c%8); i++ {
					keys = append(keys, m[(at+i*(1+int(c)/8))%len(m)].Key)
				}
				checkProbe(t, bt, keys)
				continue
			}
			if op%8 == 6 {
				// Up to 16 pairs through InsertBatch, their key lengths from
				// a's on, an odd step apart, so that they wrap out of order.
				var batch []Pair
				for i := 0; i <= int(c%16); i++ {
					key := bytes.Repeat([]byte{b % 8}, 1+2*((int(a)+i*(1+2*int(c/16)))%256))
					var added bool
					if m, added = m.insert(key, uint64(c%4)); added {
						batch = append(batch, Pair{key, uint64(c % 4)})
					}
				}
				if err := bt.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if op%4 != 3 || len(m) == 0 {
				key, val := bytes.Repeat([]byte{b % 8}, 1+int(a)*2), uint64(c%4)
				var added bool
				if m, added = m.insert(key, val); !added {
					continue
				}
				if err := bt.Insert(key, val); err != nil {
					t.Fatal(err)
				}
				continue
			}
			p := m[(int(a)<<8|int(b))%len(m)]
			if c%4 == 0 { // absent
				p.Val += 4
			}
			ok, err := bt.Delete(p.Key, p.Val)
			if err != nil {
				t.Fatal(err)
			}
			var want bool
			if m, want = m.delete(p.Key, p.Val); ok != want {
				t.Fatalf("Delete(%d-byte key, %d) = %v, model says %v", len(p.Key), p.Val, ok, want)
			}
		}
		verifyModel(t, bt, m)
	})
}
