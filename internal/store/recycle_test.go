package store

// A buffer-pool miss reads into the buffer of the frame it evicts, so a
// byte slice kept past Unpin would silently start reading another page.
// This test holds the storage structures to their copy-out contract over
// a file pager and the minimum 8-page pool, where nearly every pin
// recycles a buffer: values collected from pages must survive the
// evictions that follow, an evicted frame must lose its Data, a fresh
// page must read as zeros whatever buffer it lands in, and a miss must
// no longer allocate a page.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
)

func TestPoolRecyclesEvictedBuffers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "recycle.db")
	pager, err := openFilePager(OSFS{}, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(pager, 8)
	h, err := CreateHeap(pool)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 200; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i := 0; i < 2; i++ { // overflow records span two chain pages each
		rid, err := h.Insert(bytes.Repeat([]byte{byte(0xF0 + i)}, 6000))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	bt, err := CreateBTree(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := bt.Insert([]byte(fmt.Sprintf("key-%08d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Closing checkpoints everything into the page file, so after the
	// reopen every miss goes through the pager's scratch frame.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := pager.Close(); err != nil {
		t.Fatal(err)
	}
	if pager, err = openFilePager(OSFS{}, path, Options{}); err != nil {
		t.Fatal(err)
	}
	defer pager.Close()
	pool = NewPool(pager, 8)
	h = OpenHeap(pool, h.Root())
	if bt, err = OpenBTree(pool, bt.Anchor()); err != nil {
		t.Fatal(err)
	}

	// Collect values read through pages the pool is about to recycle,
	// each with a clone to compare against once the buffers are reused.
	type kept struct {
		what      string
		got, want []byte
	}
	var all []kept
	keep := func(what string, b []byte) {
		all = append(all, kept{what, b, bytes.Clone(b)})
	}
	for _, rid := range rids {
		rec, err := h.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		keep("Heap.Get "+rid.String(), rec)
	}
	sc := h.Scanner()
	for {
		rid, rec, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		keep("HeapScanner "+rid.String(), rec)
	}
	if err := bt.Range(nil, nil, func(k []byte, _ uint64) bool {
		keep("BTree.Range key", append([]byte(nil), k...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// Walk the root and its leaves in place through the node walker,
	// copying out what it yields; after the evictions below the same walk
	// over recycled buffers must yield the same nodes.
	walk := func() (keys [][]byte, kids []PageID) {
		root, err := bt.rootID()
		if err != nil {
			t.Fatal(err)
		}
		rk, rc := walkNode(t, pool, root)
		for _, child := range rc {
			lk, _ := walkNode(t, pool, child)
			keys = append(keys, lk...)
		}
		return append(keys, rk...), rc
	}
	walkKeys, children := walk()

	// A frame kept past its Unpin loses its Data once evicted.
	stale, err := pool.Get(h.Root())
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(stale, false)

	// Force evictions: rewrite fresh pages (so dirty buffers, full of 0xAA,
	// are recycled too) and stream every structure through the pool.
	before := pool.Stats().Evictions
	for i := 0; i < 32; i++ {
		f, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if !allZero(f.Data) {
			t.Fatalf("Alloc #%d on a recycled buffer does not read as zeros", i)
		}
		for j := range f.Data {
			f.Data[j] = 0xAA
		}
		pool.Unpin(f, true)
	}
	if err := h.Scan(func(RID, []byte) (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	if n, err := bt.Len(); err != nil || n != 2000 {
		t.Fatalf("btree Len = %d, %v", n, err)
	}
	if got := pool.Stats().Evictions - before; got < 32 {
		t.Fatalf("only %d evictions: buffers were not recycled", got)
	}
	for _, k := range all {
		if !bytes.Equal(k.got, k.want) {
			t.Fatalf("%s changed after its page's buffer was recycled", k.what)
		}
	}
	if stale.Data != nil {
		t.Fatal("an evicted frame still has Data")
	}
	again, _ := walk()
	if len(again) != len(walkKeys) {
		t.Fatalf("walker yields %d keys after recycling, %d before", len(again), len(walkKeys))
	}
	for i := range again {
		if !bytes.Equal(again[i], walkKeys[i]) {
			t.Fatalf("walker key %d changed after its page's buffer was recycled", i)
		}
	}

	// Steady-state misses: cycling through more clean pages than the
	// pool holds makes every pin a miss that recycles the LRU victim.
	if len(children) < 9 {
		t.Fatalf("btree root has %d children, want more than the pool's 8 frames", len(children))
	}
	cycle := children[:9]
	touch := func(n int) {
		for i := 0; i < n; i++ {
			f, err := pool.Get(cycle[i%len(cycle)])
			if err != nil {
				t.Fatal(err)
			}
			pool.Unpin(f, false)
		}
	}
	touch(2 * len(cycle))
	const misses = 1000
	reads := pool.Stats().Reads
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	touch(misses)
	runtime.ReadMemStats(&m1)
	if got := pool.Stats().Reads - reads; got != misses {
		t.Fatalf("%d of %d pins missed", got, misses)
	}
	if per := (m1.TotalAlloc - m0.TotalAlloc) / misses; per >= 512 {
		t.Fatalf("a steady-state miss allocates %d bytes, want < 512", per)
	}
}

// walkNode reads node id through the entry walker while it is pinned and
// returns copies of its keys and, for an internal node, its children.
func walkNode(t *testing.T, pool *Pool, id PageID) (keys [][]byte, kids []PageID) {
	t.Helper()
	f, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(f, false)
	n := node(f.Data)
	if !n.leaf() {
		kids = append(kids, n.child0())
	}
	for i, off := 0, n.first(); i < n.count(); i++ {
		p, end, err := n.entry(off)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, bytes.Clone(p.key))
		if !n.leaf() {
			kids = append(kids, n.kid(end))
		}
		off = end
	}
	return keys, kids
}
