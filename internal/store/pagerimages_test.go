package store

// The pager keeps the page images it retires (a superseded tail image,
// a folded one, a rolled-back one) in a bounded free list and fills the
// next stash and header from it, so a steady-state commit allocates the
// same small number of times whatever its page count. These tests pin
// that count, the header's one encoding per state, and that nothing the
// pager holds grows with the number of commits.

import (
	"bytes"
	"runtime"
	"testing"
)

// TestHeaderImageIsDeterministic encodes one header state 20 times: the
// meta table must come out in one order, so the images are equal byte
// for byte even when the buffer they are encoded into held another page.
func TestHeaderImageIsDeterministic(t *testing.T) {
	p, err := openFilePager(memFS{}, "kb", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"rel.catalog", "edb.facts", "edb.rules", "edb.index", "a", "zz"} {
		if err := p.metaSet(name, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	first, err := p.encodeHeaderPage(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		img, err := p.encodeHeaderPage(42)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, first) {
			t.Fatalf("encoding %d of one header state differs from the first", i+2)
		}
		// The next encoding takes this image back with stale bytes in it.
		for j := range img {
			img[j] = 0xFF
		}
		p.recycle(img)
	}
}

// TestCommitReusesPageImages counts the allocations of a steady-state
// commit of 1 and of 32 dirty pages, each with and without a checkpoint
// after it: a commit takes its page and header images from the spare
// list, and a checkpoint writes its frames through the pager's scratch
// frame, so the page count changes nothing.
func TestCommitReusesPageImages(t *testing.T) {
	const pages, runs = 32, 50
	// The log limit is out of reach: only the test checkpoints.
	p, err := openFilePager(memFS{}, "kb", Options{CheckpointBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, PageSize)
	commit := func(n int) {
		for id := PageID(1); id <= PageID(n); id++ {
			buf[0]++
			if err := p.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		if err := p.checkpointLocked(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: grow the log file past what the measured commits write
	// and the page file to every frame, then rewind the log, so neither
	// in-memory file grows (and allocates) while allocations are counted.
	for i := 0; i < 2*(runs+1); i++ {
		commit(pages)
	}
	checkpoint()
	commitOnly := map[int]float64{}
	withCheckpoint := map[int]float64{}
	for _, n := range []int{1, pages} {
		commitOnly[n] = testing.AllocsPerRun(runs, func() { commit(n) })
		withCheckpoint[n] = testing.AllocsPerRun(runs, func() { commit(n); checkpoint() })
	}
	t.Logf("allocations per commit %v, per commit and checkpoint %v", commitOnly, withCheckpoint)
	if commitOnly[1] != commitOnly[pages] {
		t.Errorf("a commit of 1 page allocates %v times, of %d pages %v times", commitOnly[1], pages, commitOnly[pages])
	}
	if withCheckpoint[1] != withCheckpoint[pages] {
		t.Errorf("a commit and checkpoint of 1 page allocates %v times, of %d pages %v times", withCheckpoint[1], pages, withCheckpoint[pages])
	}
}

// growthRow is one row of TestGrowthAfterRounds: start builds the
// system and returns one round of work and the sizes of what it holds.
type growthRow struct {
	name  string
	start func(t *testing.T) (round func(), sizes func() map[string]int)
}

// heapSlack is how far the Go heap after GC may differ between two
// measurements with nothing retained: the runtime's and the testing
// package's own bookkeeping. It is a tenth of one round's images below.
const heapSlack = 64 << 10

// TestGrowthAfterRounds runs each row's round once and then many times:
// every size it reports, and the Go heap after GC, must be no larger
// after the many rounds than after the one.
func TestGrowthAfterRounds(t *testing.T) {
	rows := []growthRow{
		{"pager images", pagerGrowthRow},
	}
	const rounds = 200
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			round, sizes := row.start(t)
			round()
			one := sizes()
			oneHeap := heapAfterGC()
			for i := 1; i < rounds; i++ {
				round()
			}
			many := sizes()
			manyHeap := heapAfterGC()
			for name, n := range many {
				if n > one[name] {
					t.Errorf("%s: %d after %d rounds, %d after one", name, n, rounds, one[name])
				}
			}
			if manyHeap > oneHeap+heapSlack {
				t.Errorf("Go heap after GC: %d bytes after %d rounds, %d after one", manyHeap, rounds, oneHeap)
			}
		})
	}
}

func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// pagerGrowthRow: a round writes 160 pages (640 KiB), commits and
// checkpoints.
func pagerGrowthRow(t *testing.T) (func(), func() map[string]int) {
	const pages = 160
	p, err := openFilePager(memFS{}, "kb", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, PageSize)
	round := func() {
		for id := PageID(1); id <= pages; id++ {
			buf[0]++
			if err := p.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if err := p.checkpointLocked(); err != nil {
			t.Fatal(err)
		}
	}
	sizes := func() map[string]int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return map[string]int{"spare": len(p.spare), "tail": len(p.tail), "pending": len(p.pending)}
	}
	return round, sizes
}
