package store

// Tests for the sharded pool and the per-frame latch protocol: shard
// sizing, torn-read exclusion (whole-page writes are never observed
// half-done by shared pinners), latch discipline enforcement, and
// FlushAll racing live writers. The concurrency tests are meaningful
// mainly under -race, which CI runs.

import (
	"fmt"
	"sync"
	"testing"
)

func TestShardCountScaling(t *testing.T) {
	cases := []struct{ capacity, shards int }{
		{8, 1},  // minimum pool: single shard, identical to unsharded
		{15, 1}, // below 2x min per-shard capacity: still one shard
		{16, 2},
		{64, 8},
		{512, 16}, // default pool: capped at maxPoolShards
		{4096, 16},
	}
	for _, c := range cases {
		p := NewPool(inMemoryPager(t), c.capacity)
		if got := p.Shards(); got != c.shards {
			t.Errorf("capacity %d: %d shards, want %d", c.capacity, got, c.shards)
		}
	}
}

func TestShardCapacityCoversPool(t *testing.T) {
	// Per-shard capacities must sum to at least the requested capacity.
	for _, capacity := range []int{8, 16, 100, 512} {
		p := NewPool(inMemoryPager(t), capacity)
		total := 0
		for _, sh := range p.shards {
			total += sh.capacity
		}
		if total < capacity {
			t.Errorf("capacity %d: shard capacities sum to %d", capacity, total)
		}
	}
}

// TestNoTornReads races one whole-page writer against many shared
// readers on the same set of pages. The exclusive latch must make every
// page version atomic: a reader may see any version, but never a page
// whose bytes disagree with each other.
func TestNoTornReads(t *testing.T) {
	pool := NewPool(inMemoryPager(t), 64)
	const nPages = 8
	var ids []PageID
	for i := 0; i < nPages; i++ {
		f, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		pool.Unpin(f, true)
	}

	const nReaders = 8
	const rounds = 400
	var wg sync.WaitGroup
	errs := make(chan error, nReaders+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v <= rounds; v++ {
			id := ids[v%nPages]
			f, err := pool.GetX(id)
			if err != nil {
				errs <- err
				return
			}
			for i := range f.Data {
				f.Data[i] = byte(v)
			}
			pool.Unpin(f, true)
		}
	}()

	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := ids[(r+i)%nPages]
				f, err := pool.Get(id)
				if err != nil {
					errs <- err
					return
				}
				first := f.Data[0]
				for j, b := range f.Data {
					if b != first {
						pool.Unpin(f, false)
						errs <- fmt.Errorf("torn read on page %d: byte 0 = %d, byte %d = %d", id, first, j, b)
						return
					}
				}
				pool.Unpin(f, false)
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFlushAllDuringWrites races FlushAll against writers: flush must
// never write a torn page (it holds the shared latch during write-back)
// and must never deadlock against a writer holding a latch while
// allocating.
func TestFlushAllDuringWrites(t *testing.T) {
	pager := inMemoryPager(t)
	pool := NewPool(pager, 32)
	var ids []PageID
	for i := 0; i < 16; i++ {
		f, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID())
		pool.Unpin(f, true)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v <= 200; v++ {
			f, err := pool.GetX(ids[v%len(ids)])
			if err != nil {
				errs <- err
				return
			}
			for i := range f.Data {
				f.Data[i] = byte(v)
			}
			pool.Unpin(f, true)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := pool.FlushAll(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every page on disk must be internally consistent.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for _, id := range ids {
		if err := pager.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		for j, b := range buf {
			if b != buf[0] {
				t.Fatalf("torn page %d on disk: byte 0 = %d, byte %d = %d", id, buf[0], j, b)
			}
		}
	}
}

func TestDirtyUnpinRequiresExclusive(t *testing.T) {
	pool := NewPool(inMemoryPager(t), 8)
	f, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	pool.Unpin(f, true)

	f, err = pool.Get(id) // shared pin
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("dirty Unpin under a shared pin did not panic")
			}
		}()
		pool.Unpin(f, true)
	}()
}

// TestUnpinWithoutPinPanics pins a page once and unpins it twice: the
// second Unpin must die on the deliberate misuse panic, not on the
// runtime's unrecoverable unlock-of-unlocked-RWMutex throw (the pin
// count is checked under the shard mutex before the latch is touched).
func TestUnpinWithoutPinPanics(t *testing.T) {
	pool := NewPool(inMemoryPager(t), 8)
	f, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f, true)
	defer func() {
		r := recover()
		if r == nil {
			t.Error("double Unpin did not panic")
		} else if s, ok := r.(string); !ok || s != "store: unpin without pin" {
			t.Errorf("double Unpin panicked with %v, want the deliberate unpin-without-pin panic", r)
		}
	}()
	pool.Unpin(f, false)
}

func TestMarkDirtyRequiresExclusive(t *testing.T) {
	pool := NewPool(inMemoryPager(t), 8)
	f, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	pool.Unpin(f, true)

	f, err = pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(f, false)
	defer func() {
		if recover() == nil {
			t.Error("MarkDirty under a shared pin did not panic")
		}
	}()
	f.MarkDirty()
}

// TestConcurrentReadersSamePage verifies shared pins on one page are
// admitted concurrently: all readers pin the page, rendezvous while
// holding their pins, and only then unpin. With an exclusive-only latch
// this deadlocks; the test would time out rather than pass.
func TestConcurrentReadersSamePage(t *testing.T) {
	pool := NewPool(inMemoryPager(t), 8)
	f, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	pool.Unpin(f, true)

	const n = 4
	var barrier, done sync.WaitGroup
	barrier.Add(n)
	done.Add(n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			f, err := pool.Get(id)
			if err != nil {
				barrier.Done()
				errs <- err
				return
			}
			barrier.Done()
			barrier.Wait() // all n readers hold the page at once
			pool.Unpin(f, false)
		}()
	}
	done.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTallyWindows pins the window-delta accounting: a tally is charged
// the pool's own growth between Attach and Detach and nothing outside,
// nested windows of one tally count once, a ResetStats inside a window
// does not underflow, and a window costs no allocation.
func TestTallyWindows(t *testing.T) {
	pool := NewPool(inMemoryPager(t), 8)
	f, err := pool.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	pool.Unpin(f, true)
	touch := func(n int) {
		for i := 0; i < n; i++ {
			f, err := pool.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			pool.Unpin(f, false)
		}
	}

	var tally Tally
	touch(3)
	pool.Attach(&tally)
	touch(2)
	pool.Attach(&tally) // the fact resolver re-entering its session's window
	touch(5)
	pool.Detach(&tally)
	touch(1)
	pool.Detach(&tally)
	touch(4)
	if got := tally.Stats(); got.Accesses != 8 || got.Hits != 8 || got.Reads != 0 {
		t.Fatalf("nested window charged %+v, want 8 accesses, 8 hits", got)
	}

	pool.Attach(&tally)
	touch(2)
	pool.ResetStats()
	touch(1)
	pool.Detach(&tally)
	if got := tally.Stats().Accesses; got != 8 {
		t.Fatalf("window across ResetStats left %d accesses, want the 8 from before", got)
	}

	if n := testing.AllocsPerRun(100, func() { pool.Attach(&tally); pool.Detach(&tally) }); n != 0 {
		t.Fatalf("Attach/Detach pair allocates %v times", n)
	}
}
