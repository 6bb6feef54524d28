package store

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// IOStats counts page traffic through the buffer pool. The paper's
// Wisconsin table reports buffer accesses and page read/write frequencies
// (Table 2b); these counters regenerate that data. IOStats is a view: the
// authoritative counters live in the store's obs.Registry.
type IOStats struct {
	// Accesses counts every pin (buffer accesses).
	Accesses uint64
	// Hits counts pins served from the pool.
	Hits uint64
	// Reads counts pages read from the pager.
	Reads uint64
	// Writes counts pages written to the pager.
	Writes uint64
	// Evictions counts frames recycled.
	Evictions uint64
	// LatchWaits counts pins that blocked on a frame latch (pool-wide;
	// not attributed to tallies — contention has no single owner).
	LatchWaits uint64
	// LatchWaitNS is the total time spent blocked on frame latches.
	LatchWaitNS uint64
}

// poolMetrics bundles the registry handles the pool updates. All handles
// are resolved once at pool construction; updates are lock-free atomics.
type poolMetrics struct {
	accesses    *obs.Counter
	hits        *obs.Counter
	reads       *obs.Counter
	writes      *obs.Counter
	evictions   *obs.Counter
	readNS      *obs.Histogram // page read latency
	writeNS     *obs.Histogram // page write latency
	evictNS     *obs.Histogram // eviction latency (incl. dirty write-back)
	latchWaits  *obs.Counter   // pins that blocked on a frame latch
	latchWaitNS *obs.Histogram // time blocked on frame latches
}

func newPoolMetrics(reg *obs.Registry) poolMetrics {
	m := poolMetrics{
		accesses:    reg.Counter("store.pool.accesses"),
		hits:        reg.Counter("store.pool.hits"),
		reads:       reg.Counter("store.pool.reads"),
		writes:      reg.Counter("store.pool.writes"),
		evictions:   reg.Counter("store.pool.evictions"),
		readNS:      reg.Histogram("store.page_read_ns"),
		writeNS:     reg.Histogram("store.page_write_ns"),
		evictNS:     reg.Histogram("store.evict_ns"),
		latchWaits:  reg.Counter("buffer_pool.latch_waits"),
		latchWaitNS: reg.Histogram("buffer_pool.latch_wait_ns"),
	}
	reg.RegisterFunc("store.pool.hit_ratio", func() any {
		return obs.Ratio(m.hits.Value(), m.accesses.Value())
	})
	return m
}

// LatchMode selects the frame latch a Pin takes: shared for reads,
// exclusive for mutation (and for write-back/eviction inside the pool).
type LatchMode int

const (
	// LatchShared admits any number of concurrent readers of Frame.Data.
	LatchShared LatchMode = iota
	// LatchExclusive admits one writer; required to modify Frame.Data,
	// call MarkDirty, or Unpin with dirty=true.
	LatchExclusive
)

// Frame is a pinned page in the buffer pool. Callers must Unpin it.
// While pinned the frame holds its latch in the mode requested at Pin
// time: Data may be read under either mode but written only under
// LatchExclusive. Data is valid only while the frame is pinned: once
// unpinned the frame may be evicted, its buffer handed to another page
// and Data set to nil, so bytes needed later must be copied out first.
type Frame struct {
	id   PageID
	Data []byte

	// latch orders access to Data. It is acquired by Pin after the shard
	// mutex is released. Unpin drops the pin under the shard mutex while
	// still holding the latch (so misuse panics instead of corrupting the
	// latch) — safe against makeRoom's shard mutex -> victim latch order
	// because a frame with a live pin is off the LRU and never a victim.
	latch sync.RWMutex
	// wlatched is true while the exclusive holder owns the latch. Only
	// that goroutine writes it, and shared holders are excluded by the
	// RWMutex while it is true, so access is race-free.
	wlatched bool

	// dirty is touched under the shard mutex (eviction), the exclusive
	// latch (MarkDirty, dirty Unpin) and the shared latch (FlushAll
	// clearing after write-back), so it is atomic.
	dirty atomic.Bool

	pins int // guarded by the owning shard's mutex
	// prev and next link an unpinned frame into its shard's LRU chain
	// (nil while pinned); guarded by the owning shard's mutex.
	prev, next *Frame
}

// ID returns the page this frame holds.
func (f *Frame) ID() PageID { return f.id }

// MarkDirty records that Data was modified; the page is written back on
// eviction or flush. The caller must hold the frame exclusively.
func (f *Frame) MarkDirty() {
	if !f.wlatched {
		panic("store: MarkDirty without exclusive latch")
	}
	f.dirty.Store(true)
}

// Tally accumulates the share of pool traffic attributed to one client —
// typically one session — over its Attach/Detach windows. A window
// records the pool's own totals when it opens and adds their growth when
// it closes, so counts are exact when the client is the only one using
// the pool during its windows; when several sessions overlap in time,
// every access made while a window is open is charged to it (an honest
// over-approximation: the pool has no way to tell whose retrieval faulted
// a page both were about to touch). Windows of one tally nest and count
// once. Attach and Detach belong to the tally's owner, one goroutine at a
// time; Stats and Reset may run concurrently with them.
type Tally struct {
	accesses  atomic.Uint64
	hits      atomic.Uint64
	reads     atomic.Uint64
	writes    atomic.Uint64
	evictions atomic.Uint64

	depth int     // open windows
	base  IOStats // pool totals when the outermost window opened
}

// Stats returns a snapshot of the attributed counters (closed windows).
func (t *Tally) Stats() IOStats {
	return IOStats{
		Accesses:  t.accesses.Load(),
		Hits:      t.hits.Load(),
		Reads:     t.reads.Load(),
		Writes:    t.writes.Load(),
		Evictions: t.evictions.Load(),
	}
}

// Reset zeroes the attributed counters.
func (t *Tally) Reset() {
	t.accesses.Store(0)
	t.hits.Store(0)
	t.reads.Store(0)
	t.writes.Store(0)
	t.evictions.Store(0)
}

// grown is now-base, or zero when a ResetStats inside the window took the
// pool's total below where the window started.
func grown(now, base uint64) uint64 {
	if now < base {
		return 0
	}
	return now - base
}

// poolShard is one independently locked slice of the pool: its own page
// map, LRU chain (unpinned frames linked through Frame.prev/next around
// the sentinel lru; lru.next = most recently used), capacity share, and
// hit/eviction counters. Pages are assigned to shards by a
// multiplicative hash of the page ID, so unrelated pages contend on
// different mutexes and an eviction in one shard never blocks a hit in
// another.
type poolShard struct {
	mu       sync.Mutex
	capacity int
	frames   map[PageID]*Frame
	lru      Frame

	accesses  *obs.Counter
	hits      *obs.Counter
	evictions *obs.Counter
}

// Pool is an LRU buffer pool, hash-sharded for concurrent use: pins on
// different shards proceed in parallel, and concurrent readers of the
// same page share its frame latch.
type Pool struct {
	pager      Pager
	capacity   int
	shards     []*poolShard
	shardShift uint // top log2(len(shards)) bits of the hashed page ID
	met        poolMetrics
}

// minShardPages is the smallest per-shard capacity worth having: below
// this, hash skew would cause spurious evictions, so small pools get
// fewer shards (a capacity-8 pool is a single shard and behaves exactly
// like the unsharded pool).
const minShardPages = 8

// maxPoolShards caps the shard count; past ~number-of-cores shards the
// extra mutexes buy nothing.
const maxPoolShards = 16

func shardCountFor(capacity int) int {
	n := 1
	for n < maxPoolShards && capacity/(n*2) >= minShardPages {
		n *= 2
	}
	return n
}

// NewPool returns a buffer pool of the given capacity (in pages) over the
// pager, reporting into a private metrics registry. Capacity below 8 is
// raised to 8.
func NewPool(pager Pager, capacity int) *Pool {
	return NewPoolObs(pager, capacity, obs.NewRegistry())
}

// NewPoolObs returns a buffer pool reporting into reg (one registry per
// knowledge base; the pool contributes the store.* and buffer_pool.*
// metrics). Capacity is split evenly across the shards, rounding up, so
// the effective capacity can exceed the request by up to shards-1 pages.
func NewPoolObs(pager Pager, capacity int, reg *obs.Registry) *Pool {
	if capacity < 8 {
		capacity = 8
	}
	n := shardCountFor(capacity)
	p := &Pool{
		pager:      pager,
		capacity:   capacity,
		shards:     make([]*poolShard, n),
		shardShift: uint(32 - bits.TrailingZeros32(uint32(n))),
		met:        newPoolMetrics(reg),
	}
	per := (capacity + n - 1) / n
	for i := range p.shards {
		sh := &poolShard{
			capacity:  per,
			frames:    map[PageID]*Frame{},
			accesses:  reg.Counter(fmt.Sprintf("buffer_pool.shard%d.accesses", i)),
			hits:      reg.Counter(fmt.Sprintf("buffer_pool.shard%d.hits", i)),
			evictions: reg.Counter(fmt.Sprintf("buffer_pool.shard%d.evictions", i)),
		}
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		reg.RegisterFunc(fmt.Sprintf("buffer_pool.shard%d.hit_ratio", i), func() any {
			return obs.Ratio(sh.hits.Value(), sh.accesses.Value())
		})
		p.shards[i] = sh
	}
	reg.Gauge("buffer_pool.shards").Set(int64(n))
	return p
}

// pushFront links the unpinned frame f in as the shard's most recently
// used (shard mutex held).
func (sh *poolShard) pushFront(f *Frame) {
	f.prev, f.next = &sh.lru, sh.lru.next
	f.prev.next, f.next.prev = f, f
}

// unlink takes f off the LRU chain if it is on it (shard mutex held).
func (sh *poolShard) unlink(f *Frame) {
	if f.next != nil {
		f.prev.next, f.next.prev = f.next, f.prev
		f.prev, f.next = nil, nil
	}
}

// shardOf maps a page ID to its shard by multiplicative (Fibonacci)
// hashing: sequential page IDs — the common allocation pattern — spread
// across shards instead of clustering.
func (p *Pool) shardOf(id PageID) *poolShard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	return p.shards[(uint32(id)*2654435761)>>p.shardShift]
}

// Shards returns the number of shards (diagnostics).
func (p *Pool) Shards() int { return len(p.shards) }

// Attach opens a window on t: pool traffic from now until the matching
// Detach is charged to it. Attach/Detach pairs nest.
func (p *Pool) Attach(t *Tally) {
	if t == nil {
		return
	}
	if t.depth == 0 {
		t.base = p.traffic()
	}
	t.depth++
}

// Detach closes one nesting level of t's window; the outermost one adds
// the pool's growth since Attach to t.
func (p *Pool) Detach(t *Tally) {
	if t == nil {
		return
	}
	if t.depth--; t.depth > 0 {
		return
	}
	now := p.traffic()
	t.accesses.Add(grown(now.Accesses, t.base.Accesses))
	t.hits.Add(grown(now.Hits, t.base.Hits))
	t.reads.Add(grown(now.Reads, t.base.Reads))
	t.writes.Add(grown(now.Writes, t.base.Writes))
	t.evictions.Add(grown(now.Evictions, t.base.Evictions))
}

// Pager exposes the underlying pager.
func (p *Pool) Pager() Pager { return p.pager }

// Stats returns a snapshot of the I/O counters — a view over the
// registry-backed metrics, which are the single source of truth.
func (p *Pool) Stats() IOStats {
	st := p.traffic()
	st.LatchWaits = p.met.latchWaits.Value()
	st.LatchWaitNS = p.met.latchWaitNS.Snapshot().SumNS
	return st
}

// traffic reads the five page-traffic totals a Tally window is the
// difference of.
func (p *Pool) traffic() IOStats {
	return IOStats{
		Accesses:  p.met.accesses.Value(),
		Hits:      p.met.hits.Value(),
		Reads:     p.met.reads.Value(),
		Writes:    p.met.writes.Value(),
		Evictions: p.met.evictions.Value(),
	}
}

// Accesses returns the pool's running buffer-access total; the growth
// across a retrieval is its page cost.
func (p *Pool) Accesses() uint64 { return p.met.accesses.Value() }

// ResetStats zeroes the pool's registry counters. This resets shared
// state visible to every session of the knowledge base; sessions wanting
// a private baseline should use a Tally instead.
func (p *Pool) ResetStats() {
	p.met.accesses.Reset()
	p.met.hits.Reset()
	p.met.reads.Reset()
	p.met.writes.Reset()
	p.met.evictions.Reset()
	p.met.readNS.Reset()
	p.met.writeNS.Reset()
	p.met.evictNS.Reset()
	p.met.latchWaits.Reset()
	p.met.latchWaitNS.Reset()
	for _, sh := range p.shards {
		sh.accesses.Reset()
		sh.hits.Reset()
		sh.evictions.Reset()
	}
}

// latchFrame acquires the frame latch in the requested mode, recording
// blocked time. The fast path is a single try-lock; only contended pins
// pay for a clock read.
func (p *Pool) latchFrame(f *Frame, mode LatchMode) {
	if mode == LatchExclusive {
		if !f.latch.TryLock() {
			t0 := time.Now()
			f.latch.Lock()
			p.met.latchWaits.Inc()
			p.met.latchWaitNS.Observe(time.Since(t0))
		}
		f.wlatched = true
		return
	}
	if !f.latch.TryRLock() {
		t0 := time.Now()
		f.latch.RLock()
		p.met.latchWaits.Inc()
		p.met.latchWaitNS.Observe(time.Since(t0))
	}
}

// Pin fixes page id in the pool, reading it from the pager if absent,
// and returns its frame latched in the requested mode. Every Pin must be
// matched by an Unpin, and the frame's Data may be used only until then.
// Lock order: the shard mutex is released before the frame latch is
// taken, so a pin never blocks its whole shard while waiting for a
// writer to finish with one page.
func (p *Pool) Pin(id PageID, mode LatchMode) (*Frame, error) {
	sh := p.shardOf(id)
	sh.mu.Lock()
	p.met.accesses.Inc()
	sh.accesses.Inc()
	if f, ok := sh.frames[id]; ok {
		p.met.hits.Inc()
		sh.hits.Inc()
		sh.unlink(f)
		f.pins++
		sh.mu.Unlock()
		p.latchFrame(f, mode)
		return f, nil
	}
	// Miss: make room, then read the page — into the evicted frame's
	// buffer — before publishing the frame so no other pin can observe a
	// partially loaded page. Misses serialize per shard — unrelated shards
	// keep streaming hits meanwhile.
	buf, err := p.makeRoom(sh)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	f := &Frame{id: id, Data: buf}
	p.met.reads.Inc()
	t0 := time.Now()
	if err := p.pager.ReadPage(id, f.Data); err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	p.met.readNS.Observe(time.Since(t0))
	f.pins = 1
	sh.frames[id] = f
	sh.mu.Unlock()
	p.latchFrame(f, mode)
	return f, nil
}

// Get pins page id for reading (shared latch). Kept as the common-case
// entry point; mutators use GetX.
func (p *Pool) Get(id PageID) (*Frame, error) { return p.Pin(id, LatchShared) }

// GetX pins page id for writing (exclusive latch).
func (p *Pool) GetX(id PageID) (*Frame, error) { return p.Pin(id, LatchExclusive) }

// Alloc allocates a fresh page and returns it pinned exclusively
// (zeroed, dirty).
func (p *Pool) Alloc() (*Frame, error) {
	id, err := p.pager.Allocate()
	if err != nil {
		return nil, err
	}
	sh := p.shardOf(id)
	sh.mu.Lock()
	p.met.accesses.Inc()
	sh.accesses.Inc()
	buf, err := p.makeRoom(sh)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	clear(buf) // a recycled buffer still holds the victim's page
	f := &Frame{id: id, Data: buf}
	f.pins = 1
	f.dirty.Store(true)
	sh.frames[id] = f
	sh.mu.Unlock()
	p.latchFrame(f, LatchExclusive)
	return f, nil
}

// makeRoom evicts until the shard has a free slot (shard mutex held) and
// returns a page buffer for it: the last victim's, whose frame is left
// with nil Data so a use after unpin panics instead of reading another
// page, or a fresh one when nothing was evicted. A recycled buffer still
// holds the victim's bytes. The victim is unpinned and new pins on this
// shard are excluded by the mutex, so its exclusive latch is either free
// or held only by an Unpin in its final latch-release step (Unpin drops
// the pin before the latch); the acquisition here waits at most that
// instant and cannot deadlock — the latch holder needs no locks to
// finish. Taking the exclusive latch keeps the WAL/checksum invariant:
// pages reach the pager only through an exclusively latched frame with
// stable bytes.
func (p *Pool) makeRoom(sh *poolShard) ([]byte, error) {
	var buf []byte
	for len(sh.frames) >= sh.capacity {
		victim := sh.lru.prev
		if victim == &sh.lru {
			return nil, fmt.Errorf("store: buffer pool exhausted (%d pages, all pinned)", p.capacity)
		}
		t0 := time.Now()
		victim.latch.Lock()
		if victim.dirty.Load() {
			p.met.writes.Inc()
			tw := time.Now()
			if err := p.pager.WritePage(victim.id, victim.Data); err != nil {
				// Leave the victim at the LRU tail still dirty: the pool
				// stays consistent, the page's data is preserved, and a
				// later eviction or FlushAll retries the write.
				victim.latch.Unlock()
				return nil, err
			}
			p.met.writeNS.Observe(time.Since(tw))
			victim.dirty.Store(false)
		}
		buf, victim.Data = victim.Data, nil
		victim.latch.Unlock()
		sh.unlink(victim)
		delete(sh.frames, victim.id)
		p.met.evictions.Inc()
		sh.evictions.Inc()
		p.met.evictNS.Observe(time.Since(t0))
	}
	if buf == nil {
		buf = make([]byte, PageSize)
	}
	return buf, nil
}

// Unpin releases a pin and its latch; dirty marks the page modified and
// requires the frame to be held exclusively. After Unpin the caller must
// not touch f.Data: once no pin is left the frame may be evicted and its
// buffer reused for another page at any moment. The pin count is checked
// and dropped under the shard mutex BEFORE the latch is released, so a
// double Unpin dies on the deliberate "unpin without pin" panic instead
// of the runtime's unrecoverable unlock-of-unlocked-RWMutex throw.
// Taking the shard mutex while holding the latch cannot deadlock against
// makeRoom's reverse order (shard mutex -> victim latch): a frame being
// unpinned still has pins > 0, is therefore off the LRU, and can never
// be makeRoom's victim.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	if dirty {
		if !f.wlatched {
			panic("store: dirty unpin without exclusive latch")
		}
		f.dirty.Store(true)
	}
	sh := p.shardOf(f.id)
	sh.mu.Lock()
	if f.pins <= 0 {
		sh.mu.Unlock()
		panic("store: unpin without pin")
	}
	f.pins--
	if f.pins == 0 {
		sh.pushFront(f)
	}
	sh.mu.Unlock()
	if f.wlatched {
		f.wlatched = false
		f.latch.Unlock()
	} else {
		f.latch.RUnlock()
	}
}

// Invalidate drops every frame from the pool without writing anything
// back. It is the cache half of a transaction rollback: the pager has
// restored its pre-transaction images, so any frame — clean or dirty —
// may hold rolled-back bytes and must be re-read from the pager on next
// use. The caller must guarantee no frame is pinned (the transaction
// owner holds the knowledge base exclusively and storage structures
// unpin before returning); a live pin panics like the pool's other
// protocol violations.
func (p *Pool) Invalidate() {
	for _, sh := range p.shards {
		sh.mu.Lock()
		for id, f := range sh.frames {
			if f.pins > 0 {
				sh.mu.Unlock()
				panic(fmt.Sprintf("store: invalidating pinned page %d", id))
			}
			sh.unlink(f)
			delete(sh.frames, id)
		}
		sh.mu.Unlock()
	}
}

// Free drops the page from the pool and returns it to the pager free list.
// The page must be unpinned.
func (p *Pool) Free(id PageID) error {
	sh := p.shardOf(id)
	sh.mu.Lock()
	if f, ok := sh.frames[id]; ok {
		if f.pins > 0 {
			sh.mu.Unlock()
			return fmt.Errorf("store: freeing pinned page %d", id)
		}
		sh.unlink(f)
		delete(sh.frames, id)
	}
	sh.mu.Unlock()
	return p.pager.Free(id)
}

// FlushAll writes every dirty frame back to the pager. Frames are pinned
// under the shard mutex, then written under their shared latch with the
// mutex released — FlushAll never holds a shard mutex while waiting for
// a frame latch, so it cannot deadlock against writers that hold a latch
// while allocating (heap overflow chains do exactly that).
func (p *Pool) FlushAll() error {
	var firstErr error
	for _, sh := range p.shards {
		sh.mu.Lock()
		var pinned []*Frame
		for _, f := range sh.frames {
			if f.dirty.Load() {
				sh.unlink(f)
				f.pins++
				pinned = append(pinned, f)
			}
		}
		sh.mu.Unlock()
		for _, f := range pinned {
			if firstErr == nil {
				// Shared latch: write-back needs stable bytes, not
				// exclusivity; concurrent readers may keep streaming.
				f.latch.RLock()
				if f.dirty.Load() {
					p.met.writes.Inc()
					tw := time.Now()
					if err := p.pager.WritePage(f.id, f.Data); err != nil {
						firstErr = err
					} else {
						p.met.writeNS.Observe(time.Since(tw))
						f.dirty.Store(false)
					}
				}
				f.latch.RUnlock()
			}
			sh.mu.Lock()
			f.pins--
			if f.pins == 0 {
				sh.pushFront(f)
			}
			sh.mu.Unlock()
		}
		if firstErr != nil {
			return firstErr
		}
	}
	return p.pager.Sync()
}
