package store

import (
	"encoding/binary"
	"fmt"
)

// Heap is a file of variable-length records on slotted pages. Records
// larger than inlineMax bytes are stored in a dedicated overflow-page
// chain (compiled clause code blobs can exceed a page).
//
// Page layout:
//
//	[0:4]  next page in the heap chain (0 = end)
//	[4:6]  slot count
//	[6:8]  free-space offset (data grows down from PageSize)
//	[8: ]  slot table, 4 bytes per slot: offset(2), length(2); offset 0
//	       marks a deleted slot
//
// Delete frees a record's slot, not its bytes; an insert that finds too
// little contiguous room on a page holding such dead bytes compacts the
// page first.
//
// Record encoding: flag byte 0 followed by the payload, or flag byte 1
// followed by overflow-head page (4) and total length (4).
type Heap struct {
	pool *Pool
	root PageID
	last PageID // append hint
}

const (
	heapHdr   = 8
	slotSize  = 4
	inlineMax = 2048
)

// CreateHeap allocates an empty heap file and returns it.
func CreateHeap(pool *Pool) (*Heap, error) {
	f, err := pool.Alloc()
	if err != nil {
		return nil, err
	}
	initHeapPage(f.Data)
	id := f.ID()
	pool.Unpin(f, true)
	return &Heap{pool: pool, root: id, last: id}, nil
}

// OpenHeap attaches to an existing heap rooted at root.
func OpenHeap(pool *Pool, root PageID) *Heap {
	return &Heap{pool: pool, root: root, last: root}
}

// Root returns the first page of the heap chain.
func (h *Heap) Root() PageID { return h.root }

// Pool returns the buffer pool the heap reads through, so holders of a
// handle can reopen it (resetting the append hint) after a rollback.
func (h *Heap) Pool() *Pool { return h.pool }

func initHeapPage(d []byte) {
	for i := range d[:heapHdr] {
		d[i] = 0
	}
	binary.LittleEndian.PutUint16(d[6:8], PageSize)
}

func pageNext(d []byte) PageID       { return PageID(binary.LittleEndian.Uint32(d[0:4])) }
func setPageNext(d []byte, n PageID) { binary.LittleEndian.PutUint32(d[0:4], uint32(n)) }
func pageNSlots(d []byte) int        { return int(binary.LittleEndian.Uint16(d[4:6])) }
func setPageNSlots(d []byte, n int)  { binary.LittleEndian.PutUint16(d[4:6], uint16(n)) }
func pageFree(d []byte) int          { return int(binary.LittleEndian.Uint16(d[6:8])) }
func setPageFree(d []byte, n int)    { binary.LittleEndian.PutUint16(d[6:8], uint16(n)) }

func slotAt(d []byte, i int) (off, ln int) {
	b := heapHdr + i*slotSize
	return int(binary.LittleEndian.Uint16(d[b : b+2])), int(binary.LittleEndian.Uint16(d[b+2 : b+4]))
}

func setSlot(d []byte, i, off, ln int) {
	b := heapHdr + i*slotSize
	binary.LittleEndian.PutUint16(d[b:b+2], uint16(off))
	binary.LittleEndian.PutUint16(d[b+2:b+4], uint16(ln))
}

// available reports usable bytes for a new record of any size in the page,
// accounting for a possibly-new slot entry.
func available(d []byte, needNewSlot bool) int {
	used := heapHdr + pageNSlots(d)*slotSize
	if needNewSlot {
		used += slotSize
	}
	return pageFree(d) - used
}

// Insert stores data and returns its RID.
func (h *Heap) Insert(data []byte) (RID, error) {
	var rec []byte
	if len(data) <= inlineMax {
		rec = make([]byte, 1+len(data))
		rec[0] = 0
		copy(rec[1:], data)
	} else {
		head, err := h.writeOverflow(data)
		if err != nil {
			return RID{}, err
		}
		rec = make([]byte, 9)
		rec[0] = 1
		binary.LittleEndian.PutUint32(rec[1:5], uint32(head))
		binary.LittleEndian.PutUint32(rec[5:9], uint32(len(data)))
	}
	return h.insertRec(rec)
}

func (h *Heap) insertRec(rec []byte) (RID, error) {
	// Try the append-hint page first, then extend the chain. Pages are
	// pinned exclusively: even pages only traversed may get their next
	// pointer rewritten when the chain is extended.
	pid := h.last
	for {
		f, err := h.pool.GetX(pid)
		if err != nil {
			return RID{}, err
		}
		// Reuse a deleted slot when possible.
		slot := -1
		n := pageNSlots(f.Data)
		for i := 0; i < n; i++ {
			if off, _ := slotAt(f.Data, i); off == 0 {
				slot = i
				break
			}
		}
		need := len(rec)
		room := available(f.Data, slot < 0)
		if room < need && room+reclaimable(f.Data) >= need {
			compact(f.Data)
			room = available(f.Data, slot < 0)
		}
		if room >= need {
			free := pageFree(f.Data) - need
			copy(f.Data[free:], rec)
			if slot < 0 {
				slot = n
				setPageNSlots(f.Data, n+1)
			}
			setSlot(f.Data, slot, free, len(rec))
			setPageFree(f.Data, free)
			h.pool.Unpin(f, true)
			h.last = pid
			return RID{Page: pid, Slot: uint16(slot)}, nil
		}
		next := pageNext(f.Data)
		if next == invalidPage {
			nf, err := h.pool.Alloc()
			if err != nil {
				h.pool.Unpin(f, false)
				return RID{}, err
			}
			initHeapPage(nf.Data)
			setPageNext(f.Data, nf.ID())
			h.pool.Unpin(f, true)
			pid = nf.ID()
			h.pool.Unpin(nf, true)
			continue
		}
		h.pool.Unpin(f, false)
		pid = next
	}
}

// reclaimable reports the data-area bytes that deleted records left
// behind on the page.
func reclaimable(d []byte) int {
	dead := PageSize - pageFree(d)
	for i := 0; i < pageNSlots(d); i++ {
		_, ln := slotAt(d, i)
		dead -= ln
	}
	return dead
}

// compact packs the page's live records against its end, reclaiming the
// bytes deleted records left behind. Slot numbers, and so RIDs, do not
// change.
func compact(d []byte) {
	var buf [PageSize]byte
	free := PageSize
	for i := 0; i < pageNSlots(d); i++ {
		if off, ln := slotAt(d, i); off != 0 {
			free -= ln
			copy(buf[free:], d[off:off+ln])
			setSlot(d, i, free, ln)
		}
	}
	copy(d[free:], buf[free:])
	setPageFree(d, free)
}

func (h *Heap) writeOverflow(data []byte) (PageID, error) {
	const chunk = PageSize - 8
	var head PageID
	var prevFrame *Frame
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		f, err := h.pool.Alloc()
		if err != nil {
			if prevFrame != nil {
				h.pool.Unpin(prevFrame, true)
			}
			return 0, err
		}
		binary.LittleEndian.PutUint32(f.Data[4:8], uint32(end-off))
		copy(f.Data[8:], data[off:end])
		if head == invalidPage {
			head = f.ID()
		}
		if prevFrame != nil {
			binary.LittleEndian.PutUint32(prevFrame.Data[0:4], uint32(f.ID()))
			h.pool.Unpin(prevFrame, true)
		}
		prevFrame = f
	}
	if prevFrame != nil {
		h.pool.Unpin(prevFrame, true)
	}
	return head, nil
}

// Get returns the record at rid.
func (h *Heap) Get(rid RID) ([]byte, error) {
	f, err := h.pool.Get(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(f, false)
	if int(rid.Slot) >= pageNSlots(f.Data) {
		return nil, fmt.Errorf("store: no such slot %s", rid)
	}
	off, ln := slotAt(f.Data, int(rid.Slot))
	if off == 0 {
		return nil, fmt.Errorf("store: record %s deleted", rid)
	}
	rec := f.Data[off : off+ln]
	if rec[0] == 0 {
		out := make([]byte, ln-1)
		copy(out, rec[1:])
		return out, nil
	}
	head := PageID(binary.LittleEndian.Uint32(rec[1:5]))
	total := int(binary.LittleEndian.Uint32(rec[5:9]))
	return h.readOverflow(head, total)
}

func (h *Heap) readOverflow(head PageID, total int) ([]byte, error) {
	out := make([]byte, 0, total)
	for pid := head; pid != invalidPage; {
		f, err := h.pool.Get(pid)
		if err != nil {
			return nil, err
		}
		ln := int(binary.LittleEndian.Uint32(f.Data[4:8]))
		out = append(out, f.Data[8:8+ln]...)
		next := PageID(binary.LittleEndian.Uint32(f.Data[0:4]))
		h.pool.Unpin(f, false)
		pid = next
	}
	if len(out) != total {
		return nil, fmt.Errorf("store: overflow chain length %d, want %d", len(out), total)
	}
	return out, nil
}

// Delete removes the record at rid (overflow pages are freed).
func (h *Heap) Delete(rid RID) error {
	f, err := h.pool.GetX(rid.Page)
	if err != nil {
		return err
	}
	if int(rid.Slot) >= pageNSlots(f.Data) {
		h.pool.Unpin(f, false)
		return fmt.Errorf("store: no such slot %s", rid)
	}
	off, _ := slotAt(f.Data, int(rid.Slot))
	if off == 0 {
		h.pool.Unpin(f, false)
		return fmt.Errorf("store: record %s already deleted", rid)
	}
	var overflowHead PageID
	if f.Data[off] == 1 {
		overflowHead = PageID(binary.LittleEndian.Uint32(f.Data[off+1 : off+5]))
	}
	setSlot(f.Data, int(rid.Slot), 0, 0)
	h.pool.Unpin(f, true)
	for pid := overflowHead; pid != invalidPage; {
		of, err := h.pool.Get(pid)
		if err != nil {
			return err
		}
		next := PageID(binary.LittleEndian.Uint32(of.Data[0:4]))
		h.pool.Unpin(of, false)
		if err := h.pool.Free(pid); err != nil {
			return err
		}
		pid = next
	}
	return nil
}

// Update replaces the record at rid and returns its RID. An inline record
// replaced by one no longer than its slot is rewritten in place and keeps
// its RID; otherwise the record is deleted and inserted again.
func (h *Heap) Update(rid RID, data []byte) (RID, error) {
	f, err := h.pool.GetX(rid.Page)
	if err != nil {
		return RID{}, err
	}
	if s := int(rid.Slot); len(data) <= inlineMax && s < pageNSlots(f.Data) {
		if off, ln := slotAt(f.Data, s); off != 0 && f.Data[off] == 0 && 1+len(data) <= ln {
			copy(f.Data[off+1:], data)
			setSlot(f.Data, s, off, 1+len(data))
			h.pool.Unpin(f, true)
			return rid, nil
		}
	}
	h.pool.Unpin(f, false)
	if err := h.Delete(rid); err != nil {
		return RID{}, err
	}
	return h.Insert(data)
}

// scanItem is one live slot copied out of a heap page, its bytes fully
// resolved (overflow chains included) while the page was pinned.
type scanItem struct {
	slot int
	data []byte
}

// HeapScanner streams a heap's records one page at a time: each page is
// pinned (shared latch) only while its live slots are copied out, then
// released before any record is yielded, so a long-running scan never
// holds more than one pin on the heap chain and never blocks eviction of
// the pages it has passed. Overflow chains are resolved inside that same
// pin window: the shared latch on the heap page blocks a concurrent
// Delete (which needs the exclusive latch to clear the slot) from
// freeing — and an Insert from reallocating — the chain pages while the
// scanner follows them. Resolving lazily after the unpin would read
// freed or recycled pages. This replaces the materialize-everything-
// up-front pattern and is the storage engine behind rel.SeqScan.
type HeapScanner struct {
	h     *Heap
	next  PageID
	page  PageID
	items []scanItem
	pos   int
	done  bool
}

// Scanner returns a streaming scanner positioned before the first record.
func (h *Heap) Scanner() *HeapScanner {
	return &HeapScanner{h: h, next: h.root}
}

// Next returns the next record in storage order, or (RID{}, nil, nil) at
// the end of the heap. The returned bytes are a private copy.
func (sc *HeapScanner) Next() (RID, []byte, error) {
	for {
		if sc.pos < len(sc.items) {
			it := sc.items[sc.pos]
			sc.pos++
			return RID{Page: sc.page, Slot: uint16(it.slot)}, it.data, nil
		}
		if sc.done || sc.next == invalidPage {
			sc.done = true
			return RID{}, nil, nil
		}
		if err := sc.loadPage(); err != nil {
			sc.done = true
			return RID{}, nil, err
		}
	}
}

// loadPage pins the next chain page, copies its live slots out —
// following overflow chains while the page is still pinned, so no writer
// can free or recycle chain pages between reading a slot and reading its
// chain — and unpins it before returning. The scanner briefly holds two
// pins here (the heap page plus one overflow page at a time), which any
// pool of the minimum capacity accommodates.
func (sc *HeapScanner) loadPage() error {
	f, err := sc.h.pool.Get(sc.next)
	if err != nil {
		return err
	}
	sc.page = sc.next
	sc.next = pageNext(f.Data)
	sc.items = sc.items[:0]
	sc.pos = 0
	n := pageNSlots(f.Data)
	for i := 0; i < n; i++ {
		off, ln := slotAt(f.Data, i)
		if off == 0 {
			continue
		}
		rec := f.Data[off : off+ln]
		if rec[0] == 0 {
			d := make([]byte, ln-1)
			copy(d, rec[1:])
			sc.items = append(sc.items, scanItem{slot: i, data: d})
		} else {
			head := PageID(binary.LittleEndian.Uint32(rec[1:5]))
			tot := int(binary.LittleEndian.Uint32(rec[5:9]))
			d, err := sc.h.readOverflow(head, tot)
			if err != nil {
				sc.h.pool.Unpin(f, false)
				return err
			}
			sc.items = append(sc.items, scanItem{slot: i, data: d})
		}
	}
	sc.h.pool.Unpin(f, false)
	return nil
}

// Close releases the scanner. The scanner holds no pins between Next
// calls, so Close only ends the stream; it exists so higher layers can
// abandon a scan early through a uniform interface.
func (sc *HeapScanner) Close() {
	sc.done = true
	sc.items = nil
}

// Scan visits every record in storage order. The callback returns false to
// stop early.
func (h *Heap) Scan(fn func(RID, []byte) (bool, error)) error {
	sc := h.Scanner()
	defer sc.Close()
	for {
		rid, data, err := sc.Next()
		if err != nil {
			return err
		}
		if data == nil {
			return nil
		}
		ok, err := fn(rid, data)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}
