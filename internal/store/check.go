package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Structural invariant verifiers. Check walks a structure page by page
// and verifies every invariant its operations rely on — offsets in
// range, keys ordered, chains acyclic — reporting
// the first violation as an error. Reads go through the buffer pool, so
// every visited page the pool misses also has its checksum verified by
// the pager. The crash-injection harness runs these after
// every simulated crash and recovery; the educe CLI exposes them as
// `educe -check`.

// maxChain bounds chain walks so a corrupt link cycle terminates: no
// well-formed chain can be longer than the number of allocated pages.
func (h *Heap) maxChain() int { return int(h.pool.Pager().NumPages()) + 1 }

// Check verifies the heap's structural invariants: the page chain is
// acyclic, slot tables and free offsets are within bounds, records
// carry valid flags, and every overflow chain is acyclic and sums to
// its recorded length.
func (h *Heap) Check() error {
	limit := h.maxChain()
	seen := map[PageID]bool{}
	n := 0
	for pid := h.root; pid != invalidPage; {
		if seen[pid] {
			return fmt.Errorf("store: heap %d: page chain cycle at page %d", h.root, pid)
		}
		seen[pid] = true
		if n++; n > limit {
			return fmt.Errorf("store: heap %d: page chain longer than %d pages", h.root, limit)
		}
		f, err := h.pool.Get(pid)
		if err != nil {
			return fmt.Errorf("store: heap %d: page %d: %w", h.root, pid, err)
		}
		next := pageNext(f.Data)
		err = h.checkPage(pid, f.Data)
		h.pool.Unpin(f, false)
		if err != nil {
			return err
		}
		pid = next
	}
	return nil
}

func (h *Heap) checkPage(pid PageID, d []byte) error {
	nslots := pageNSlots(d)
	free := pageFree(d)
	slotEnd := heapHdr + nslots*slotSize
	if slotEnd > PageSize || free < slotEnd || free > PageSize {
		return fmt.Errorf("store: heap page %d: %d slots, free offset %d out of range", pid, nslots, free)
	}
	for i := 0; i < nslots; i++ {
		off, ln := slotAt(d, i)
		if off == 0 {
			continue // deleted
		}
		if off < free || off+ln > PageSize || ln < 1 {
			return fmt.Errorf("store: heap page %d slot %d: record [%d:%d] outside data area [%d:%d]", pid, i, off, off+ln, free, PageSize)
		}
		switch d[off] {
		case 0:
		case 1:
			if ln != 9 {
				return fmt.Errorf("store: heap page %d slot %d: overflow stub of %d bytes", pid, i, ln)
			}
			head := PageID(binary.LittleEndian.Uint32(d[off+1 : off+5]))
			total := int(binary.LittleEndian.Uint32(d[off+5 : off+9]))
			if err := h.checkOverflow(pid, i, head, total); err != nil {
				return err
			}
		default:
			return fmt.Errorf("store: heap page %d slot %d: bad record flag %d", pid, i, d[off])
		}
	}
	return nil
}

func (h *Heap) checkOverflow(pid PageID, slot int, head PageID, total int) error {
	limit := h.maxChain()
	seen := map[PageID]bool{}
	got := 0
	for cur := head; cur != invalidPage; {
		if seen[cur] || len(seen) > limit {
			return fmt.Errorf("store: heap page %d slot %d: overflow chain cycle at page %d", pid, slot, cur)
		}
		seen[cur] = true
		f, err := h.pool.Get(cur)
		if err != nil {
			return fmt.Errorf("store: heap page %d slot %d: overflow page %d: %w", pid, slot, cur, err)
		}
		ln := int(binary.LittleEndian.Uint32(f.Data[4:8]))
		next := PageID(binary.LittleEndian.Uint32(f.Data[0:4]))
		h.pool.Unpin(f, false)
		if ln < 0 || ln > PageSize-8 {
			return fmt.Errorf("store: heap page %d slot %d: overflow page %d: chunk length %d", pid, slot, cur, ln)
		}
		got += ln
		cur = next
	}
	if got != total {
		return fmt.Errorf("store: heap page %d slot %d: overflow chain holds %d bytes, stub says %d", pid, slot, got, total)
	}
	return nil
}

// Check verifies the B+tree's invariants: every entry lies within its
// page, pairs are strictly ordered and bounded by their parent
// separators (at least the left one, below the right one), every leaf
// sits at the same depth, and the leaf chain links the leaves in
// left-to-right order.
func (t *BTree) Check() error {
	root, err := t.rootID()
	if err != nil {
		return fmt.Errorf("store: btree %d: %w", t.anchor, err)
	}
	c := &btCheck{t: t, seen: map[PageID]bool{root: true}, leafDepth: -1}
	if err := c.visit(root, nil, nil, 0); err != nil {
		return err
	}
	if c.lastNext != invalidPage {
		return fmt.Errorf("store: btree %d: last leaf %d links to %d", t.anchor, c.last, c.lastNext)
	}
	return nil
}

// btCheck meets the leaves in key order; each must be the last one's next.
type btCheck struct {
	t              *BTree
	seen           map[PageID]bool
	leafDepth      int
	last, lastNext PageID
}

func (c *btCheck) visit(id PageID, lo, hi *pair, depth int) error {
	f, err := c.t.pool.Get(id)
	if err != nil {
		return c.t.bad(id, err)
	}
	// Walk a copy: the children below pin pages of their own.
	n := node(bytes.Clone(f.Data))
	c.t.pool.Unpin(f, false)
	seps, kids := []pair{}, []PageID{n.child0()} // kids: an internal node's only
	off := n.first()
	for i := 0; i < n.count(); i++ {
		p, end, err := n.entry(off)
		if err != nil {
			return c.t.bad(id, err)
		}
		off = end
		switch {
		case len(p.key) > MaxKeyLen:
			return fmt.Errorf("store: btree %d: node %d: key %d of %d bytes", c.t.anchor, id, i, len(p.key))
		case i > 0 && seps[i-1].compare(p) >= 0:
			return fmt.Errorf("store: btree %d: node %d: pairs out of order at %d", c.t.anchor, id, i)
		case lo != nil && p.compare(*lo) < 0:
			return fmt.Errorf("store: btree %d: node %d: pair %d below parent separator", c.t.anchor, id, i)
		case hi != nil && p.compare(*hi) >= 0:
			return fmt.Errorf("store: btree %d: node %d: pair %d not below parent separator", c.t.anchor, id, i)
		}
		seps = append(seps, p)
		kids = append(kids, n.kid(end))
	}
	if n.leaf() {
		switch {
		case c.leafDepth == -1:
			c.leafDepth = depth
		case depth != c.leafDepth:
			return fmt.Errorf("store: btree %d: leaf %d at depth %d, expected %d", c.t.anchor, id, depth, c.leafDepth)
		case c.lastNext != id:
			return fmt.Errorf("store: btree %d: leaf %d links to %d, want %d", c.t.anchor, c.last, c.lastNext, id)
		}
		c.last, c.lastNext = id, n.next()
		return nil
	}
	for i, child := range kids {
		if child == invalidPage || c.seen[child] {
			return fmt.Errorf("store: btree %d: node %d: child %d (page %d) is missing or reached twice", c.t.anchor, id, i, child)
		}
		c.seen[child] = true
		clo, chi := lo, hi
		if i > 0 {
			clo = &seps[i-1]
		}
		if i < len(seps) {
			chi = &seps[i]
		}
		if err := c.visit(child, clo, chi, depth+1); err != nil {
			return err
		}
	}
	return nil
}
