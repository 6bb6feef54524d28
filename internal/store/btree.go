package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// BTree is a disk-backed B+tree mapping variable-length byte keys to
// uint64 values (packed RIDs). Duplicate keys are allowed; (key, value)
// pairs are unique only if the caller keeps them so. Deletion is lazy
// (no rebalancing), which is adequate for the engine's index workloads.
//
// The tree is addressed by an anchor page holding the current root, so
// root splits do not invalidate stored references to the tree.
type BTree struct {
	pool   *Pool
	anchor PageID
}

// MaxKeyLen bounds key length so several keys fit per node.
const MaxKeyLen = PageSize / 8

// bnode is the in-memory form of one tree node.
type bnode struct {
	leaf     bool
	keys     [][]byte
	vals     []uint64 // leaf only, parallel to keys
	children []PageID // internal only, len(keys)+1
	next     PageID   // leaf chain
}

// CreateBTree allocates an empty tree and returns it.
func CreateBTree(pool *Pool) (*BTree, error) {
	rootFrame, err := pool.Alloc()
	if err != nil {
		return nil, err
	}
	root := rootFrame.ID()
	writeNode(rootFrame.Data, &bnode{leaf: true})
	pool.Unpin(rootFrame, true)

	anchorFrame, err := pool.Alloc()
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(anchorFrame.Data[0:4], uint32(root))
	anchor := anchorFrame.ID()
	pool.Unpin(anchorFrame, true)
	return &BTree{pool: pool, anchor: anchor}, nil
}

// OpenBTree attaches to the tree anchored at anchor.
func OpenBTree(pool *Pool, anchor PageID) *BTree {
	return &BTree{pool: pool, anchor: anchor}
}

// Anchor returns the tree's stable anchor page.
func (t *BTree) Anchor() PageID { return t.anchor }

func (t *BTree) rootID() (PageID, error) {
	f, err := t.pool.Get(t.anchor)
	if err != nil {
		return 0, err
	}
	id := PageID(binary.LittleEndian.Uint32(f.Data[0:4]))
	t.pool.Unpin(f, false)
	return id, nil
}

func (t *BTree) setRootID(id PageID) error {
	f, err := t.pool.GetX(t.anchor)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(f.Data[0:4], uint32(id))
	t.pool.Unpin(f, true)
	return nil
}

// node (de)serialisation.
//
//	[0]    leaf flag
//	[1:3]  key count
//	[3:7]  next leaf
//	[7: ]  leaf:    (keyLen u16, key, val u64)*
//	       internal: child0 u32, then (keyLen u16, key, child u32)*
func writeNode(d []byte, n *bnode) {
	if n.leaf {
		d[0] = 1
	} else {
		d[0] = 0
	}
	binary.LittleEndian.PutUint16(d[1:3], uint16(len(n.keys)))
	binary.LittleEndian.PutUint32(d[3:7], uint32(n.next))
	off := 7
	if !n.leaf {
		binary.LittleEndian.PutUint32(d[off:off+4], uint32(n.children[0]))
		off += 4
	}
	for i, k := range n.keys {
		binary.LittleEndian.PutUint16(d[off:off+2], uint16(len(k)))
		off += 2
		copy(d[off:], k)
		off += len(k)
		if n.leaf {
			binary.LittleEndian.PutUint64(d[off:off+8], n.vals[i])
			off += 8
		} else {
			binary.LittleEndian.PutUint32(d[off:off+4], uint32(n.children[i+1]))
			off += 4
		}
	}
}

// readNode decodes a node. Its keys are capacity-capped slices of one
// private copy of the page, and its slices have room for the one entry an
// insert adds, so a load costs a handful of allocations, not one per key.
func readNode(d []byte) *bnode {
	cnt := int(binary.LittleEndian.Uint16(d[1:3]))
	n := &bnode{
		leaf: d[0] == 1,
		keys: make([][]byte, cnt, cnt+1),
		next: PageID(binary.LittleEndian.Uint32(d[3:7])),
	}
	page := append([]byte(nil), d...)
	off := 7
	if n.leaf {
		n.vals = make([]uint64, cnt, cnt+1)
	} else {
		n.children = make([]PageID, cnt+1, cnt+2)
		n.children[0] = PageID(binary.LittleEndian.Uint32(page[off : off+4]))
		off += 4
	}
	for i := 0; i < cnt; i++ {
		kl := int(binary.LittleEndian.Uint16(page[off : off+2]))
		off += 2
		n.keys[i] = page[off : off+kl : off+kl]
		off += kl
		if n.leaf {
			n.vals[i] = binary.LittleEndian.Uint64(page[off : off+8])
			off += 8
		} else {
			n.children[i+1] = PageID(binary.LittleEndian.Uint32(page[off : off+4]))
			off += 4
		}
	}
	return n
}

func nodeSize(n *bnode) int {
	sz := 7
	if !n.leaf {
		sz += 4
	}
	for _, k := range n.keys {
		sz += 2 + len(k)
		if n.leaf {
			sz += 8
		} else {
			sz += 4
		}
	}
	return sz
}

func (t *BTree) load(id PageID) (*bnode, error) {
	f, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	n := readNode(f.Data)
	t.pool.Unpin(f, false)
	return n, nil
}

func (t *BTree) save(id PageID, n *bnode) error {
	f, err := t.pool.GetX(id)
	if err != nil {
		return err
	}
	writeNode(f.Data, n)
	t.pool.Unpin(f, true)
	return nil
}

func (t *BTree) allocNode(n *bnode) (PageID, error) {
	f, err := t.pool.Alloc()
	if err != nil {
		return 0, err
	}
	writeNode(f.Data, n)
	id := f.ID()
	t.pool.Unpin(f, true)
	return id, nil
}

// upperBound returns the first index with keys[i] > key.
func upperBound(keys [][]byte, key []byte) int {
	return sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], key) > 0 })
}

// lowerBound returns the first index with keys[i] >= key.
func lowerBound(keys [][]byte, key []byte) int {
	return sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], key) >= 0 })
}

// Insert adds (key, val).
func (t *BTree) Insert(key []byte, val uint64) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("store: btree key of %d bytes exceeds limit %d", len(key), MaxKeyLen)
	}
	root, err := t.rootID()
	if err != nil {
		return err
	}
	sep, right, err := t.insert(root, key, val)
	if err != nil {
		return err
	}
	if right != invalidPage {
		newRoot := &bnode{
			keys:     [][]byte{sep},
			children: []PageID{root, right},
		}
		id, err := t.allocNode(newRoot)
		if err != nil {
			return err
		}
		return t.setRootID(id)
	}
	return nil
}

func (t *BTree) insert(id PageID, key []byte, val uint64) ([]byte, PageID, error) {
	n, err := t.load(id)
	if err != nil {
		return nil, 0, err
	}
	if n.leaf {
		i := upperBound(n.keys, key)
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = append([]byte(nil), key...)
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		return t.maybeSplit(id, n)
	}
	ci := upperBound(n.keys, key)
	sep, right, err := t.insert(n.children[ci], key, val)
	if err != nil {
		return nil, 0, err
	}
	if right == invalidPage {
		return nil, 0, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, 0)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	return t.maybeSplit(id, n)
}

// maybeSplit saves n (splitting first if oversized) and returns split info.
func (t *BTree) maybeSplit(id PageID, n *bnode) ([]byte, PageID, error) {
	if nodeSize(n) <= PageSize {
		return nil, 0, t.save(id, n)
	}
	mid := len(n.keys) / 2
	if n.leaf {
		right := &bnode{
			leaf: true,
			keys: append([][]byte(nil), n.keys[mid:]...),
			vals: append([]uint64(nil), n.vals[mid:]...),
			next: n.next,
		}
		rid, err := t.allocNode(right)
		if err != nil {
			return nil, 0, err
		}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = rid
		if err := t.save(id, n); err != nil {
			return nil, 0, err
		}
		return append([]byte(nil), right.keys[0]...), rid, nil
	}
	sep := n.keys[mid]
	right := &bnode{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]PageID(nil), n.children[mid+1:]...),
	}
	rid, err := t.allocNode(right)
	if err != nil {
		return nil, 0, err
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	if err := t.save(id, n); err != nil {
		return nil, 0, err
	}
	return sep, rid, nil
}

// findLeafID descends to the leaf where key would first appear, scanning
// serialized nodes in place (no per-key allocation; this path dominates
// lookup cost).
func (t *BTree) findLeafID(key []byte) (PageID, error) {
	id, err := t.rootID()
	if err != nil {
		return 0, err
	}
	for {
		f, err := t.pool.Get(id)
		if err != nil {
			return 0, err
		}
		d := f.Data
		if d[0] == 1 { // leaf
			t.pool.Unpin(f, false)
			return id, nil
		}
		cnt := int(binary.LittleEndian.Uint16(d[1:3]))
		off := 7
		child := PageID(binary.LittleEndian.Uint32(d[off : off+4]))
		off += 4
		if key != nil {
			// children[lowerBound(keys, key)]: advance past every key
			// strictly below the target.
			for i := 0; i < cnt; i++ {
				kl := int(binary.LittleEndian.Uint16(d[off : off+2]))
				off += 2
				k := d[off : off+kl]
				off += kl
				if bytes.Compare(k, key) >= 0 {
					break
				}
				child = PageID(binary.LittleEndian.Uint32(d[off : off+4]))
				off += 4
			}
		}
		t.pool.Unpin(f, false)
		id = child
	}
}

// SearchEQ returns the values stored under key.
func (t *BTree) SearchEQ(key []byte) ([]uint64, error) {
	var out []uint64
	err := t.Range(key, key, func(_ []byte, v uint64) bool {
		out = append(out, v)
		return true
	})
	return out, err
}

// Range visits (key, value) pairs with lo <= key <= hi in order. A nil lo
// starts at the smallest key; a nil hi runs to the end. The callback
// returns false to stop. The key slice passed to fn is only valid during
// the call.
func (t *BTree) Range(lo, hi []byte, fn func(key []byte, val uint64) bool) error {
	id, err := t.findLeafID(lo)
	if err != nil {
		return err
	}
	for id != invalidPage {
		f, err := t.pool.Get(id)
		if err != nil {
			return err
		}
		d := f.Data
		cnt := int(binary.LittleEndian.Uint16(d[1:3]))
		next := PageID(binary.LittleEndian.Uint32(d[3:7]))
		off := 7
		for i := 0; i < cnt; i++ {
			kl := int(binary.LittleEndian.Uint16(d[off : off+2]))
			off += 2
			k := d[off : off+kl]
			off += kl
			v := binary.LittleEndian.Uint64(d[off : off+8])
			off += 8
			if lo != nil && bytes.Compare(k, lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(k, hi) > 0 {
				t.pool.Unpin(f, false)
				return nil
			}
			if !fn(k, v) {
				t.pool.Unpin(f, false)
				return nil
			}
		}
		t.pool.Unpin(f, false)
		id = next
	}
	return nil
}

// Delete removes one (key, val) pair, reporting whether it was found.
func (t *BTree) Delete(key []byte, val uint64) (bool, error) {
	id, err := t.findLeafID(key)
	if err != nil {
		return false, err
	}
	n, err := t.load(id)
	if err != nil {
		return false, err
	}
	for {
		for i, k := range n.keys {
			c := bytes.Compare(k, key)
			if c > 0 {
				return false, nil
			}
			if c == 0 && n.vals[i] == val {
				n.keys = append(n.keys[:i], n.keys[i+1:]...)
				n.vals = append(n.vals[:i], n.vals[i+1:]...)
				return true, t.save(id, n)
			}
		}
		if n.next == invalidPage {
			return false, nil
		}
		id = n.next
		n, err = t.load(id)
		if err != nil {
			return false, err
		}
	}
}

// Len counts all stored pairs (test/diagnostic use).
func (t *BTree) Len() (int, error) {
	count := 0
	err := t.Range(nil, nil, func([]byte, uint64) bool { count++; return true })
	return count, err
}
