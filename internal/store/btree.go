package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// BTree is a disk-backed B+tree mapping variable-length byte keys to
// uint64 values (packed RIDs). Duplicate keys are allowed; (key, value)
// pairs are unique only if the caller keeps them so. Deletion is lazy
// (no rebalancing), which is adequate for the engine's index workloads.
//
// A node is its page bytes. Every path reads entries in place through
// one walker, node.entry, which reports an entry running past the page
// as an error. An insert or delete edits the page in place, shifting the
// entries after the edit with copy. Only a split touches a second page:
// it lays the entries out in a scratch buffer, writes the two halves
// back and pushes the separator up the path the descent recorded.
//
// The tree is addressed by an anchor page holding the current root, so
// root splits do not invalidate stored references to the tree.
type BTree struct {
	pool   *Pool
	anchor PageID
}

// MaxKeyLen bounds key length so several keys fit per node.
const MaxKeyLen = PageSize / 8

// maxDepth sizes an insert's path stack; a deeper descent (only a cycle
// can make one) is an error rather than an endless loop.
const maxDepth = 32

// Node layout:
//
//	[0]    leaf flag
//	[1:3]  entry count
//	[3:7]  next leaf
//	[7: ]  leaf:    (keyLen u16, key, val u64)*
//	       internal: child0 u32, then (keyLen u16, key, child u32)*
const nodeHdr = 7

// node is a view of one node's page bytes.
type node []byte

var errNodeOverrun = errors.New("entry runs past the page")

func (n node) leaf() bool        { return n[0] == 1 }
func (n node) count() int        { return int(binary.LittleEndian.Uint16(n[1:3])) }
func (n node) setCount(c int)    { binary.LittleEndian.PutUint16(n[1:3], uint16(c)) }
func (n node) next() PageID      { return PageID(binary.LittleEndian.Uint32(n[3:7])) }
func (n node) setNext(id PageID) { binary.LittleEndian.PutUint32(n[3:7], uint32(id)) }
func (n node) child0() PageID    { return PageID(binary.LittleEndian.Uint32(n[nodeHdr:])) }

// first is the offset of entry 0.
func (n node) first() int {
	if n.leaf() {
		return nodeHdr
	}
	return nodeHdr + 4
}

// entry reads the entry at off: its key, aliasing the page, and the
// offset just past it, where its value ends (node.val).
func (n node) entry(off int) (key []byte, end int, err error) {
	if uint(off)+2 <= uint(len(n)) {
		kv := off + 2 + int(binary.LittleEndian.Uint16(n[off:]))
		if end = kv + 4; n.leaf() {
			end += 4
		}
		if end <= len(n) {
			return n[off+2 : kv], end, nil
		}
	}
	return nil, 0, errNodeOverrun
}

// val reads the value of the entry ending at end: a leaf's u64, or in an
// internal node the child to the key's right.
func (n node) val(end int) uint64 {
	if n.leaf() {
		return binary.LittleEndian.Uint64(n[end-8:])
	}
	return uint64(binary.LittleEndian.Uint32(n[end-4:]))
}

// put writes the entry (key, v) at off and returns the offset past it.
func (n node) put(off int, key []byte, v uint64) int {
	binary.LittleEndian.PutUint16(n[off:], uint16(len(key)))
	k := off + 2 + copy(n[off+2:], key)
	if n.leaf() {
		binary.LittleEndian.PutUint64(n[k:], v)
		return k + 8
	}
	binary.LittleEndian.PutUint32(n[k:], uint32(v))
	return k + 4
}

// child returns the index and page of the child a descent for key takes:
// past every separator at most key (upper, where an insert goes: after
// the equal keys) or below it (where a search starts).
func (n node) child(key []byte, upper bool) (int, PageID, error) {
	i, off, last := 0, nodeHdr+4, 0
	for cnt := n.count(); i < cnt; i++ {
		k, end, err := n.entry(off)
		if err != nil {
			return 0, 0, err
		}
		if cmp := bytes.Compare(k, key); cmp > 0 || cmp == 0 && !upper {
			break
		}
		last, off = end, end
	}
	if last == 0 {
		return i, n.child0(), nil
	}
	return i, PageID(n.val(last)), nil
}

// seek walks n once and returns the end of its entries and the offset of
// entry pos — for pos < 0, of the first entry above key or, with match,
// of the first entry (key, val) — or the end when there is none.
func (n node) seek(pos int, key []byte, val uint64, match bool) (at, end int, err error) {
	at, end = -1, n.first()
	for i, cnt := 0, n.count(); i < cnt; i++ {
		k, next, err := n.entry(end)
		if err != nil {
			return 0, 0, err
		}
		if at < 0 && i == pos {
			at = end
		} else if at < 0 && pos < 0 {
			if c := bytes.Compare(k, key); c > 0 || match && c == 0 && n.val(next) == val {
				at = end
			}
		}
		end = next
	}
	if at < 0 {
		at = end
	}
	return at, end, nil
}

// CreateBTree allocates an empty tree and returns it.
func CreateBTree(pool *Pool) (*BTree, error) {
	rootFrame, err := pool.Alloc()
	if err != nil {
		return nil, err
	}
	root := rootFrame.ID()
	rootFrame.Data[0] = 1 // an empty leaf
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

func (t *BTree) bad(id PageID, err error) error {
	return fmt.Errorf("store: btree %d: node %d: %w", t.anchor, id, err)
}

// step is one internal node an insert passed and the child it took.
type step struct {
	id  PageID
	idx int
}

// descend walks from the root to the leaf for key, choosing children by
// node.child, and returns the leaf and its depth; path, when not nil,
// records the internal nodes passed.
func (t *BTree) descend(key []byte, upper bool, path *[maxDepth]step) (PageID, int, error) {
	id, err := t.rootID()
	if err != nil {
		return 0, 0, err
	}
	for depth := 0; ; depth++ {
		f, err := t.pool.Get(id)
		if err != nil {
			return 0, 0, err
		}
		n := node(f.Data)
		if n.leaf() {
			t.pool.Unpin(f, false)
			return id, depth, nil
		}
		i, c, err := n.child(key, upper)
		t.pool.Unpin(f, false)
		if err != nil {
			return 0, 0, t.bad(id, err)
		}
		if depth == maxDepth {
			return 0, 0, fmt.Errorf("store: btree %d: deeper than %d levels", t.anchor, maxDepth)
		}
		if path != nil {
			path[depth] = step{id, i}
		}
		id = c
	}
}

// Insert adds (key, val) after any equal keys.
func (t *BTree) Insert(key []byte, val uint64) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("store: btree key of %d bytes exceeds limit %d", len(key), MaxKeyLen)
	}
	var path [maxDepth]step
	id, depth, err := t.descend(key, true, &path)
	if err != nil {
		return err
	}
	// A split copies its separator into sep only after laying out the
	// entry it was given, so k may alias sep on the way up.
	var sep [MaxKeyLen]byte
	pos, k, v := -1, key, val
	for {
		right, n, err := t.place(id, pos, k, v, &sep)
		if err != nil || right == invalidPage {
			return err
		}
		k, v = sep[:n], uint64(right)
		if depth == 0 {
			return t.newRoot(id, k, right)
		}
		depth--
		id, pos = path[depth].id, path[depth].idx
	}
}

// place writes (key, v) into node id as entry pos (pos < 0: at a leaf's
// upper bound for key). A full node splits; the new right sibling is
// returned with the length of its separator, copied into sep.
func (t *BTree) place(id PageID, pos int, key []byte, v uint64, sep *[MaxKeyLen]byte) (PageID, int, error) {
	f, err := t.pool.GetX(id)
	if err != nil {
		return 0, 0, err
	}
	n := node(f.Data)
	at, end, err := n.seek(pos, key, 0, false)
	if err != nil {
		t.pool.Unpin(f, false)
		return 0, 0, t.bad(id, err)
	}
	size := 2 + len(key) + 4
	if n.leaf() {
		size += 4
	}
	if end+size <= PageSize {
		copy(n[at+size:], n[at:end])
		n.put(at, key, v)
		n.setCount(n.count() + 1)
		t.pool.Unpin(f, true)
		return invalidPage, 0, nil
	}
	right, sl, err := t.split(n, at, end, key, v, sep)
	t.pool.Unpin(f, err == nil)
	return right, sl, err
}

// split makes room for (key, v) at offset at of the full node n, whose
// entries end at end. It lays the n+1 entries out in a scratch buffer and
// cuts them at entry count/2 — at the middle byte instead if keys of very
// unequal length would overflow a half there — keeping the left half in n
// and moving the right half to a new page. A leaf's separator is the
// right half's first key; an internal node's middle key moves up and its
// child becomes the right half's child0.
func (t *BTree) split(n node, at, end int, key []byte, v uint64, sep *[MaxKeyLen]byte) (PageID, int, error) {
	rf, err := t.pool.Alloc()
	if err != nil {
		return 0, 0, err
	}
	var buf [PageSize + 2 + MaxKeyLen + 8]byte
	s := node(buf[:])
	copy(s, n[:at])
	w := s.put(at, key, v)
	w += copy(s[w:], n[at:end])

	// seek has walked n's entries, so the scratch copy walks cleanly.
	cnt, first := n.count()+1, n.first()
	mid, off := cnt/2, first
	for i := 0; i < mid; i++ {
		_, off, _ = s.entry(off)
	}
	if room := PageSize - first; off-first > room || w-off > room {
		for mid, off = 0, first; 2*(off-first) < w-first; mid++ {
			_, off, _ = s.entry(off)
		}
	}
	k, after, _ := s.entry(off)
	sl := copy(sep[:], k)

	r := node(rf.Data)
	if n.leaf() {
		r[0] = 1
		r.setNext(n.next())
		r.setCount(cnt - mid)
		copy(r[nodeHdr:], s[off:w])
		n.setNext(rf.ID())
	} else {
		r.setCount(cnt - mid - 1)
		binary.LittleEndian.PutUint32(r[nodeHdr:], uint32(s.val(after)))
		copy(r[nodeHdr+4:], s[after:w])
	}
	copy(n[first:], s[first:off])
	n.setCount(mid)
	id := rf.ID()
	t.pool.Unpin(rf, true)
	return id, sl, nil
}

// newRoot puts a root above the split root old: child0 old, one entry
// (sep, right).
func (t *BTree) newRoot(old PageID, sep []byte, right PageID) error {
	f, err := t.pool.Alloc()
	if err != nil {
		return err
	}
	n := node(f.Data) // zeroed: an internal node
	binary.LittleEndian.PutUint32(n[nodeHdr:], uint32(old))
	n.put(nodeHdr+4, sep, uint64(right))
	n.setCount(1)
	id := f.ID()
	t.pool.Unpin(f, true)
	return t.setRootID(id)
}

// Range visits (key, value) pairs with lo <= key <= hi in order. A nil lo
// starts at the smallest key; a nil hi runs to the end. The callback
// returns false to stop. The key slice passed to fn is only valid during
// the call.
func (t *BTree) Range(lo, hi []byte, fn func(key []byte, val uint64) bool) error {
	id, _, err := t.descend(lo, false, nil)
	if err != nil {
		return err
	}
	for id != invalidPage {
		f, err := t.pool.Get(id)
		if err != nil {
			return err
		}
		n := node(f.Data)
		for i, off := 0, nodeHdr; i < n.count(); i++ {
			k, end, err := n.entry(off)
			if err != nil {
				t.pool.Unpin(f, false)
				return t.bad(id, err)
			}
			off = end
			if lo != nil && bytes.Compare(k, lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(k, hi) > 0 || !fn(k, n.val(end)) {
				t.pool.Unpin(f, false)
				return nil
			}
		}
		id = n.next()
		t.pool.Unpin(f, false)
	}
	return nil
}

// Delete removes one (key, val) pair, reporting whether it was found.
// Equal keys may span leaves, so the search follows the leaf chain from
// the first leaf the key can be in.
func (t *BTree) Delete(key []byte, val uint64) (bool, error) {
	id, _, err := t.descend(key, false, nil)
	if err != nil {
		return false, err
	}
	for id != invalidPage {
		f, err := t.pool.GetX(id)
		if err != nil {
			return false, err
		}
		n := node(f.Data)
		at, end, err := n.seek(-1, key, val, true)
		if err != nil {
			t.pool.Unpin(f, false)
			return false, t.bad(id, err)
		}
		if at == end { // no key above key yet
			id = n.next()
			t.pool.Unpin(f, false)
			continue
		}
		k, past, _ := n.entry(at)
		found := bytes.Equal(k, key)
		if found {
			copy(n[at:], n[past:end])
			n.setCount(n.count() - 1)
		}
		t.pool.Unpin(f, found)
		return found, nil
	}
	return false, nil
}
