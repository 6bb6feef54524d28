package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
)

// BTree is a disk-backed B+tree holding a set of (key, value) pairs —
// variable-length byte keys, uint64 values (packed RIDs) — in pair order:
// by key, equal keys by value. Callers file a record under a key at most
// once, so pairs are unique. Deletion is lazy (no rebalancing), which is
// adequate for the engine's index workloads.
//
// A separator is the first pair of the subtree to its right. Every
// operation descends past each separator at most its pair (Range with
// (lo, 0)), so one root-to-leaf path reaches the only leaf that can hold
// a pair, however many pairs share its key.
//
// A node is its page bytes. Every path reads entries in place through
// one walker, node.entry, which reports an entry running past the page
// as an error. An insert or delete edits the page in place, shifting the
// entries after the edit with copy. Only a split touches a second page:
// it lays the entries out in a scratch buffer, writes the two halves
// back and pushes the separator up the path the descent recorded.
//
// The tree is addressed by an anchor page holding the current root, so
// root splits do not invalidate stored references to the tree, and the
// format tag pairOrder.
type BTree struct {
	pool   *Pool
	anchor PageID
}

// MaxKeyLen bounds key length so several keys fit per node.
const MaxKeyLen = PageSize / 8

// maxDepth sizes an insert's path stack; a deeper descent (only a cycle
// can make one) is an error rather than an endless loop.
const maxDepth = 32

// pairOrder, at anchor bytes [4:8] after the root, tags a tree in pair
// order. A tree written before, whose separators held keys alone, has no
// tag.
const pairOrder = 0x52494150 // "PAIR"

// ErrOldBTree refuses a tree written before pair order.
var ErrOldBTree = errors.New("store: B-tree predates (key, value) pair order (format change: " +
	"internal separators now carry the value); rebuild the store by consulting the source again")

// Node layout:
//
//	[0]    leaf flag
//	[1:3]  entry count
//	[3:7]  next leaf
//	[7: ]  leaf:    (keyLen u16, key, val u64)*
//	       internal: child0 u32, then (keyLen u16, key, val u64, child u32)*
const nodeHdr = 7

// node is a view of one node's page bytes.
type node []byte

// pair is one (key, value) entry of a tree.
type pair struct {
	key []byte
	val uint64
}

// compare orders p against q: by key, then by value. It does not inline,
// so the walkers on every descent compare in place instead.
func (p pair) compare(q pair) int {
	if c := bytes.Compare(p.key, q.key); c != 0 {
		return c
	}
	return cmp.Compare(p.val, q.val)
}

var errNodeOverrun = errors.New("entry runs past the page")

var errPairPresent = errors.New("pair already present")

func (n node) leaf() bool        { return n[0] == 1 }
func (n node) count() int        { return int(binary.LittleEndian.Uint16(n[1:3])) }
func (n node) setCount(c int)    { binary.LittleEndian.PutUint16(n[1:3], uint16(c)) }
func (n node) next() PageID      { return PageID(binary.LittleEndian.Uint32(n[3:7])) }
func (n node) setNext(id PageID) { binary.LittleEndian.PutUint32(n[3:7], uint32(id)) }
func (n node) child0() PageID    { return PageID(binary.LittleEndian.Uint32(n[nodeHdr:])) }

// kid reads the child to the right of the internal entry ending at end.
func (n node) kid(end int) PageID { return PageID(binary.LittleEndian.Uint32(n[end-4:])) }

// first is the offset of entry 0.
func (n node) first() int {
	if n.leaf() {
		return nodeHdr
	}
	return nodeHdr + 4
}

// entry reads the entry at off: its pair, the key aliasing the page, and
// the offset just past it, where an internal entry's child ends.
func (n node) entry(off int) (p pair, end int, err error) {
	if uint(off)+2 <= uint(len(n)) {
		kv := off + 2 + int(binary.LittleEndian.Uint16(n[off:]))
		if end = kv + 8; !n.leaf() {
			end += 4
		}
		if end <= len(n) {
			return pair{n[off+2 : kv], binary.LittleEndian.Uint64(n[kv:])}, end, nil
		}
	}
	return pair{}, 0, errNodeOverrun
}

// put writes the entry p — in an internal node followed by kid — at off
// and returns the offset past it.
func (n node) put(off int, p pair, kid PageID) int {
	binary.LittleEndian.PutUint16(n[off:], uint16(len(p.key)))
	k := off + 2 + copy(n[off+2:], p.key)
	binary.LittleEndian.PutUint64(n[k:], p.val)
	if n.leaf() {
		return k + 8
	}
	binary.LittleEndian.PutUint32(n[k+8:], uint32(kid))
	return k + 12
}

// child returns the child a descent for p takes: the one right of the
// last separator at most p.
func (n node) child(p pair) (PageID, error) {
	kid := n.child0()
	for i, off, cnt := 0, nodeHdr+4, n.count(); i < cnt; i++ {
		e, end, err := n.entry(off)
		if err != nil {
			return 0, err
		}
		if c := bytes.Compare(e.key, p.key); c > 0 || c == 0 && e.val > p.val {
			break
		}
		off, kid = end, n.kid(end)
	}
	return kid, nil
}

// seek walks n once and returns the offset of its first pair at least p
// (the end of its entries when there is none), the end of its entries,
// and whether that pair is p.
func (n node) seek(p pair) (at, end int, found bool, err error) {
	at, end = -1, n.first()
	for i, cnt := 0, n.count(); i < cnt; i++ {
		e, next, err := n.entry(end)
		if err != nil {
			return 0, 0, false, err
		}
		if at < 0 {
			if c := bytes.Compare(e.key, p.key); c > 0 || c == 0 && e.val >= p.val {
				at, found = end, c == 0 && e.val == p.val
			}
		}
		end = next
	}
	if at < 0 {
		at = end
	}
	return at, end, found, nil
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
	binary.LittleEndian.PutUint32(anchorFrame.Data[4:8], pairOrder)
	anchor := anchorFrame.ID()
	pool.Unpin(anchorFrame, true)
	return &BTree{pool: pool, anchor: anchor}, nil
}

// OpenBTree attaches to the tree anchored at anchor, refusing one
// written before pair order.
func OpenBTree(pool *Pool, anchor PageID) (*BTree, error) {
	t := &BTree{pool: pool, anchor: anchor}
	if _, err := t.rootID(); err != nil {
		return nil, err
	}
	return t, nil
}

// Anchor returns the tree's stable anchor page.
func (t *BTree) Anchor() PageID { return t.anchor }

func (t *BTree) rootID() (PageID, error) {
	f, err := t.pool.Get(t.anchor)
	if err != nil {
		return 0, err
	}
	id, tag := PageID(binary.LittleEndian.Uint32(f.Data[0:4])), binary.LittleEndian.Uint32(f.Data[4:8])
	t.pool.Unpin(f, false)
	if tag != pairOrder {
		return 0, ErrOldBTree
	}
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

// descend walks from the root to the leaf for p, choosing children by
// node.child, and returns the leaf pinned in mode, with its depth; path,
// when not nil, records the internal nodes passed. Every node is latched
// in mode, so a writer gets its leaf ready to edit.
func (t *BTree) descend(p pair, mode LatchMode, path *[maxDepth]PageID) (*Frame, int, error) {
	id, err := t.rootID()
	if err != nil {
		return nil, 0, err
	}
	for depth := 0; ; depth++ {
		f, err := t.pool.Pin(id, mode)
		if err != nil {
			return nil, 0, err
		}
		n := node(f.Data)
		if n.leaf() {
			return f, depth, nil
		}
		c, err := n.child(p)
		t.pool.Unpin(f, false)
		if err != nil {
			return nil, 0, t.bad(id, err)
		}
		if depth == maxDepth {
			return nil, 0, fmt.Errorf("store: btree %d: deeper than %d levels", t.anchor, maxDepth)
		}
		if path != nil {
			path[depth] = id
		}
		id = c
	}
}

// Insert adds the pair (key, val). The pair must not be in the tree yet;
// one already present is refused.
func (t *BTree) Insert(key []byte, val uint64) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("store: btree key of %d bytes exceeds limit %d", len(key), MaxKeyLen)
	}
	var path [maxDepth]PageID
	p, kid := pair{key, val}, invalidPage
	f, depth, err := t.descend(p, LatchExclusive, &path)
	if err != nil {
		return err
	}
	// A split copies its separator into sep only after laying out the
	// entry it was given, so p may alias sep on the way up.
	var sep [MaxKeyLen]byte
	for {
		id := f.ID()
		right, s, err := t.place(f, p, kid, &sep)
		if err != nil || right == invalidPage {
			return err
		}
		if depth == 0 {
			return t.newRoot(id, s, right)
		}
		depth--
		if f, err = t.pool.GetX(path[depth]); err != nil {
			return err
		}
		p, kid = s, right
	}
}

// place writes p — in an internal node with kid, the child to its right
// — into the exclusively pinned node f at its place in pair order, and
// unpins f. A full node splits; the new right sibling is returned with
// its separator, whose key is copied into sep.
func (t *BTree) place(f *Frame, p pair, kid PageID, sep *[MaxKeyLen]byte) (PageID, pair, error) {
	n := node(f.Data)
	at, end, found, err := n.seek(p)
	if err == nil && found {
		err = errPairPresent
	}
	if err != nil {
		t.pool.Unpin(f, false)
		return 0, pair{}, t.bad(f.ID(), err)
	}
	size := 2 + len(p.key) + 12
	if n.leaf() {
		size -= 4
	}
	if end+size <= PageSize {
		copy(n[at+size:], n[at:end])
		n.put(at, p, kid)
		n.setCount(n.count() + 1)
		t.pool.Unpin(f, true)
		return invalidPage, pair{}, nil
	}
	right, s, err := t.split(n, at, end, p, kid, sep)
	t.pool.Unpin(f, err == nil)
	return right, s, err
}

// split makes room for p (and kid) at offset at of the full node n, whose
// entries end at end. It lays the n+1 entries out in a scratch buffer and
// cuts them at entry count/2 — at the middle byte instead if keys of very
// unequal length would overflow a half there — keeping the left half in n
// and moving the right half to a new page. The separator is the right
// half's first pair: a leaf keeps it as its first entry; an internal node
// moves it up and its child becomes the right half's child0.
func (t *BTree) split(n node, at, end int, p pair, kid PageID, sep *[MaxKeyLen]byte) (PageID, pair, error) {
	rf, err := t.pool.Alloc()
	if err != nil {
		return 0, pair{}, err
	}
	var buf [PageSize + 2 + MaxKeyLen + 12]byte
	s := node(buf[:])
	copy(s, n[:at])
	w := s.put(at, p, kid)
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
	m, after, _ := s.entry(off)
	m.key = sep[:copy(sep[:], m.key)]

	r := node(rf.Data)
	if n.leaf() {
		r[0] = 1
		r.setNext(n.next())
		r.setCount(cnt - mid)
		copy(r[nodeHdr:], s[off:w])
		n.setNext(rf.ID())
	} else {
		r.setCount(cnt - mid - 1)
		binary.LittleEndian.PutUint32(r[nodeHdr:], uint32(s.kid(after)))
		copy(r[nodeHdr+4:], s[after:w])
	}
	copy(n[first:], s[first:off])
	n.setCount(mid)
	id := rf.ID()
	t.pool.Unpin(rf, true)
	return id, m, nil
}

// newRoot puts a root above the split root old: child0 old, one entry
// (sep, right).
func (t *BTree) newRoot(old PageID, sep pair, right PageID) error {
	f, err := t.pool.Alloc()
	if err != nil {
		return err
	}
	n := node(f.Data) // zeroed: an internal node
	binary.LittleEndian.PutUint32(n[nodeHdr:], uint32(old))
	n.put(nodeHdr+4, sep, right)
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
	f, _, err := t.descend(pair{lo, 0}, LatchShared, nil)
	for err == nil {
		n := node(f.Data)
		for i, off := 0, nodeHdr; i < n.count(); i++ {
			e, end, err := n.entry(off)
			if err != nil {
				t.pool.Unpin(f, false)
				return t.bad(f.ID(), err)
			}
			off = end
			if lo != nil && bytes.Compare(e.key, lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(e.key, hi) > 0 || !fn(e.key, e.val) {
				t.pool.Unpin(f, false)
				return nil
			}
		}
		next := n.next()
		t.pool.Unpin(f, false)
		if next == invalidPage {
			return nil
		}
		f, err = t.pool.Get(next)
	}
	return err
}

// Delete removes the pair (key, val), reporting whether it was present.
// The leaf the descent reaches is the only one that can hold it.
func (t *BTree) Delete(key []byte, val uint64) (bool, error) {
	f, _, err := t.descend(pair{key, val}, LatchExclusive, nil)
	if err != nil {
		return false, err
	}
	n := node(f.Data)
	at, end, found, err := n.seek(pair{key, val})
	if err != nil {
		t.pool.Unpin(f, false)
		return false, t.bad(f.ID(), err)
	}
	if found {
		_, past, _ := n.entry(at)
		copy(n[at:], n[past:end])
		n.setCount(n.count() - 1)
	}
	t.pool.Unpin(f, found)
	return found, nil
}
