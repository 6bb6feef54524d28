package rel

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"repro/internal/store"
)

// Iterator is the operator-tree interface (set-oriented evaluation,
// paper §2.2). Next returns (nil, nil) at end of stream. Close releases
// the iterator's resources; it is idempotent, safe after exhaustion, and
// must be called when a stream is abandoned early so scans stop touching
// the buffer pool.
type Iterator interface {
	Next() (Tuple, error)
	Close()
}

// --- sequential scan -----------------------------------------------------

type seqScan struct {
	r    *Relation
	sc   *store.HeapScanner
	done bool
}

// SeqScan returns an iterator over every tuple of r in storage order. It
// streams one heap page at a time under a shared pin — nothing is
// materialized up front, so a scan abandoned after a few tuples has only
// touched a few pages.
func SeqScan(r *Relation) Iterator {
	r.cat.seqChoices.Inc()
	return &seqScan{r: r}
}

func (s *seqScan) Next() (Tuple, error) {
	if s.done {
		return nil, nil
	}
	if s.sc == nil {
		s.sc = s.r.heap.Scanner()
	}
	_, data, err := s.sc.Next()
	if err != nil {
		s.Close()
		return nil, err
	}
	if data == nil {
		s.Close()
		return nil, nil
	}
	s.r.cat.seqScanned.Inc()
	return decodeTuple(data, &s.r.Schema)
}

func (s *seqScan) Close() {
	if s.sc != nil {
		s.sc.Close()
		s.sc = nil
	}
	s.done = true
}

// --- index scan ------------------------------------------------------------

type indexScan struct {
	r    *Relation
	rids []store.RID
	pos  int     // the first RID not yet read
	run  []Tuple // the tuples of the page run being returned
	at   int
}

// IndexScan returns tuples of r whose attribute lies in [lo, hi] (both
// inclusive; pass the same value twice for equality) using the B-tree on
// that attribute. It falls back to a filtered sequential scan when no
// index exists. The matching RIDs are collected up front (bounded by the
// selectivity of the range); tuples are read on demand, a page run at a
// time: each run of RIDs on one heap page pins it once and decodes
// straight from it.
func IndexScan(r *Relation, attrName string, lo, hi Value) Iterator {
	attr, err := r.attr(attrName)
	if err != nil {
		return &errIter{err: err}
	}
	idx, ok := r.indexes[attr]
	if !ok {
		r.cat.idxFallbck.Inc()
		return Select(SeqScan(r), func(t Tuple) bool {
			return t[attr].Compare(lo) >= 0 && t[attr].Compare(hi) <= 0
		})
	}
	r.cat.idxChoices.Inc()
	s := &indexScan{r: r}
	err = idx.Range(lo.Key(), hi.Key(), func(_ []byte, v uint64) bool {
		s.rids = append(s.rids, store.UnpackRID(v))
		return true
	})
	if err != nil {
		return &errIter{err: err}
	}
	r.cat.idxScanned.Add(uint64(len(s.rids)))
	return s
}

func (s *indexScan) Next() (Tuple, error) {
	if s.at == len(s.run) {
		if s.pos == len(s.rids) {
			return nil, nil
		}
		end := s.pos + 1
		for end < len(s.rids) && s.rids[end].Page == s.rids[s.pos].Page {
			end++
		}
		clear(s.run)
		s.run, s.at = s.run[:0], 0
		err := s.r.heap.ReadRuns(s.rids[s.pos:end], func(_ int, data []byte) error {
			t, err := decodeTuple(data, &s.r.Schema)
			s.run = append(s.run, t)
			return err
		})
		s.pos = end
		if err != nil {
			s.Close()
			return nil, err
		}
	}
	t := s.run[s.at]
	s.at++
	s.r.cat.idxMatched.Inc()
	return t, nil
}

func (s *indexScan) Close() { s.rids, s.pos, s.run, s.at = nil, 0, nil, 0 }

type errIter struct{ err error }

func (e *errIter) Next() (Tuple, error) { return nil, e.err }
func (e *errIter) Close()               {}

// --- selection, projection ---------------------------------------------------

type selectIter struct {
	in   Iterator
	pred func(Tuple) bool
}

// Select filters tuples by pred.
func Select(in Iterator, pred func(Tuple) bool) Iterator {
	return &selectIter{in: in, pred: pred}
}

func (s *selectIter) Next() (Tuple, error) {
	for {
		t, err := s.in.Next()
		if err != nil || t == nil {
			return t, err
		}
		if s.pred(t) {
			return t, nil
		}
	}
}

func (s *selectIter) Close() { s.in.Close() }

type projectIter struct {
	in   Iterator
	cols []int
}

// Project keeps only the given attribute positions.
func Project(in Iterator, cols []int) Iterator { return &projectIter{in: in, cols: cols} }

func (p *projectIter) Next() (Tuple, error) {
	t, err := p.in.Next()
	if err != nil || t == nil {
		return nil, err
	}
	out := make(Tuple, len(p.cols))
	for i, c := range p.cols {
		out[i] = t[c]
	}
	return out, nil
}

func (p *projectIter) Close() { p.in.Close() }

// --- joins -------------------------------------------------------------------

type nestedLoopJoin struct {
	outer     Iterator
	makeInner func() Iterator
	pred      func(o, i Tuple) bool
	cur       Tuple
	inner     Iterator
}

// NestedLoopJoin joins the outer stream against a re-creatable inner
// stream, emitting concatenated tuples that satisfy pred.
func NestedLoopJoin(outer Iterator, makeInner func() Iterator, pred func(o, i Tuple) bool) Iterator {
	return &nestedLoopJoin{outer: outer, makeInner: makeInner, pred: pred}
}

func (j *nestedLoopJoin) Next() (Tuple, error) {
	for {
		if j.cur == nil {
			t, err := j.outer.Next()
			if err != nil || t == nil {
				return nil, err
			}
			j.cur = t
			j.inner = j.makeInner()
		}
		for {
			it, err := j.inner.Next()
			if err != nil {
				return nil, err
			}
			if it == nil {
				j.inner.Close()
				j.inner = nil
				j.cur = nil
				break
			}
			if j.pred(j.cur, it) {
				out := make(Tuple, 0, len(j.cur)+len(it))
				out = append(out, j.cur...)
				out = append(out, it...)
				return out, nil
			}
		}
	}
}

func (j *nestedLoopJoin) Close() {
	j.outer.Close()
	if j.inner != nil {
		j.inner.Close()
		j.inner = nil
	}
	j.cur = nil
}

// joinBatch is how many outer tuples an index join probes the inner
// index with at once. A batch holds them and all their results.
const joinBatch = 512

type indexJoin struct {
	outer Iterator
	inner *Relation
	attr  int // the outer tuple's join attribute
	idx   *store.BTree
	done  bool
	out   []Tuple // the results of the current batch, in order
	pos   int

	// Scratch, reused from batch to batch.
	outers []Tuple
	buf    []byte   // the outer tuples' keys, end to end
	probes []probe  // one per outer tuple, sorted by key
	keys   [][]byte // the distinct keys, ascending
	group  []int32  // key d's probes are probes[group[d]:group[d+1]]
	nhits  []int32  // the key's pairs in the index
	slot   []int32  // the outer tuple's key, then its first result
	hits   []hit
	rids   []store.RID
}

// probe is one outer tuple's key, buf[lo:hi], and its place in the batch.
type probe struct{ lo, hi, at int32 }

// hit is one index pair of a probed key: the inner tuple's packed RID,
// the key, and the pair's rank among the key's pairs.
type hit struct {
	rid       uint64
	key, rank int32
}

// IndexJoin joins each outer tuple against inner tuples whose innerAttr
// equals the outer tuple's outerAttr value, via the inner index; the
// results come in outer order, and for one outer tuple in index order.
// It takes the outer stream joinBatch tuples at a time, probes the index
// once with their sorted keys, and reads the inner tuples page run by
// page run in RID order, decoding each straight into its results. With
// no index on innerAttr, every outer tuple scans the inner relation.
func IndexJoin(outer Iterator, inner *Relation, outerAttr int, innerAttr string) Iterator {
	attr, err := inner.attr(innerAttr)
	if err == nil && outerAttr < 0 {
		err = fmt.Errorf("rel: join on outer attribute %d", outerAttr)
	}
	if err != nil {
		outer.Close()
		return &errIter{err: err}
	}
	outer = &keyed{Iterator: outer, attr: outerAttr}
	idx, ok := inner.indexes[attr]
	if !ok {
		return NestedLoopJoin(outer, func() Iterator {
			inner.cat.idxFallbck.Inc()
			return SeqScan(inner)
		}, func(o, i Tuple) bool { return i[attr].Compare(o[outerAttr]) == 0 })
	}
	return &indexJoin{outer: outer, inner: inner, attr: outerAttr, idx: idx}
}

// keyed passes an outer stream on, refusing a tuple too short to hold
// the join attribute.
type keyed struct {
	Iterator
	attr int
}

func (k *keyed) Next() (Tuple, error) {
	t, err := k.Iterator.Next()
	if t != nil && k.attr >= len(t) {
		return nil, fmt.Errorf("rel: join on outer attribute %d of a %d-attribute tuple", k.attr, len(t))
	}
	return t, err
}

func (j *indexJoin) Next() (Tuple, error) {
	for j.pos == len(j.out) {
		if j.done {
			return nil, nil
		}
		if err := j.batch(); err != nil {
			j.Close()
			return nil, err
		}
	}
	t := j.out[j.pos]
	j.out[j.pos] = nil
	j.pos++
	j.inner.cat.idxMatched.Inc()
	return t, nil
}

// batch reads the next batch of outer tuples and joins it into j.out.
func (j *indexJoin) batch() error {
	clear(j.outers)
	j.outers, j.out, j.pos = j.outers[:0], j.out[:0], 0
	for len(j.outers) < joinBatch {
		t, err := j.outer.Next()
		if err != nil {
			return err
		}
		if t == nil {
			j.done = true
			break
		}
		j.outers = append(j.outers, t)
	}
	m := len(j.outers)
	if m == 0 {
		return nil
	}
	j.inner.cat.idxChoices.Add(uint64(m))

	// Sort the probes by key and probe the index once for each key.
	j.buf, j.probes = slices.Grow(j.buf[:0], 8*m), slices.Grow(j.probes[:0], m)
	for i, t := range j.outers {
		lo := len(j.buf)
		j.buf = t[j.attr].appendKey(j.buf)
		j.probes = append(j.probes, probe{int32(lo), int32(len(j.buf)), int32(i)})
	}
	key := func(p probe) []byte { return j.buf[p.lo:p.hi] }
	slices.SortFunc(j.probes, func(a, b probe) int { return bytes.Compare(key(a), key(b)) })
	j.keys, j.group = slices.Grow(j.keys[:0], m), slices.Grow(j.group[:0], m+1)
	j.slot = slices.Grow(j.slot[:0], m)[:m]
	for i, p := range j.probes {
		if i == 0 || !bytes.Equal(key(p), j.keys[len(j.keys)-1]) {
			j.keys = append(j.keys, key(p))
			j.group = append(j.group, int32(i))
		}
		j.slot[p.at] = int32(len(j.keys) - 1)
	}
	j.group = append(j.group, int32(m))
	j.nhits = slices.Grow(j.nhits[:0], len(j.keys))[:len(j.keys)]
	clear(j.nhits)
	j.hits = slices.Grow(j.hits[:0], m)
	err := j.idx.Probe(j.keys, func(d int, val uint64) {
		j.hits = append(j.hits, hit{rid: val, key: int32(d), rank: j.nhits[d]})
		j.nhits[d]++
	})
	if err != nil {
		return err
	}

	// Place the results by counting: an outer tuple's results start
	// after those of the tuples before it.
	total := int32(0)
	for i, d := range j.slot {
		j.slot[i] = total
		total += j.nhits[d]
	}
	j.inner.cat.idxScanned.Add(uint64(total))
	j.out = slices.Grow(j.out, int(total))[:total]

	// Read the inner tuples in RID order, one pin per page run.
	slices.SortFunc(j.hits, func(a, b hit) int { return cmp.Compare(a.rid, b.rid) })
	j.rids = slices.Grow(j.rids[:0], len(j.hits))
	for _, h := range j.hits {
		j.rids = append(j.rids, store.UnpackRID(h.rid))
	}
	schema := &j.inner.Schema
	return j.inner.heap.ReadRuns(j.rids, func(i int, data []byte) error {
		h := j.hits[i]
		for _, p := range j.probes[j.group[h.key]:j.group[h.key+1]] {
			o := j.outers[p.at]
			t, err := appendTuple(append(make(Tuple, 0, len(o)+len(schema.Attrs)), o...), data, schema)
			if err != nil {
				return err
			}
			j.out[j.slot[p.at]+h.rank] = t
		}
		return nil
	})
}

func (j *indexJoin) Close() {
	j.outer.Close()
	clear(j.out)
	clear(j.outers)
	j.out, j.pos, j.done = nil, 0, true
}

// --- helpers -------------------------------------------------------------------

// Collect drains an iterator and closes it.
func Collect(it Iterator) ([]Tuple, error) {
	defer it.Close()
	var out []Tuple
	for {
		t, err := it.Next()
		if err != nil {
			return out, err
		}
		if t == nil {
			return out, nil
		}
		out = append(out, t)
	}
}

// Count drains an iterator counting tuples, and closes it.
func Count(it Iterator) (int, error) {
	defer it.Close()
	n := 0
	for {
		t, err := it.Next()
		if err != nil {
			return n, err
		}
		if t == nil {
			return n, nil
		}
		n++
	}
}
