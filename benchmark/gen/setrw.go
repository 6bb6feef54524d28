package gen

import (
	"fmt"
	"strings"

	"repro/internal/bench/wisconsin"
	"repro/internal/rel"
)

// SetSize sizes the set_rw knowledge base.
type SetSize struct {
	Tuples   int // tuples in each of the two Wisconsin relations
	Chains   int // disjoint chains of the transitive-closure graph
	ChainLen int // nodes per chain
	Depth    int // depth of the same-generation binary tree
}

// Names of the two Wisconsin relations.
const (
	RelA = "wisc_a"
	RelB = "wisc_b"
)

// SetRules is the recursive program: edge is the union of two base
// relations and par of two others (the formulation of the repository's
// dual-strategy experiment), path is their transitive closure, and sg
// relates nodes of the same generation.
const SetRules = `edge(X, Y) :- fwd(X, Y).
edge(X, Y) :- alt(X, Y).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
par(X, P) :- mother(X, P).
par(X, P) :- father(X, P).
sg(X, X) :- node(X).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
`

// SetData is the set_rw knowledge base: two Wisconsin relations whose
// unique1 attribute is a seeded permutation and unique2 is sequential,
// the chain edges, and the tree.
type SetData struct {
	// A and B are the tuples of the two relations.
	A, B []rel.Tuple
	// Facts is the clause text of the graph and tree facts.
	Facts string
	// TupleBytes is the size of the relations' attribute values (eight
	// bytes an integer, one a character): the user data the tuples carry.
	TupleBytes int64
	sz         SetSize
	u1A        []int64 // unique1 of A by unique2
}

// NewSetData generates the relations, the chains and the tree.
func NewSetData(seed uint64, sz SetSize) *SetData {
	d := &SetData{sz: sz}
	d.A, d.u1A = wisconsinTuples(NewRNG(seed, "wisc-a"), sz.Tuples)
	d.B, _ = wisconsinTuples(NewRNG(seed, "wisc-b"), sz.Tuples)
	for _, ts := range [][]rel.Tuple{d.A, d.B} {
		for _, t := range ts {
			for _, v := range t {
				if v.Type == rel.String {
					d.TupleBytes += int64(len(v.S))
				} else {
					d.TupleBytes += 8
				}
			}
		}
	}
	var b strings.Builder
	for c := 0; c < sz.Chains; c++ {
		for i := 0; i < sz.ChainLen-1; i++ {
			base := "fwd"
			if i%2 == 1 {
				base = "alt"
			}
			fmt.Fprintf(&b, "%s(n%d_%d, n%d_%d).\n", base, c, i, c, i+1)
		}
	}
	nodes := 1<<(sz.Depth+1) - 1
	for i := 0; i < nodes; i++ {
		fmt.Fprintf(&b, "node(t%d).\n", i)
		if i > 0 {
			base := "mother"
			if i%2 == 0 {
				base = "father"
			}
			fmt.Fprintf(&b, "%s(t%d, t%d).\n", base, i, (i-1)/2)
		}
	}
	d.Facts = b.String()
	return d
}

// wisconsinTuples builds n tuples in the standard Wisconsin schema and
// returns with them the unique1 value of each unique2 position.
func wisconsinTuples(r *RNG, n int) ([]rel.Tuple, []int64) {
	fourNames := []string{"aaaa", "hhhh", "oooo", "vvvv"}
	perm := r.Perm(n)
	ts := make([]rel.Tuple, n)
	u1s := make([]int64, n)
	for i := range ts {
		u1, u2 := int64(perm[i]), int64(i)
		u1s[i] = u1
		ts[i] = rel.Tuple{
			rel.IntV(u1), rel.IntV(u2), rel.IntV(u1 % 2), rel.IntV(u1 % 4), rel.IntV(u1 % 10),
			rel.IntV(u1 % 20), rel.IntV(u1 % 100), rel.IntV(u1 % 1000), rel.IntV(u1 % 2000),
			rel.IntV(u1 % 5000), rel.IntV(u1 % 10000),
			rel.StringV(paddedString(u1)), rel.StringV(paddedString(u2)), rel.StringV(fourNames[u1%4]),
		}
	}
	return ts, u1s
}

// paddedString is the Wisconsin-style unique string of v.
func paddedString(v int64) string {
	letters := make([]byte, 7)
	for i := 6; i >= 0; i-- {
		letters[i] = byte('A' + v%26)
		v /= 26
	}
	return string(letters) + "xxxxxxxxxx"
}

// Schema returns the Wisconsin schema under the given relation name.
func Schema(name string) rel.Schema { return rel.Schema{Name: name, Attrs: wisconsin.Attrs} }

// SetBlock is the length of one block of the set_rw stream: BlockReads
// reads in a seeded order, then one write.
const SetBlock = 20

// blockReads is the fixed read mix of a block, by count.
var blockReads = []Kind{
	Sel1Pct, Sel1Pct, Sel1Pct,
	SelOne, SelOne, SelOne, SelOne, SelOne, SelOne,
	Join2, Join2,
	Path, Path, Path, Path,
	SG, SG, SG, SG,
}

type setStream struct {
	r      *RNG
	d      *SetData
	block  []Kind
	writes int
	// extraChain is the chain whose tail currently carries the edge the
	// last write asserted (-1 before the first write).
	extraChain int
	last       []string
}

// Ops returns the stream of set_rw. A write asserts an edge from the
// tail of a random chain to an extra node and retracts the edge the
// previous write asserted, so the graph keeps its size, every path query
// on the chosen chain gains exactly one answer, and the first recursive
// read after it has to see the change.
func (d *SetData) Ops(seed uint64) Stream {
	return &setStream{r: NewRNG(seed, "set-ops"), d: d, extraChain: -1}
}

func (s *setStream) Next() Op {
	if len(s.block) == 0 {
		s.block = append(s.block, blockReads...)
		for i := len(s.block) - 1; i > 0; i-- {
			j := s.r.Intn(i + 1)
			s.block[i], s.block[j] = s.block[j], s.block[i]
		}
		s.block = append(s.block, Write)
	}
	kind := s.block[0]
	s.block = s.block[1:]
	sz := s.d.sz
	n := int64(sz.Tuples)
	switch kind {
	case Sel1Pct, Join2:
		// Both select 1 % of A on unique2; the join then finds the one
		// tuple of B whose unique1 equals each selected unique1.
		width := n / 100
		lo := int64(s.r.Intn(int(n - width + 1)))
		return Op{Kind: kind, Lo: lo, Hi: lo + width - 1, Want: s.rangeAnswer(lo, lo+width-1)}
	case SelOne:
		k := int64(s.r.Intn(int(n)))
		return Op{Kind: SelOne, Lo: k, Hi: k, Want: s.rangeAnswer(k, k)}
	case Path:
		c, i := s.r.Intn(sz.Chains), s.r.Intn(sz.ChainLen-1)
		want := Answer{Count: sz.ChainLen - 1 - i}
		if c == s.extraChain {
			want.Count++
		}
		return Op{Kind: Path, Goal: fmt.Sprintf("path(n%d_%d, X)", c, i), Want: want}
	case SG:
		// A node at depth d is of the same generation as the 2^d nodes
		// of its level, itself included.
		depth := 1 + s.r.Intn(sz.Depth)
		first := 1<<depth - 1
		return Op{Kind: SG, Goal: fmt.Sprintf("sg(t%d, Y)", first+s.r.Intn(1<<depth)), Want: Answer{Count: 1 << depth}}
	}
	s.writes++
	s.extraChain = s.r.Intn(sz.Chains)
	op := Op{Kind: Write, Retract: s.last, Want: Answer{Count: 1}}
	op.Assert = []string{fmt.Sprintf("fwd(n%d_%d, x%d)", s.extraChain, sz.ChainLen-1, s.writes%2)}
	s.last = op.Assert
	return op
}

// rangeAnswer is the closed-form answer of a unique2 range selection of
// A (and of its join to B): one result per position, summing unique1.
func (s *setStream) rangeAnswer(lo, hi int64) Answer {
	want := Answer{Count: int(hi - lo + 1)}
	for k := lo; k <= hi; k++ {
		want.Sum += s.d.u1A[k]
	}
	return want
}
