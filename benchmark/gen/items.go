package gen

import (
	"fmt"
	"strings"
)

// ItemsSize sizes the keyed-fact knowledge base of term_cold.
type ItemsSize struct {
	Facts int // item/4 facts, one per key
	Rules int // two-clause rule procedures r<j>/2
}

// Items is the term_cold knowledge base: one item(Key, Group, Value, Tag)
// fact per key and Rules procedures
//
//	r<j>(K, V) :- item(K, G, X, _), G < 5,  V is X + j.
//	r<j>(K, V) :- item(K, G, X, _), G >= 5, V is X * 2 + j.
//
// of which exactly one clause succeeds for any key. Each procedure is a
// distinct entry in the code caches, and each key a distinct
// pre-unification pattern, so uniformly random calls keep missing both.
type Items struct {
	// Source is the clause text of facts and rules: the user data.
	Source string
	sz     ItemsSize
	values []int
}

// NewItems generates the facts and rule procedures.
func NewItems(seed uint64, sz ItemsSize) *Items {
	r := NewRNG(seed, "items")
	it := &Items{sz: sz, values: make([]int, sz.Facts)}
	var b strings.Builder
	for i := range it.values {
		it.values[i] = r.Intn(1000)
		fmt.Fprintf(&b, "item(k%d, %d, %d, tag_%d).\n", i, i%10, it.values[i], i%7)
	}
	for j := 0; j < sz.Rules; j++ {
		fmt.Fprintf(&b, "r%d(K, V) :- item(K, G, X, _), G < 5, V is X + %d.\n", j, j)
		fmt.Fprintf(&b, "r%d(K, V) :- item(K, G, X, _), G >= 5, V is X * 2 + %d.\n", j, j)
	}
	it.Source = b.String()
	return it
}

type itemsStream struct {
	r  *RNG
	it *Items
}

// Calls returns the stream of term_cold: 70 % keyed fact calls and 30 %
// calls through a random rule procedure, keys uniform over all facts.
func (it *Items) Calls(seed uint64) Stream {
	return &itemsStream{r: NewRNG(seed, "items-ops"), it: it}
}

func (s *itemsStream) Next() Op {
	i := s.r.Intn(s.it.sz.Facts)
	key := fmt.Sprintf("k%d", i)
	itemCall := Call{Pred: "item", Args: []string{key, "", "", ""}}
	v := int64(s.it.values[i])
	if s.r.Intn(10) < 7 {
		return Op{Kind: Fact, Goal: fmt.Sprintf("item(%s, G, V, Tag)", key),
			Calls: []Call{itemCall}, Want: Answer{Count: 1, Sum: v}}
	}
	j := s.r.Intn(s.it.sz.Rules)
	want := v + int64(j)
	if i%10 >= 5 {
		want = v*2 + int64(j)
	}
	rule := fmt.Sprintf("r%d", j)
	return Op{Kind: Rule, Goal: fmt.Sprintf("%s(%s, V)", rule, key),
		Calls: []Call{{Pred: rule, Args: []string{"", ""}}, itemCall}, Want: Answer{Count: 1, Sum: want}}
}
