package setops

import (
	"repro/internal/rel"
	"repro/internal/term"
)

// Stats accumulates fixpoint metrics for the obs counters.
type Stats struct {
	// Iterations is the number of evaluation rounds, over every stratum.
	Iterations int
	// DeltaTuples is the total number of new tuples produced across all
	// rounds — the real work the semi-naive optimization bounds.
	DeltaTuples int
}

// Eval computes the fixpoint of the program bottom-up, stratum by
// stratum, using semi-naive (delta-driven) iteration inside recursive
// components, with every leaf tuple and rule fact new. It returns one
// materialized relation per IDB predicate, each in a deterministic
// derivation order. check, when non-nil, is called between rounds so
// callers can map deadlines and interrupts onto the set-at-a-time
// evaluator.
func (p *Program) Eval(stats *Stats, check func() error) (map[term.Indicator]*rel.MemRel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	totals := map[term.Indicator]*rel.MemRel{}
	delta := map[term.Indicator][]rel.Tuple{}
	for _, pred := range p.Order {
		totals[pred] = rel.NewMemRel(pred.Arity)
		for _, r := range p.Rules[pred] {
			if len(r.Body) > 0 {
				continue
			}
			fact := make(rel.Tuple, len(r.Head.Args))
			for i, a := range r.Head.Args {
				fact[i] = a.Val
			}
			if c, ok := totals[pred].Insert(fact); ok {
				delta[pred] = append(delta[pred], c)
			}
		}
	}
	for pred, leaf := range p.Leaves {
		delta[pred] = leaf.Tuples()
	}
	if err := p.propagate(delta, totals, p.source(totals), stats, check); err != nil {
		return nil, err
	}
	return totals, nil
}

// Maintain brings totals, the fixpoint of p over p.Leaves, up to date with
// the changed leaves, which become p's leaves, by DRed: over-delete what
// has a derivation using a deleted tuple, all against the old leaves and
// totals (updated lower strata would hide derivations using two deleted
// tuples), remove it, put back what still has a derivation, and propagate
// that and the inserted tuples. An error leaves totals part-way updated.
func (p *Program) Maintain(totals, changed map[term.Indicator]*rel.MemRel, stats *Stats, check func() error) error {
	src := p.source(totals)
	dels, ins := map[term.Indicator][]rel.Tuple{}, map[term.Indicator][]rel.Tuple{}
	for pred, leaf := range changed {
		dels[pred], ins[pred] = minus(p.Leaves[pred], leaf), minus(leaf, p.Leaves[pred])
	}
	gone := map[term.Indicator]*rel.MemRel{}
	for _, pred := range p.Order {
		gone[pred] = rel.NewMemRel(pred.Arity)
	}
	if err := p.propagate(dels, gone, src, stats, check); err != nil {
		return err
	}
	for _, pred := range p.Order {
		for _, t := range gone[pred].Tuples() {
			totals[pred].Delete(t)
		}
	}
	for pred, leaf := range changed {
		p.Leaves[pred] = leaf
	}
	for _, pred := range p.Order {
		var plans []plan
		for _, r := range p.Rules[pred] {
			plans = append(plans, planRule(r, -1))
		}
		for _, t := range gone[pred].Tuples() {
			for i := range plans {
				env := plans[i].env()
				// The head binds the candidate; the first derivation stops the run.
				if plans[i].head.match(t, env) && !plans[i].run(env, nil, src, func(rel.Tuple) bool { return false }) {
					c, _ := totals[pred].Insert(t)
					ins[pred] = append(ins[pred], c)
					break
				}
			}
		}
	}
	return p.propagate(ins, totals, src, stats, check)
}

// source resolves a body predicate to the relation rules read: its total
// for an IDB predicate, else its leaf.
func (p *Program) source(totals map[term.Indicator]*rel.MemRel) func(term.Indicator) *rel.MemRel {
	return func(pred term.Indicator) *rel.MemRel {
		if r, ok := totals[pred]; ok {
			return r
		}
		return p.Leaves[pred]
	}
}

// propagate is the one semi-naive loop of full evaluation and both
// maintenance passes. delta holds, per predicate, tuples of its source
// (src) that into does not account for yet. Stratum by stratum, each round
// runs every rule once per body literal with a delta, scanning that delta
// first and probing src for the rest; tuples new to into are the next
// round's delta and, with the stratum's incoming delta, the upper strata's.
func (p *Program) propagate(delta map[term.Indicator][]rel.Tuple, into map[term.Indicator]*rel.MemRel, src func(term.Indicator) *rel.MemRel, stats *Stats, check func() error) error {
	for _, st := range p.Stratify() {
		out := map[term.Indicator][]rel.Tuple{}
		plans := map[term.Indicator][][]plan{}
		for _, m := range st.Preds {
			out[m] = delta[m]
			for _, r := range p.Rules[m] {
				rp := make([]plan, len(r.Body))
				for j := range r.Body {
					rp[j] = planRule(r, j)
				}
				plans[m] = append(plans[m], rp)
			}
		}
		for cur := delta; ; {
			// A relation empty at the round's start joins with nothing: what
			// a member gains meanwhile is next round's delta.
			empty, pending := map[term.Indicator]bool{}, false
			for _, m := range st.Preds {
				for _, r := range p.Rules[m] {
					for _, lit := range r.Body {
						empty[lit.Pred] = src(lit.Pred).Len() == 0
						pending = pending || len(cur[lit.Pred]) > 0
					}
				}
			}
			if !pending {
				break
			}
			if check != nil {
				if err := check(); err != nil {
					return err
				}
			}
			stats.Iterations++
			next := map[term.Indicator][]rel.Tuple{}
			for _, m := range st.Preds {
				emit := func(t rel.Tuple) bool {
					if c, ok := into[m].Insert(t); ok {
						stats.DeltaTuples++
						next[m], out[m] = append(next[m], c), append(out[m], c)
					}
					return true
				}
				for ri, r := range p.Rules[m] {
					for _, j := range deltaLiterals(r, cur, src, empty) {
						pl := &plans[m][ri][j]
						pl.run(pl.env(), cur[r.Body[j].Pred], src, emit)
					}
				}
			}
			if !st.Recursive {
				break
			}
			cur = next
		}
		for m, ts := range out {
			delta[m] = ts
		}
	}
	return nil
}

// deltaLiterals picks r's delta literals: none if a literal reads an empty
// relation (a delta is part of its source), only one whose delta is its
// whole source (that run finds every derivation), else all with a delta.
func deltaLiterals(r Rule, delta map[term.Indicator][]rel.Tuple, src func(term.Indicator) *rel.MemRel, empty map[term.Indicator]bool) []int {
	var js []int
	whole := false
	for j, lit := range r.Body {
		if empty[lit.Pred] {
			return nil
		}
		if d := delta[lit.Pred]; len(d) > 0 && !whole {
			if whole = len(d) == src(lit.Pred).Len(); whole {
				js = js[:0]
			}
			js = append(js, j)
		}
	}
	return js
}

// run executes a compiled plan from env: nested-loop joins with hash
// probes where a column is statically bound, equality selections, and a
// projection onto the head, passed to emit in one scratch tuple. A delta
// plan's first step scans delta. emit returns false to stop the run, and
// run whether it ran to the end.
func (pl *plan) run(env []rel.Value, delta []rel.Tuple, src func(term.Indicator) *rel.MemRel, emit func(rel.Tuple) bool) bool {
	head := make(rel.Tuple, len(pl.rule.Head.Args))
	var rec func(si int) bool
	rec = func(si int) bool {
		if si == len(pl.steps) {
			for i, a := range pl.rule.Head.Args {
				if a.IsVar {
					head[i] = env[a.Var]
				} else {
					head[i] = a.Val
				}
			}
			return emit(head)
		}
		st := &pl.steps[si]
		tuples := delta
		if si > 0 || !pl.delta {
			reln := src(st.lit.Pred)
			tuples = reln.Tuples()
			if st.probeCol >= 0 {
				for _, pos := range reln.Lookup(st.probeCol, env[st.probeVar]) {
					if t := tuples[pos]; t != nil && st.match(t, env) && !rec(si+1) {
						return false
					}
				}
				return true
			}
		}
		for _, t := range tuples {
			if t != nil && st.match(t, env) && !rec(si+1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// minus returns the tuples of a that b lacks, in a's order.
func minus(a, b *rel.MemRel) []rel.Tuple {
	var out []rel.Tuple
	for _, t := range a.Tuples() {
		if t != nil && !b.Contains(t) {
			out = append(out, t)
		}
	}
	return out
}
