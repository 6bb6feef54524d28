package setops

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/rel"
	"repro/internal/term"
)

// Program is a stratified Datalog program: IDB rules keyed by predicate,
// plus materialized EDB leaf relations. Order preserves the sequence in
// which IDB predicates were added, keeping evaluation deterministic.
type Program struct {
	Rules  map[term.Indicator][]Rule
	Leaves map[term.Indicator]*rel.MemRel
	Order  []term.Indicator
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{
		Rules:  map[term.Indicator][]Rule{},
		Leaves: map[term.Indicator]*rel.MemRel{},
	}
}

// AddRules registers the IDB predicate's rules.
func (p *Program) AddRules(pred term.Indicator, rules []Rule) {
	if _, dup := p.Rules[pred]; !dup {
		p.Order = append(p.Order, pred)
	}
	p.Rules[pred] = rules
}

// AddLeaf registers a materialized EDB relation.
func (p *Program) AddLeaf(pred term.Indicator, r *rel.MemRel) {
	p.Leaves[pred] = r
}

// Validate checks that every body literal resolves to an IDB predicate
// or a leaf with matching arity.
func (p *Program) Validate() error {
	for pred, rules := range p.Rules {
		for _, r := range rules {
			if r.Head.Pred != pred {
				return fmt.Errorf("setops: rule head %v under predicate %v", r.Head.Pred, pred)
			}
			for _, lit := range r.Body {
				if _, ok := p.Rules[lit.Pred]; ok {
					continue
				}
				if leaf, ok := p.Leaves[lit.Pred]; ok {
					if leaf.Arity() != lit.Pred.Arity {
						return fmt.Errorf("setops: leaf %v arity mismatch", lit.Pred)
					}
					continue
				}
				return fmt.Errorf("setops: unresolved predicate %v", lit.Pred)
			}
		}
	}
	return nil
}

// Stratum is one strongly connected component of the IDB dependency
// graph, in bottom-up evaluation order. Recursive is set when the
// component needs fixpoint iteration (self-loop or size > 1).
type Stratum struct {
	Preds     []term.Indicator
	Recursive bool
}

// Stratify orders the IDB predicates into SCC strata, dependencies
// first (Tarjan's algorithm; the reverse finishing order of SCCs is a
// topological order of the condensation).
func (p *Program) Stratify() []Stratum {
	index := map[term.Indicator]int{}
	low := map[term.Indicator]int{}
	onStack := map[term.Indicator]bool{}
	var stack []term.Indicator
	var strata []Stratum
	next := 0

	var strongconnect func(v term.Indicator)
	strongconnect = func(v term.Indicator) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		selfLoop := false
		for _, r := range p.Rules[v] {
			for _, lit := range r.Body {
				w := lit.Pred
				if _, idb := p.Rules[w]; !idb {
					continue
				}
				if w == v {
					selfLoop = true
				}
				if _, seen := index[w]; !seen {
					strongconnect(w)
					if low[w] < low[v] {
						low[v] = low[w]
					}
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var comp []term.Indicator
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			// Deterministic member order within the component.
			sort.Slice(comp, func(i, j int) bool {
				if comp[i].Name != comp[j].Name {
					return comp[i].Name < comp[j].Name
				}
				return comp[i].Arity < comp[j].Arity
			})
			strata = append(strata, Stratum{
				Preds:     comp,
				Recursive: len(comp) > 1 || selfLoop,
			})
		}
	}
	for _, v := range p.Order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return strata
}

// Recursive reports whether pred's SCC needs fixpoint iteration.
func (p *Program) Recursive(pred term.Indicator) bool {
	for _, st := range p.Stratify() {
		if slices.Contains(st.Preds, pred) {
			return st.Recursive
		}
	}
	return false
}

// step is one join stage of a compiled rule plan: scan or probe one body
// literal, filter on bound slots (a slot is a rule variable or, past them,
// one of the plan's constants), and bind the rest.
type step struct {
	lit Literal
	// probeCol is the column to probe via the source relation's hash
	// index, or -1 for a full scan; probeVar is the slot of its key.
	probeCol, probeVar int
	// checks are (column, slot) pairs that must equal a bound slot; binds
	// are (column, slot) pairs this step binds.
	checks, binds [][2]int
}

// plan is the compiled operator pipeline of one rule: join steps, then
// the head projection. A delta plan's first step scans the round's delta;
// a rederivation plan first matches head against the candidate tuple.
type plan struct {
	rule   Rule
	head   step
	steps  []step
	delta  bool
	consts []rel.Value // the slots after the rule's variables
}

// planRule compiles a rule into join steps with static knowledge of
// which slots are bound at each stage (the translator's analogue of
// access-path selection: probe a hash index when a column is bound,
// otherwise scan). first >= 0 plans body literal first ahead of the rest;
// first < 0 the rederivation, which binds the head before the body.
func planRule(r Rule, first int) plan {
	pl := plan{rule: r, delta: first >= 0}
	bound := make([]bool, r.NVars)
	literal := func(lit Literal, probe bool) step {
		st := step{lit: lit, probeCol: -1}
		for col, a := range lit.Args {
			v := a.Var
			if !a.IsVar {
				v = len(bound)
				pl.consts, bound = append(pl.consts, a.Val), append(bound, true)
			}
			fresh := !bound[v]
			for _, b := range st.binds {
				fresh = fresh && b[1] != v // a repeat within the literal is a selection
			}
			switch {
			case fresh:
				st.binds = append(st.binds, [2]int{col, v})
			case probe && st.probeCol < 0 && bound[v]:
				st.probeCol, st.probeVar = col, v
			default:
				st.checks = append(st.checks, [2]int{col, v})
			}
		}
		for _, b := range st.binds {
			bound[b[1]] = true
		}
		return st
	}
	if first < 0 {
		pl.head = literal(r.Head, false)
	} else {
		pl.steps = append(pl.steps, literal(r.Body[first], false))
	}
	for j, lit := range r.Body {
		if j != first {
			pl.steps = append(pl.steps, literal(lit, true))
		}
	}
	return pl
}

// env returns fresh slots for one run of the plan.
func (pl *plan) env() []rel.Value {
	return append(make([]rel.Value, pl.rule.NVars, pl.rule.NVars+len(pl.consts)), pl.consts...)
}

// match binds the step's fresh slots from t and applies its selections.
func (st *step) match(t rel.Tuple, env []rel.Value) bool {
	for _, b := range st.binds {
		env[b[1]] = t[b[0]]
	}
	for _, ch := range st.checks {
		if !rel.ValueEq(t[ch[0]], env[ch[1]]) {
			return false
		}
	}
	return true
}
