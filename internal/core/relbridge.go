package core

import (
	"fmt"

	"repro/internal/dict"
	"repro/internal/edb"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/term"
	"repro/internal/wam"
)

// CreateRelation registers a relation in the catalog under the KB write lock.
func (s *Session) CreateRelation(schema rel.Schema) (*rel.Relation, error) {
	unlock := s.wlock()
	defer unlock()
	return s.kb.cat.Create(schema)
}

// InsertTuples appends tuples to a stored relation under the session's
// write lock, so the write joins the session's open transaction.
func (s *Session) InsertTuples(name string, ts []rel.Tuple) error {
	if s.kb.st.ReadOnly() {
		return store.ErrReadOnly
	}
	unlock := s.wlock()
	defer unlock()
	r := s.kb.cat.Get(name)
	if r == nil {
		return fmt.Errorf("core: no relation %s", name)
	}
	return r.InsertAll(ts)
}

// Relation fetches a relation by name under the session's rlock, safe
// inside an open transaction (which holds the KB lock exclusively).
func (s *Session) Relation(name string) *rel.Relation {
	unlock := s.rlock()
	defer unlock()
	return s.kb.cat.Get(name)
}

// relationFor returns the catalog relation that answers calls of pi, or
// nil. Caller holds the KB read lock.
func (s *Session) relationFor(pi term.Indicator) *rel.Relation {
	if r := s.kb.cat.Get(pi.Name); r != nil && len(r.Schema.Attrs) == pi.Arity {
		return r
	}
	return nil
}

// openRelation opens the tuple stream of a call of relation pi, looked up
// afresh (nil: gone). arg(i) is argument i if bound and atomic; the path
// scans the index of the first bound attribute that has one, else the
// relation, filtered on the other bound attributes of their type. Each
// step takes the KB read lock.
func (s *Session) openRelation(pi term.Indicator, arg func(i int) (rel.Value, bool)) func() (rel.Tuple, error) {
	unlock := s.rlock()
	defer unlock()
	r := s.relationFor(pi)
	if r == nil {
		return nil
	}
	var it rel.Iterator
	filter := map[int]rel.Value{}
	for i, a := range r.Schema.Attrs {
		switch v, ok := arg(i); {
		case !ok || v.Type != a.Type:
		case it == nil && r.HasIndex(a.Name):
			it = rel.IndexScan(r, a.Name, v, v)
		default:
			filter[i] = v
		}
	}
	if it == nil {
		it = rel.SeqScan(r)
	}
	it = rel.Select(it, func(t rel.Tuple) bool {
		for i, v := range filter {
			if t[i].Compare(v) != 0 {
				return false
			}
		}
		return true
	})
	return func() (rel.Tuple, error) {
		unlock := s.rlock()
		defer unlock()
		return it.Next()
	}
}

// relationProc installs the WAM procedure of relation pi (functor fn),
// filed as pi's all-wild variant at stored version ver, so a procedure
// stored under pi replaces it; a call once the relation is gone raises
// existence_error.
func (s *Session) relationProc(fn dict.ID, pi term.Indicator, ver uint64) *wam.Proc {
	if proc := s.catchUp(fn, s.resident[fn], ver).lookup(callKey{}); proc != nil {
		s.m.DefineProc(proc)
		return proc
	}
	v := &variant{Proc: *s.streamProc(fn, "rel", func(m *wam.Machine) (func() (rel.Tuple, error), error) {
		if next := s.openRelation(pi, func(i int) (rel.Value, bool) { return s.cellValue(m.Deref(m.Reg(i))) }); next != nil {
			return next, nil
		}
		return nil, &wam.ErrUnknownProc{Name: pi.Name, Arity: pi.Arity}
	})}
	for i := range v.fk {
		v.fk[i] = edb.WildKey()
	}
	return s.file(fn, pi, ver, 0, callKey{}, v)
}

// streamProc returns an uninstalled procedure for fn, builtin $kind_fn,
// whose call opens a tuple stream (nil fails it) and answers with each
// tuple that unifies with its arguments: a relation, or a fixpoint.
func (s *Session) streamProc(fn dict.ID, kind string, open func(m *wam.Machine) (func() (rel.Tuple, error), error)) *wam.Proc {
	arity := s.m.Dict.Arity(fn)
	idx := s.m.RegisterBuiltin(wam.Builtin{
		Name:  fmt.Sprintf("$%s_%s_%d", kind, s.m.Dict.Name(fn), arity),
		Arity: arity,
		Fn: func(m *wam.Machine, _ []wam.Cell) (bool, error) {
			next, err := open(m)
			if next == nil {
				return false, err
			}
			redo := func(m *wam.Machine) (bool, error) {
				for {
					t, err := next()
					if err != nil || t == nil {
						return false, err
					}
					if m.TryUnify(func() bool {
						i := 0
						for i < arity && m.Unify(m.Reg(i), s.relValueToCell(t[i])) {
							i++
						}
						return i == arity
					}) {
						return true, nil
					}
				}
			}
			m.PushRedo(redo)
			return redo(m)
		},
	})
	p := s.m.BuiltinProc(fn, idx)
	p.Transient = true
	return p
}

// cellValue is a bound atomic cell as a relational value (atom: string).
func (s *Session) cellValue(c wam.Cell) (rel.Value, bool) {
	switch c.Tag() {
	case wam.TagInt:
		return rel.IntV(c.IntVal()), true
	case wam.TagFlt:
		return rel.FloatV(s.m.Float(c)), true
	case wam.TagCon:
		return rel.StringV(s.m.Dict.Name(c.AtomID())), true
	}
	return rel.Value{}, false
}

// relValueToCell converts a relational value to a heap cell.
func (s *Session) relValueToCell(v rel.Value) wam.Cell {
	switch v.Type {
	case rel.Int:
		return wam.MakeInt(v.I)
	case rel.Float:
		return s.m.PushFloat(v.F)
	default:
		return wam.MakeCon(s.m.Dict.Intern(v.S, 0))
	}
}

// termValue is cellValue for a resolved term.
func termValue(t term.Term) (rel.Value, bool) {
	switch t := t.(type) {
	case term.Int:
		return rel.IntV(int64(t)), true
	case term.Float:
		return rel.FloatV(float64(t)), true
	case term.Atom:
		return rel.StringV(string(t)), true
	}
	return rel.Value{}, false
}

// tupleTerm is relValueToCell for a tuple of relation pi, as a term.
func tupleTerm(pi term.Indicator, t rel.Tuple) term.Term {
	args := make([]term.Term, len(t))
	for i, v := range t {
		switch v.Type {
		case rel.Int:
			args[i] = term.Int(v.I)
		case rel.Float:
			args[i] = term.Float(v.F)
		default:
			args[i] = term.Atom(v.S)
		}
	}
	return term.Comp(pi.Name, args...)
}
