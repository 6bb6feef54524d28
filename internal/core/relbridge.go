package core

import (
	"fmt"

	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/wam"
)

// CreateRelation registers a relation in the catalog, under the KB write
// lock.
func (s *Session) CreateRelation(schema rel.Schema) (*rel.Relation, error) {
	unlock := s.wlock()
	defer unlock()
	return s.kb.cat.Create(schema)
}

// InsertTuples appends tuples to a stored relation under the session's
// write lock, so the write participates in the session's open
// transaction (KnowledgeBase.InsertTuples would deadlock against the
// transaction's own lock).
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

// Relation fetches a relation by name. It goes through the session's
// rlock so it stays safe inside an open transaction (which already
// holds the KB lock exclusively).
func (s *Session) Relation(name string) *rel.Relation {
	unlock := s.rlock()
	defer unlock()
	return s.kb.cat.Get(name)
}

// BindRelation exposes a stored relation as a Prolog predicate of the same
// name and arity, implemented as a nondeterministic cursor over the record
// manager — the deterministic low-level interface of §3.2.1 wrapped in a
// single choice point. When an argument with an index is bound, the cursor
// uses an index scan (choice-point elision for selective access); otherwise
// it scans sequentially, filtering on whatever arguments are bound.
//
// This is the term-oriented face of the dual evaluation strategy (§4); the
// set-oriented face is the rel package's operator tree. The cursor takes
// the KB read lock around each step, so concurrent sessions can drive
// cursors over the same stored relation.
func (s *Session) BindRelation(name string) error {
	unlock := s.rlock()
	r := s.kb.cat.Get(name)
	unlock()
	if r == nil {
		return fmt.Errorf("core: no relation %s", name)
	}
	arity := len(r.Schema.Attrs)
	cursor := func(m *wam.Machine, args []wam.Cell) (bool, error) {
		// Snapshot bound argument values.
		type boundArg struct {
			pos int
			val rel.Value
		}
		var bound []boundArg
		for i := 0; i < arity; i++ {
			if v, ok := s.cellToRelValue(m.Deref(m.Reg(i)), r.Schema.Attrs[i].Type); ok {
				bound = append(bound, boundArg{pos: i, val: v})
			}
		}
		// Pick an access path: an indexed bound attribute if available.
		var it rel.Iterator
		usedIndex := -1
		unlock := s.rlock()
		for _, ba := range bound {
			if r.HasIndex(r.Schema.Attrs[ba.pos].Name) {
				it = rel.IndexScan(r, r.Schema.Attrs[ba.pos].Name, ba.val, ba.val)
				usedIndex = ba.pos
				break
			}
		}
		if it == nil {
			it = rel.SeqScan(r)
		}
		unlock()
		// Residual filter over the remaining bound attributes.
		filter := make([]boundArg, 0, len(bound))
		for _, ba := range bound {
			if ba.pos != usedIndex {
				filter = append(filter, ba)
			}
		}
		return s.tupleCursor(m, arity, func() (rel.Tuple, error) {
		scan:
			for {
				unlock := s.rlock()
				t, err := it.Next()
				unlock()
				if err != nil || t == nil {
					it.Close()
					return nil, err
				}
				for _, ba := range filter {
					if t[ba.pos].Compare(ba.val) != 0 {
						continue scan
					}
				}
				return t, nil
			}
		})
	}

	idx := s.m.RegisterBuiltin(wam.Builtin{Name: "$rel_" + name, Arity: arity, Fn: cursor})
	// Also install the relation under its own name.
	s.m.DefineProc(s.m.BuiltinProc(s.m.Dict.Intern(name, arity), idx))
	return nil
}

// tupleCursor is the body of a nondeterministic builtin over a tuple
// stream: next yields tuples until nil, each is unified with the call's
// arity argument registers, and the first that unifies is the solution,
// with a choice point left behind for the rest.
func (s *Session) tupleCursor(m *wam.Machine, arity int, next func() (rel.Tuple, error)) (bool, error) {
	redo := func(m *wam.Machine) (bool, error) {
		for {
			t, err := next()
			if err != nil || t == nil {
				return false, err
			}
			ok := m.TryUnify(func() bool {
				for i := 0; i < arity; i++ {
					if !m.Unify(m.Reg(i), s.relValueToCell(t[i])) {
						return false
					}
				}
				return true
			})
			if ok {
				return true, nil
			}
		}
	}
	m.PushRedo(redo)
	return redo(m)
}

// cellToRelValue converts a bound cell to a relational value of the
// attribute's type; ok is false for unbound or mismatched cells.
func (s *Session) cellToRelValue(c wam.Cell, typ rel.Type) (rel.Value, bool) {
	switch c.Tag() {
	case wam.TagInt:
		if typ == rel.Int {
			return rel.IntV(c.IntVal()), true
		}
	case wam.TagFlt:
		if typ == rel.Float {
			return rel.FloatV(s.m.Float(c)), true
		}
	case wam.TagCon:
		if typ == rel.String {
			return rel.StringV(s.m.Dict.Name(c.AtomID())), true
		}
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
