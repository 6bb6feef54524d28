package core

import (
	"testing"

	"repro/internal/dict"
	"repro/internal/wam"
)

// countTraps wraps s's interpreter trap with a counter of its calls.
func countTraps(s *Session) *int {
	n, trap := new(int), s.m.OnUndefined
	s.m.OnUndefined = func(m *wam.Machine, fn dict.ID) (*wam.Proc, error) {
		*n++
		return trap(m, fn)
	}
	return n
}

// hitEntry reports whether fn's procedure-table entry in s is a resident
// record's hit entry.
func hitEntry(s *Session, name string, arity int) bool {
	p := s.m.Proc(s.m.Dict.Intern(name, arity))
	return p != nil && p.Hit != nil
}

// countAdmits counts, until t ends, the variants eviction tests against a
// write key.
func countAdmits(t *testing.T) *int {
	n, scan := new(int), admits
	admits = func(fk, w filterKey) bool {
		*n++
		return scan(fk, w)
	}
	t.Cleanup(func() { admits = scan })
	return n
}
