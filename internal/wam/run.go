package wam

import (
	"errors"

	"repro/internal/dict"
)

// ErrHalted is returned by builtin halt/0 to stop the session.
var ErrHalted = errors.New("wam: halted")

// Run drives one query to completion, one solution at a time.
type Run struct {
	m       *Machine
	fn      dict.ID
	arity   int
	started bool
	done    bool
}

// Call prepares a call to the procedure fn/arity with the given argument
// cells (which the caller typically creates with NewVar/EncodeTerm). The
// query runs when Next is first called.
func (m *Machine) Call(fn dict.ID, args []Cell) *Run {
	m.ensureRegs(len(args))
	copy(m.x, args)
	m.numArgs = len(args)
	m.cp = codePtr{blk: m.haltBlock}
	m.b0 = m.b
	m.solutions = 0 // the solution quota is per query
	return &Run{m: m, fn: fn, arity: len(args)}
}

// Next produces the next solution. It returns false when no (further)
// solution exists. Bindings are available on the machine heap through the
// argument cells passed to Call until Next or Close is called again.
func (r *Run) Next() (bool, error) {
	if r.done {
		return false, nil
	}
	m := r.m
	if !r.started {
		r.started = true
		m.stats.Calls++
		proc, err := m.lookupProc(r.fn)
		if err != nil {
			r.done = true
			return false, AsBall(err)
		}
		if m.prof != nil {
			m.prof.portCall(r.fn, proc.Block)
		}
		m.p = codePtr{blk: proc.Block}
	} else if !m.backtrack() {
		r.done = true
		return false, nil
	}
	ok, err := m.runLoop()
	if err != nil || !ok {
		r.done = true
	}
	if ok && err == nil {
		m.solutions++
	}
	return ok, err
}

// Close abandons the query. The machine keeps its heap contents until the
// next query resets it; call Machine.Reset to reclaim everything.
func (r *Run) Close() { r.done = true }
