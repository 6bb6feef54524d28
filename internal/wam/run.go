package wam

import (
	"errors"

	"repro/internal/dict"
)

// ErrHalted is returned by builtin halt/0 to stop the session.
var ErrHalted = errors.New("wam: halted")

// Run drives one query to completion, one solution at a time. It is a
// value its caller owns, filled by Machine.Call.
type Run struct {
	m       *Machine
	fn      dict.ID
	started bool
	done    bool
}

// Call fills r with a call to the procedure fn with the given argument
// cells (which the caller typically creates with NewVar/EncodeTerm). The
// query runs when r.Next is first called.
func (m *Machine) Call(r *Run, fn dict.ID, args []Cell) {
	m.ensureRegs(len(args))
	copy(m.x, args)
	m.numArgs = len(args)
	m.cp = codePtr{blk: m.haltBlock}
	m.b0 = m.b
	m.solutions = 0 // the solution quota is per query
	*r = Run{m: m, fn: fn}
}

// Next produces the next solution. It returns false when no (further)
// solution exists. Bindings are available on the machine heap through the
// argument cells passed to Call until Next is called again or the machine
// is reset.
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
	r.done = err != nil || !ok
	if !r.done {
		m.solutions++
	}
	return ok, err
}
