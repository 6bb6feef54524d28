package wam

import (
	"time"

	"repro/internal/dict"
	"repro/internal/obs"
)

// Profiler accumulates 4-port box-model counters and self-time per
// predicate for one machine. It is single-goroutine state owned by the
// machine's session (plain fields, no locks); the session drains it at
// query end and merges the result into the knowledge base's shared
// profile table.
//
// Port semantics under last-call optimisation (see DESIGN.md §11):
//
//   - call: every transfer of control into a predicate via OpCall or
//     OpExecute — a tail call counts as a call to the callee (the
//     caller's frame is gone, so its box is left implicitly) — and every
//     local call, which counts as a call of the block's own predicate
//     (its local procedure proceeds, crossing that predicate's exit);
//   - exit: every OpProceed, attributed to the owner of the code block
//     being exited;
//   - redo/fail: a backtrack that moves control from one predicate's
//     block to another counts a fail against the predicate giving up
//     control and a redo for the predicate resumed; backtracks within
//     one predicate (its own retry chain) are internal to the box and
//     are not counted. Each enclosing box that had exited and that the
//     resumed goal's continuation re-enters counts a redo as well.
//
// Self-time is measured between port events: the elapsed wall time since
// the previous event is charged to the predicate that was executing.
// Time spent in the dynamic loader (EDB fetch + link inside lookupProc)
// lands on the caller; the loader's I/O is separately attributed to the
// callee via AttributeIO.
type Profiler struct {
	preds map[dict.ID]*obs.PredCounters

	// cur is the predicate currently being charged for wall time;
	// curOK distinguishes "none" from dict.ID zero.
	cur   dict.ID
	curOK bool
	// last is the monotonic timestamp of the previous port event.
	last time.Time
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{preds: map[dict.ID]*obs.PredCounters{}}
}

func (pr *Profiler) counters(fn dict.ID) *obs.PredCounters {
	c, ok := pr.preds[fn]
	if !ok {
		c = &obs.PredCounters{}
		pr.preds[fn] = c
	}
	return c
}

// tick charges the time since the last port event to the current
// predicate and restarts the clock.
func (pr *Profiler) tick() {
	now := time.Now()
	if pr.curOK && !pr.last.IsZero() {
		pr.counters(pr.cur).SelfNS += now.Sub(pr.last).Nanoseconds()
	}
	pr.last = now
}

// setCur makes the owner of blk the predicate charged for subsequent
// time (no owner → nothing is charged).
func (pr *Profiler) setCur(blk *CodeBlock) {
	if blk != nil && blk.HasOwner {
		pr.cur, pr.curOK = blk.Owner, true
	} else {
		pr.curOK = false
	}
}

// portCall records a call-port crossing into fn (OpCall/OpExecute/query
// entry), whose code is blk.
func (pr *Profiler) portCall(fn dict.ID, blk *CodeBlock) {
	pr.tick()
	pr.counters(fn).Calls++
	pr.setCur(blk)
}

// portLocal records a local call inside blk as a call of its owner.
func (pr *Profiler) portLocal(blk *CodeBlock) {
	pr.tick()
	if owner, ok := ownerOf(blk); ok {
		pr.counters(owner).Calls++
	}
}

// portExit records an exit-port crossing out of from (OpProceed),
// resuming in to.
func (pr *Profiler) portExit(from, to *CodeBlock) {
	pr.tick()
	if from != nil && from.HasOwner {
		pr.counters(from.Owner).Exits++
	}
	pr.setCur(to)
}

// portBacktrack records a backtrack from the failing block into the
// resumed block. Crossings within one predicate's box are not ported.
func (pr *Profiler) portBacktrack(from, to *CodeBlock) {
	pr.tick()
	fromOwner, fromOK := ownerOf(from)
	toOwner, toOK := ownerOf(to)
	if fromOK && (!toOK || fromOwner != toOwner) {
		pr.counters(fromOwner).Fails++
	}
	if toOK && (!fromOK || fromOwner != toOwner) {
		pr.counters(toOwner).Redos++
	}
	pr.setCur(to)
}

// redoExited counts a redo for each box the resumed choice point's
// continuation re-enters after it exited: each frame on its environment
// chain but not on that of e, the failed goal's (a frame lies above its
// caller's, so the chains meet where their addresses do).
func (m *Machine) redoExited(e int) {
	blk, a := m.cp.blk, m.e
	for a != e {
		if a < e {
			e = m.stack[e].SmallVal()
			continue
		}
		if owner, ok := ownerOf(blk); ok {
			m.prof.counters(owner).Redos++
		}
		blk, a = m.cellCode(m.stack[a+1]).blk, m.stack[a].SmallVal()
	}
}

// portFinalFail records the failure that exhausts the machine (no choice
// point left): the failing predicate crosses its fail port.
func (pr *Profiler) portFinalFail(from *CodeBlock) {
	pr.tick()
	if owner, ok := ownerOf(from); ok {
		pr.counters(owner).Fails++
	}
	pr.curOK = false
}

func ownerOf(blk *CodeBlock) (dict.ID, bool) {
	if blk == nil || !blk.HasOwner {
		return 0, false
	}
	return blk.Owner, true
}

// AttributeIO charges EDB retrieval I/O to fn (the dynamic loader calls
// this from the undefined-procedure trap, where the fetched predicate is
// known).
func (pr *Profiler) AttributeIO(fn dict.ID, fetches, pages uint64) {
	if pr == nil {
		return
	}
	c := pr.counters(fn)
	c.EDBFetches += fetches
	c.Pages += pages
}

// Drain charges any trailing self-time, then returns the accumulated
// per-predicate counters and resets the profiler for the next query.
func (pr *Profiler) Drain() map[dict.ID]*obs.PredCounters {
	if pr == nil {
		return nil
	}
	pr.tick()
	out := pr.preds
	pr.preds = map[dict.ID]*obs.PredCounters{}
	pr.cur, pr.curOK = 0, false
	pr.last = time.Time{}
	return out
}

// SetProfiler attaches (or, with nil, detaches) a profiler. The disabled
// path costs one nil check at each port site. Like SetQuota, call it
// between queries from the machine's own goroutine.
func (m *Machine) SetProfiler(pr *Profiler) { m.prof = pr }

// Profiler returns the attached profiler, or nil.
func (m *Machine) Profiler() *Profiler { return m.prof }
