package wam

import (
	"time"

	"repro/internal/obs"
)

// Garbage collection of the global stack (paper §3.3.2).
//
// The collector is a mark-slide compactor: live cells keep their relative
// order, which the WAM requires because choice points delimit heap segments
// by saved H values. Collection is triggered at call ports — the only
// points where the live register set is exactly the called procedure's
// argument registers — once the heap has grown past a threshold since the
// last collection, which spreads the pauses across normal processing as
// the paper prescribes. SetGC(false) disables collection temporarily.
//
// Roots are: the argument registers of the call being made, the permanent
// variables of every environment reachable from the current environment or
// from any choice point, the saved argument registers of every choice
// point, and every trailed address (a trailed cell must survive so that
// unwinding can reset it).

// maybeGC runs a collection when the growth threshold is exceeded, or —
// under a heap quota — whenever the heap is over the cap, giving a query
// whose live set fits the quota the chance to continue before the
// cancellation poll kills it (call ports are the only safe collection
// points, so quota pressure must be applied here).
func (m *Machine) maybeGC(nargs int) {
	if !m.gcEnabled {
		return
	}
	if m.gcLastHeap > len(m.heap) {
		m.gcLastHeap = len(m.heap)
	}
	if len(m.heap)-m.gcLastHeap < m.gcThreshold {
		if q := m.quota.HeapCells; q <= 0 || len(m.heap) <= q {
			return
		}
	}
	m.Collect(nargs)
}

// Collect performs a full mark-slide collection with the first nargs
// argument registers as register roots. The pause is timed: totals go to
// Stats.GCPauseNS, per-query attribution to the phase sink (the paper's
// §3.3.2 spreads collections across normal processing; the gc span makes
// their cost visible in every query's breakdown).
func (m *Machine) Collect(nargs int) {
	gcStart := time.Now()
	defer func() {
		d := time.Since(gcStart)
		m.stats.GCPauseNS += uint64(d.Nanoseconds())
		m.phaseSink.Add(obs.PhaseGC, d)
	}()
	m.stats.GCRuns++
	if len(m.heap) > m.stats.HeapPeak {
		m.stats.HeapPeak = len(m.heap)
	}
	n := len(m.heap)
	marked := make([]bool, n)
	fltUsed := make([]bool, len(m.floats))

	var work []Cell
	markAddr := func(a int) {
		if !marked[a] {
			marked[a] = true
			work = append(work, m.heap[a])
		}
	}
	scan := func(c Cell) {
		work = append(work, c)
		for len(work) > 0 {
			c := work[len(work)-1]
			work = work[:len(work)-1]
			switch c.Tag() {
			case TagRef:
				markAddr(c.Val())
			case TagLis:
				markAddr(c.Val())
				markAddr(c.Val() + 1)
			case TagStr:
				a := c.Val()
				if !marked[a] {
					marked[a] = true
					f := m.heap[a]
					for i := 1; i <= f.FunArity(); i++ {
						markAddr(a + i)
					}
				}
			case TagFlt:
				fltUsed[c.Val()] = true
			}
		}
	}

	envs, cps := m.liveFrames()

	// Mark phase.
	for i := 0; i < nargs && i < len(m.x); i++ {
		scan(m.x[i])
	}
	for _, e := range envs {
		ny := m.stack[e+2].SmallVal()
		for i := 0; i < ny; i++ {
			scan(m.stack[e+envHdr+i])
		}
	}
	for _, b := range cps {
		na := m.cpNArgs(b)
		for i := 0; i < na; i++ {
			scan(m.stack[b+1+i])
		}
	}
	for _, a := range m.trail {
		markAddr(a)
		scan(m.heap[a])
	}
	for _, e := range m.extras {
		for _, a := range e.varAddrs {
			markAddr(a)
			scan(m.heap[a])
		}
		if e.catch {
			markAddr(e.exit)
			scan(m.heap[e.exit])
		}
	}

	// Compute forwarding addresses (prefix counts of marked cells).
	fwd := make([]int32, n+1)
	cnt := int32(0)
	for i := 0; i < n; i++ {
		fwd[i] = cnt
		if marked[i] {
			cnt++
		}
	}
	fwd[n] = cnt

	// Compact the float table.
	ffwd := make([]int32, len(m.floats)+1)
	fcnt := int32(0)
	for i := range m.floats {
		ffwd[i] = fcnt
		if fltUsed[i] {
			m.floats[fcnt] = m.floats[i]
			fcnt++
		}
	}
	ffwd[len(m.floats)] = fcnt
	m.floats = m.floats[:fcnt]

	adj := func(c Cell) Cell {
		switch c.Tag() {
		case TagRef:
			return MakeRef(int(fwd[c.Val()]))
		case TagLis:
			return MakeLis(int(fwd[c.Val()]))
		case TagStr:
			return MakeStr(int(fwd[c.Val()]))
		case TagFlt:
			return MakeFlt(int(ffwd[c.Val()]))
		}
		return c
	}

	// Slide live cells down, adjusting internal references.
	for i := 0; i < n; i++ {
		if marked[i] {
			m.heap[fwd[i]] = adj(m.heap[i])
		}
	}
	m.stats.GCCellsFreed += uint64(n - int(cnt))
	m.heap = m.heap[:cnt]

	// Adjust register, frame and trail references.
	for i := range m.x {
		if i < nargs {
			m.x[i] = adj(m.x[i])
		} else {
			m.x[i] = 0
		}
	}
	for _, e := range envs {
		ny := m.stack[e+2].SmallVal()
		for i := 0; i < ny; i++ {
			m.stack[e+envHdr+i] = adj(m.stack[e+envHdr+i])
		}
	}
	for _, b := range cps {
		na := m.cpNArgs(b)
		for i := 0; i < na; i++ {
			m.stack[b+1+i] = adj(m.stack[b+1+i])
		}
		hSlot := b + na + 6
		m.stack[hSlot] = MakeSmall(int(fwd[m.stack[hSlot].SmallVal()]))
		fSlot := b + na + 7
		m.stack[fSlot] = MakeSmall(int(ffwd[m.stack[fSlot].SmallVal()]))
	}
	for i, a := range m.trail {
		m.trail[i] = int(fwd[a])
	}
	for i := range m.extras {
		e := &m.extras[i]
		for v, a := range e.varAddrs {
			e.varAddrs[v] = int(fwd[a])
		}
		if e.catch {
			e.exit = int(fwd[e.exit])
		}
	}
	m.hb = int(fwd[m.hb])
	m.gcLastHeap = len(m.heap)
}

// liveFrames returns the stack bases of every reachable environment and
// choice point, each exactly once.
func (m *Machine) liveFrames() (envs, cps []int) {
	seenEnv := map[int]bool{}
	addEnvChain := func(e int) {
		for e >= 0 && !seenEnv[e] {
			seenEnv[e] = true
			envs = append(envs, e)
			e = m.stack[e].SmallVal()
		}
	}
	addEnvChain(m.e)
	for b := m.b; b >= 0; b = m.cpPrevB(b) {
		cps = append(cps, b)
		addEnvChain(m.stack[b+m.cpNArgs(b)+1].SmallVal())
	}
	return envs, cps
}
