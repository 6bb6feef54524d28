package wam

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/dict"
	"repro/internal/obs"
	"repro/internal/term"
)

// Stats holds cumulative machine counters. The choice-point counter backs
// the paper's §3.2.1 discussion (choice-point references dominate data
// references), and the ablation benchmarks report it.
type Stats struct {
	Instructions uint64
	Calls        uint64
	ChoicePoints uint64
	// ChoicePointsElided counts indexing dispatches that jumped straight
	// into a single candidate clause, skipping the try chain a naive
	// translation would have pushed (§3.2.2).
	ChoicePointsElided uint64
	Backtracks         uint64
	Unifications       uint64
	TrailOps           uint64
	GCRuns             uint64
	GCCellsFreed       uint64
	// GCPauseNS is the total time spent in heap collections; per-query
	// attribution goes through the machine's phase sink.
	GCPauseNS uint64
	HeapPeak  int
	// OpClasses counts executed instructions per opcode class (indexed
	// by OpClass).
	OpClasses [NumOpClasses]uint64
	// Blocks and Builtins are the sizes of the code-block and builtin
	// tables: state, not traffic, so Stats fills them in and ResetStats
	// has nothing to zero. Both are bounded by live code.
	Blocks   int
	Builtins int
}

// ErrUnknownProc reports a call to a procedure with no definition.
type ErrUnknownProc struct {
	Name  string
	Arity int
}

func (e *ErrUnknownProc) Error() string {
	return fmt.Sprintf("wam: unknown procedure %s/%d", e.Name, e.Arity)
}

// codePtr addresses an instruction.
type codePtr struct {
	blk *CodeBlock
	off int
}

var nilCode = codePtr{}

// extra associates out-of-band Go state (a redo closure) with the choice
// point at stack address b.
type extra struct {
	b      int
	fn     RedoFn
	resume codePtr
	// catch markers carry the catcher/recovery terms of catch/3, with
	// the heap addresses of their variables for identity-preserving
	// re-encoding at delivery, and the heap address of the cell bound
	// once the goal has exited (read into exited at delivery).
	catch    bool
	catcher  term.Term
	recovery term.Term
	varAddrs map[*term.Var]int
	exit     int
	exited   bool
}

// RedoFn produces the next solution of a nondeterministic builtin. It is
// called with the machine restored to the choice-point state; it should
// bind results (via Unify) and return true, or return false when no more
// solutions exist. A RedoFn must keep returning false once exhausted.
type RedoFn func(m *Machine) (bool, error)

// BuiltinFn implements a builtin predicate. args are the dereferenced-on-
// demand argument cells (X registers); the function may bind variables via
// m.Unify and may register a RedoFn via m.PushRedo for nondeterminism.
type BuiltinFn func(m *Machine, args []Cell) (bool, error)

// Builtin describes a registered builtin predicate.
type Builtin struct {
	Name  string
	Arity int
	Fn    BuiltinFn
}

// Machine is a WAM instance: registers, heap (global stack), local stack,
// trail, code and procedure tables. A Machine is not safe for concurrent
// use; it models one session as in the paper.
type Machine struct {
	Dict *dict.Table

	heap   []Cell
	floats []float64
	stack  []Cell
	trail  []int
	pdl    []int // unification worklist, pairs of heap addresses? (cells)
	x      []Cell

	p, cp   codePtr
	e, b    int // stack frame bases; -1 means none
	b0      int
	hb      int
	s       int  // structure pointer (read mode)
	mode    byte // 'r' or 'w'
	numArgs int

	// blocks is indexed by CodeBlock.ID, the form in which choice points
	// and environments hold code addresses. retired lists the removed
	// blocks whose slots are still filled because a frame may address
	// them; reclaim moves unaddressed ones to freeIDs for AddBlock to
	// reuse, and runs once retired reaches sweepAt entries.
	blocks   []*CodeBlock
	retired  []*CodeBlock
	freeIDs  []int
	sweepAt  int
	procs    map[dict.ID]*Proc
	builtins []Builtin
	binIndex map[term.Indicator]int // builtin index by name/arity

	extras      []extra
	pendingJump *codePtr

	// Out receives the output of write/1 and friends.
	Out io.Writer

	// collectors implements findall/3 accumulation.
	collectors []collector

	// OnUndefined, if set, is consulted when a called functor has no entry
	// in the procedures table. It is Educe*'s interpreter trap (§3.2.1):
	// the engine looks the functor up in the knowledge base's procedures
	// table there and invokes the dynamic loader. Returning (nil, nil)
	// leaves the call to the machine: a builtin gets its wrapper
	// installed, anything else raises ErrUnknownProc.
	OnUndefined func(m *Machine, fn dict.ID) (*Proc, error)

	// GC policy.
	gcEnabled   bool
	gcThreshold int // run GC when heap grew this much since last collection
	gcLastHeap  int

	// Cancellation. deadline is a unix-nanosecond wall-clock bound (0 =
	// none) and interrupted an asynchronous abort request; both may be
	// set from other goroutines and are polled amortized by the dispatch
	// loop, surfacing as catchable error balls.
	deadline    atomic.Int64
	interrupted atomic.Bool

	// Resource quotas (per-query caps, polled alongside cancellation).
	// Unlike deadline/interrupted these are plain fields: they must be
	// set by the goroutine that runs the query, between queries.
	quota     Quota
	solutions int
	// checkHook, when set, stands in for CheckCancel at every poll; a
	// non-nil error (normally an *ErrBall) aborts the query catchably.
	// The owning session's check goes here: CheckCancel plus the quotas
	// the machine cannot see itself, such as EDB pages touched.
	checkHook func() error

	stats Stats
	// prof, when non-nil, receives 4-port box-model events from the
	// dispatch loop. Nil (the default) keeps the hot path at one nil
	// check per port site.
	prof *Profiler
	// phaseSink receives per-query phase attributions the machine makes
	// itself (currently gc pauses). Nil records nothing; the owning
	// session points it at the current query's span set.
	phaseSink *obs.PhaseTimes

	haltBlock  *CodeBlock
	retryBlock *CodeBlock
	failBlock  *CodeBlock
	catchExit  *CodeBlock
}

// NewMachine returns a machine using the given dictionary (a fresh one is
// created when d is nil) with the core builtins registered.
func NewMachine(d *dict.Table) *Machine {
	if d == nil {
		d = dict.New(dict.WithSegmentSize(4096))
	}
	m := &Machine{
		Dict:        d,
		e:           -1,
		b:           -1,
		b0:          -1,
		procs:       map[dict.ID]*Proc{},
		binIndex:    map[term.Indicator]int{},
		gcEnabled:   true,
		gcThreshold: 256 * 1024,
		Out:         os.Stdout,
	}
	m.haltBlock = m.AddBlock(&CodeBlock{Name: "$halt", Instrs: []Instr{{Op: OpHalt}}})
	m.retryBlock = m.AddBlock(&CodeBlock{Name: "$retry_builtin", Instrs: []Instr{{Op: OpRetryBuiltin}}})
	m.failBlock = m.AddBlock(&CodeBlock{Name: "$fail", Instrs: []Instr{{Op: OpFail}}})
	registerCoreBuiltins(m)
	registerCatchBuiltins(m)
	registerExtraBuiltins(m)
	return m
}

// Stats returns a snapshot of the machine counters.
func (m *Machine) Stats() Stats {
	st := m.stats
	if len(m.heap) > st.HeapPeak {
		st.HeapPeak = len(m.heap)
	}
	st.Blocks, st.Builtins = len(m.blocks), len(m.builtins)
	return st
}

// ResetStats zeroes the counters.
func (m *Machine) ResetStats() { m.stats = Stats{} }

// SetPhaseSink directs the machine's own phase attributions (gc pauses)
// to pt; nil disables attribution. The owning session points this at the
// current query's span set.
func (m *Machine) SetPhaseSink(pt *obs.PhaseTimes) { m.phaseSink = pt }

// SetGC enables or disables the garbage collector (paper §3.3.2 allows
// temporarily disabling it in time-critical regions).
func (m *Machine) SetGC(enabled bool) { m.gcEnabled = enabled }

// interruptMask selects how often the dispatch loop polls for
// cancellation: every 256 instructions, cheap enough to vanish in the
// dispatch cost while bounding reaction latency.
const interruptMask = 0xff

// SetDeadline arms a wall-clock execution bound; once it passes, the
// running (or any later) query aborts with a catchable
// error(timeout, educe) ball. The zero time disarms. Safe to call from
// any goroutine.
func (m *Machine) SetDeadline(t time.Time) {
	if t.IsZero() {
		m.deadline.Store(0)
		return
	}
	m.deadline.Store(t.UnixNano())
}

// Interrupt asynchronously aborts the running query with a catchable
// error(interrupted, educe) ball at the next dispatch-loop poll. One
// interrupt aborts one query; the flag clears when delivered. Safe to
// call from any goroutine.
func (m *Machine) Interrupt() { m.interrupted.Store(true) }

// ClearInterrupt discards a pending interrupt (a new query starting
// should not die for its predecessor's abort).
func (m *Machine) ClearInterrupt() { m.interrupted.Store(false) }

// ErrInterrupted and ErrTimeout are the catchable balls an Interrupt and
// an expired deadline surface as: error(interrupted, educe) and
// error(timeout, educe). Uncaught, a query's error is the very value, so
// callers may compare against them.
var (
	ErrInterrupted = &ErrBall{Term: term.Comp("error", term.Atom("interrupted"), term.Atom("educe"))}
	ErrTimeout     = &ErrBall{Term: term.Comp("error", term.Atom("timeout"), term.Atom("educe"))}
)

// CheckCancel reports a pending interrupt or an expired deadline as the
// catchable error ball it surfaces as. The dispatch loop polls it, and so
// do evaluators running outside the loop on the machine's behalf (the
// set-at-a-time fixpoint driver, the baseline interpreter) through their
// session's check. Quota caps are not checked here — they reference
// dispatch state.
func (m *Machine) CheckCancel() error {
	if m.interrupted.Load() {
		m.interrupted.Store(false)
		return ErrInterrupted
	}
	if d := m.deadline.Load(); d != 0 && time.Now().UnixNano() > d {
		return ErrTimeout
	}
	return nil
}

// Quota caps one query's resource consumption inside the machine. Zero
// fields are unlimited. Limits are enforced at the dispatch loop's
// amortized cancellation poll (and at every solution boundary), so a
// query may overshoot a cap by the allocations of at most a few hundred
// instructions before it dies with a catchable
// error(resource_error(Kind), educe) ball.
type Quota struct {
	// HeapCells bounds the heap (global stack) size in cells. The bound
	// applies to the post-GC heap: a collection that reclaims below the
	// cap lets the query continue.
	HeapCells int
	// TrailEntries bounds the trail length.
	TrailEntries int
	// Solutions bounds the number of solutions a query may deliver;
	// asking for one more aborts the query. A negative cap means
	// already exhausted: every query dies on its first Next (the
	// deterministic kill used by fault injection).
	Solutions int
}

// SetQuota installs per-query resource caps. Unlike SetDeadline and
// Interrupt it is NOT safe to call concurrently with a running query:
// call it from the query's own goroutine, between queries. The quota
// persists across queries until changed; the solution counter resets at
// every Call.
func (m *Machine) SetQuota(q Quota) { m.quota = q }

// SetCheckHook makes f the machine's per-poll cancellation check in place
// of CheckCancel: the owning session installs the one check all its
// evaluators share, which is CheckCancel plus the caps the machine cannot
// see. Same concurrency contract as SetQuota.
func (m *Machine) SetCheckHook(f func() error) { m.checkHook = f }

// ResourceBall is the catchable exhaustion error for one resource kind
// ("heap", "trail", "pages", "solutions"): error(resource_error(Kind),
// educe).
func ResourceBall(kind string) *ErrBall {
	return &ErrBall{Term: term.Comp("error",
		term.Comp("resource_error", term.Atom(kind)),
		term.Atom("educe"))}
}

// ArgError is the ball builtin pi raises for argument t, which is not of
// type typ: error(instantiation_error, pi) if t is unbound, else
// error(type_error(typ, t), pi).
func ArgError(t term.Term, typ, pi string) *ErrBall {
	e := term.Term(term.Atom("instantiation_error"))
	if _, ok := t.(*term.Var); !ok {
		e = term.Comp("type_error", term.Atom(typ), t)
	}
	return &ErrBall{Term: term.Comp("error", e, term.Atom(pi))}
}

func (m *Machine) argError(c Cell, typ, pi string) error { return ArgError(m.DecodeTerm(c), typ, pi) }

// TransactionBall is the catchable transaction failure for one reason
// ("no_transaction", "nested_transaction", "read_only", "commit_failed"):
// error(transaction_error(Reason), educe).
func TransactionBall(reason string) *ErrBall {
	return &ErrBall{Term: term.Comp("error",
		term.Comp("transaction_error", term.Atom(reason)),
		term.Atom("educe"))}
}

// ResourceKind returns the resource kind of an uncaught resource_error
// ball, or "" when err is not one. Servers use it to count quota kills.
func ResourceKind(err error) string {
	ball, ok := err.(*ErrBall)
	if !ok {
		return ""
	}
	e, ok := ball.Term.(*term.Compound)
	if !ok || e.Functor != "error" || len(e.Args) != 2 {
		return ""
	}
	re, ok := e.Args[0].(*term.Compound)
	if !ok || re.Functor != "resource_error" || len(re.Args) != 1 {
		return ""
	}
	kind, ok := re.Args[0].(term.Atom)
	if !ok {
		return ""
	}
	return string(kind)
}

// checkCancel is the dispatch loop's poll: the cancellation check (the
// owner's, when one is installed) and then the machine's own resource
// quotas, as an error ball, or nil to continue.
func (m *Machine) checkCancel() error {
	var err error
	if m.checkHook != nil {
		err = m.checkHook()
	} else {
		err = m.CheckCancel()
	}
	if err != nil {
		return err
	}
	if q := &m.quota; q.HeapCells != 0 || q.TrailEntries != 0 || q.Solutions != 0 {
		// Heap: with GC enabled, kill only when the collector could not
		// bring the heap back under the cap (gcLastHeap is the post-GC
		// size; maybeGC applies quota pressure at every call port), so a
		// query whose garbage is reclaimable never dies spuriously
		// between call ports.
		if q.HeapCells > 0 && len(m.heap) > q.HeapCells &&
			(!m.gcEnabled || m.gcLastHeap > q.HeapCells) {
			return ResourceBall("heap")
		}
		if q.TrailEntries > 0 && len(m.trail) > q.TrailEntries {
			return ResourceBall("trail")
		}
		if q.Solutions != 0 && m.solutions >= q.Solutions {
			return ResourceBall("solutions")
		}
	}
	return nil
}

// SetGCThreshold sets the heap-growth trigger in cells.
func (m *Machine) SetGCThreshold(cells int) {
	if cells < 1024 {
		cells = 1024
	}
	m.gcThreshold = cells
}

// AddBlock registers a code block and returns it with its ID assigned,
// reusing a reclaimed slot when there is one.
func (m *Machine) AddBlock(b *CodeBlock) *CodeBlock {
	if n := len(m.freeIDs); n > 0 {
		b.ID = m.freeIDs[n-1]
		m.freeIDs = m.freeIDs[:n-1]
		m.blocks[b.ID] = b
		return b
	}
	b.ID = len(m.blocks)
	m.blocks = append(m.blocks, b)
	return b
}

// RemoveBlock retires a code block. It is safe at any time, including
// while the block is executing: choice points and environments that
// address the block keep working, and the slot and ID are reclaimed once
// no frame addresses them — at the next Reset at the latest.
func (m *Machine) RemoveBlock(b *CodeBlock) {
	if b.ID >= 0 && b.ID < len(m.blocks) && m.blocks[b.ID] == b && !b.retired {
		b.retired = true
		m.retired = append(m.retired, b)
		// With no frame on the stack the sweep has nothing to walk.
		if len(m.retired) >= m.sweepAt || (m.e < 0 && m.b < 0) {
			m.reclaim()
		}
	}
}

// minSweep is the number of retired blocks that triggers the first sweep.
const minSweep = 8

// reclaim frees the slots of the retired blocks that no code address can
// reach: not the program and continuation registers, a pending tail call,
// the resume point of a redo closure, nor the saved CP or BP of a live
// frame. The next sweep waits until the survivors have doubled, so a deep
// stack is not walked once per RemoveBlock.
func (m *Machine) reclaim() {
	live := map[*CodeBlock]bool{m.p.blk: true, m.cp.blk: true}
	if m.pendingJump != nil {
		live[m.pendingJump.blk] = true
	}
	for _, x := range m.extras {
		live[x.resume.blk] = true
	}
	envs, cps := m.liveFrames()
	for _, e := range envs {
		live[m.cellCode(m.stack[e+1]).blk] = true
	}
	for _, b := range cps {
		n := m.cpNArgs(b)
		live[m.cellCode(m.stack[b+n+2]).blk] = true
		live[m.cellCode(m.stack[b+n+4]).blk] = true
	}
	m.retired = slices.DeleteFunc(m.retired, func(b *CodeBlock) bool {
		if !live[b] {
			m.blocks[b.ID] = nil
			m.freeIDs = append(m.freeIDs, b.ID)
		}
		return !live[b]
	})
	m.sweepAt = max(minSweep, 2*len(m.retired))
}

// DefineProc installs (or replaces) a procedure. The procedure's code
// block is stamped with its owner so the profiler can attribute
// exits/fails to the predicate whose code is executing.
func (m *Machine) DefineProc(p *Proc) {
	if p.Block != nil {
		p.Block.Owner, p.Block.HasOwner = p.Fn, true
	}
	m.procs[p.Fn] = p
}

// Proc returns the procedure for fn, or nil.
func (m *Machine) Proc(fn dict.ID) *Proc { return m.procs[fn] }

// Procs iterates over all defined procedures.
func (m *Machine) Procs(f func(*Proc) bool) {
	for _, p := range m.procs {
		if !f(p) {
			return
		}
	}
}

// UndefineProc removes p from the procedures table if p is what is
// installed there. Its block stays: it can be installed again, or retired
// with RemoveBlock.
func (m *Machine) UndefineProc(p *Proc) {
	if m.procs[p.Fn] == p {
		delete(m.procs, p.Fn)
	}
}

// RegisterBuiltin adds a builtin predicate and returns its index. It only
// fills the builtin table: a call of the builtin by name (in particular
// from call/N) finds it at that call, where lookupProc installs its
// wrapper. Registering a name/arity again replaces the function in the
// same slot, which a wrapper already installed dispatches to; redo
// closures of the old function run on.
func (m *Machine) RegisterBuiltin(b Builtin) int {
	key := term.Indicator{Name: b.Name, Arity: b.Arity}
	if idx, ok := m.binIndex[key]; ok {
		m.builtins[idx] = b
		return idx
	}
	m.builtins = append(m.builtins, b)
	m.binIndex[key] = len(m.builtins) - 1
	return len(m.builtins) - 1
}

// BuiltinProc returns a procedure for fn whose code calls builtin idx and
// returns: the wrapper that makes a builtin the target of ordinary calls.
// Its block is added to the machine; the procedure is not installed.
func (m *Machine) BuiltinProc(fn dict.ID, idx int) *Proc {
	b := m.builtins[idx]
	blk := m.AddBlock(&CodeBlock{
		Name: fmt.Sprintf("$builtin %s/%d", b.Name, b.Arity),
		Instrs: []Instr{
			{Op: OpBuiltin, N: int32(idx), Ar: int32(b.Arity)},
			{Op: OpProceed},
		},
	})
	return &Proc{Fn: fn, Arity: b.Arity, Block: blk}
}

// TailCall arranges for control to transfer to fn with the given argument
// cells when the currently executing builtin returns true. It implements
// call/N.
func (m *Machine) TailCall(fn dict.ID, args []Cell) (bool, error) {
	// Load the argument registers before resolving the target: procedure
	// resolution may trap into the dynamic loader, whose pre-unification
	// filter reads the call's argument registers.
	m.ensureRegs(len(args))
	copy(m.x, args)
	m.numArgs = len(args)
	proc, err := m.lookupProc(fn)
	if err != nil {
		return false, err
	}
	m.pendingJump = &codePtr{blk: proc.Block}
	return true, nil
}

// BuiltinIndex returns the index of a registered builtin, or -1.
func (m *Machine) BuiltinIndex(name string, arity int) int {
	if i, ok := m.binIndex[term.Indicator{Name: name, Arity: arity}]; ok {
		return i
	}
	return -1
}

// --- heap and register access -------------------------------------------

// H returns the current heap top.
func (m *Machine) H() int { return len(m.heap) }

// Heap returns the cell at heap address a.
func (m *Machine) Heap(a int) Cell { return m.heap[a] }

// PushHeap appends a cell to the heap and returns its address.
func (m *Machine) PushHeap(c Cell) int {
	m.heap = append(m.heap, c)
	return len(m.heap) - 1
}

// NewVar allocates a fresh unbound heap variable and returns its address.
func (m *Machine) NewVar() int {
	a := len(m.heap)
	m.heap = append(m.heap, MakeRef(a))
	return a
}

// PushFloat interns a float in the machine float table.
func (m *Machine) PushFloat(f float64) Cell {
	m.floats = append(m.floats, f)
	return MakeFlt(len(m.floats) - 1)
}

// Float returns the value of a float cell.
func (m *Machine) Float(c Cell) float64 { return m.floats[c.Val()] }

// Reg returns argument/temporary register i (0-based: A1 is Reg(0)).
func (m *Machine) Reg(i int) Cell { return m.x[i] }

// SetReg writes register i, growing the bank as needed.
func (m *Machine) SetReg(i int, c Cell) {
	for len(m.x) <= i {
		m.x = append(m.x, 0)
	}
	m.x[i] = c
}

func (m *Machine) ensureRegs(n int) {
	for len(m.x) < n {
		m.x = append(m.x, 0)
	}
}

// Deref follows reference chains to the representative cell.
func (m *Machine) Deref(c Cell) Cell {
	for c.Tag() == TagRef {
		d := m.heap[c.Val()]
		if d == c {
			return c
		}
		c = d
	}
	return c
}

// bindAddr binds heap address a to cell c, trailing when needed.
func (m *Machine) bindAddr(a int, c Cell) {
	m.heap[a] = c
	if a < m.hb {
		m.trail = append(m.trail, a)
		m.stats.TrailOps++
	}
}

// Unify unifies two cells, binding variables and trailing as needed.
func (m *Machine) Unify(a, b Cell) bool {
	m.stats.Unifications++
	type pair struct{ a, b Cell }
	work := make([]pair, 0, 16)
	work = append(work, pair{a, b})
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		d1 := m.Deref(p.a)
		d2 := m.Deref(p.b)
		if d1 == d2 {
			continue
		}
		t1, t2 := d1.Tag(), d2.Tag()
		switch {
		case t1 == TagRef && t2 == TagRef:
			if d1.Val() < d2.Val() {
				m.bindAddr(d2.Val(), d1)
			} else {
				m.bindAddr(d1.Val(), d2)
			}
		case t1 == TagRef:
			m.bindAddr(d1.Val(), d2)
		case t2 == TagRef:
			m.bindAddr(d2.Val(), d1)
		case t1 != t2:
			return false
		case t1 == TagCon, t1 == TagInt, t1 == TagSmall:
			return false // equal cells handled above
		case t1 == TagFlt:
			if m.floats[d1.Val()] != m.floats[d2.Val()] {
				return false
			}
		case t1 == TagLis:
			a1, a2 := d1.Val(), d2.Val()
			work = append(work, pair{m.heap[a1], m.heap[a2]}, pair{m.heap[a1+1], m.heap[a2+1]})
		case t1 == TagStr:
			f1, f2 := m.heap[d1.Val()], m.heap[d2.Val()]
			if f1 != f2 {
				return false
			}
			n := f1.FunArity()
			for i := 1; i <= n; i++ {
				work = append(work, pair{m.heap[d1.Val()+i], m.heap[d2.Val()+i]})
			}
		default:
			return false
		}
	}
	return true
}

// --- stack frames ---------------------------------------------------------

// Environment frame layout (base e):
//
//	[e]   Small(prev E)
//	[e+1] Code(saved CP)
//	[e+2] Small(n permanent variables)
//	[e+3 .. e+3+n) Y0..Yn-1
const envHdr = 3

// Choice-point frame layout (base b, n saved argument registers):
//
//	[b]      Small(n)
//	[b+1..b+n]   A1..An
//	[b+n+1]  Small(saved E)
//	[b+n+2]  Code(saved CP)
//	[b+n+3]  Small(previous B)
//	[b+n+4]  Code(BP: next clause)
//	[b+n+5]  Small(saved TR)
//	[b+n+6]  Small(saved H)
//	[b+n+7]  Small(saved float count)
//	[b+n+8]  Small(saved B0)
const cpHdr = 9

func (m *Machine) envSize(e int) int  { return envHdr + m.stack[e+2].SmallVal() }
func (m *Machine) cpNArgs(b int) int  { return m.stack[b].SmallVal() }
func (m *Machine) cpSize(b int) int   { return m.cpNArgs(b) + cpHdr }
func (m *Machine) cpH(b int) int      { return m.stack[b+m.cpNArgs(b)+6].SmallVal() }
func (m *Machine) cpPrevB(b int) int  { return m.stack[b+m.cpNArgs(b)+3].SmallVal() }
func (m *Machine) yAddr(n int) int    { return m.e + envHdr + n }
func (m *Machine) Y(n int) Cell       { return m.stack[m.yAddr(n)] }
func (m *Machine) setY(n int, c Cell) { m.stack[m.yAddr(n)] = c }

// stackTop returns the first free local-stack slot.
func (m *Machine) stackTop() int {
	top := 0
	if m.e >= 0 {
		if t := m.e + m.envSize(m.e); t > top {
			top = t
		}
	}
	if m.b >= 0 {
		if t := m.b + m.cpSize(m.b); t > top {
			top = t
		}
	}
	return top
}

func (m *Machine) ensureStack(n int) {
	for len(m.stack) < n {
		m.stack = append(m.stack, 0)
	}
}

func (m *Machine) codeCell(p codePtr) Cell {
	if p.blk == nil {
		return MakeCode(0xff_ffff, 0)
	}
	return MakeCode(p.blk.ID, p.off)
}

func (m *Machine) cellCode(c Cell) codePtr {
	blk, off := c.CodeVal()
	if blk == 0xff_ffff {
		return nilCode
	}
	return codePtr{blk: m.blocks[blk], off: off}
}

// pushChoicePoint saves the machine state with nargs argument registers and
// BP as the alternative continuation.
func (m *Machine) pushChoicePoint(nargs int, bp codePtr) {
	m.stats.ChoicePoints++
	base := m.stackTop()
	m.ensureStack(base + nargs + cpHdr)
	m.stack[base] = MakeSmall(nargs)
	for i := 0; i < nargs; i++ {
		m.stack[base+1+i] = m.x[i]
	}
	m.stack[base+nargs+1] = MakeSmall(m.e)
	m.stack[base+nargs+2] = m.codeCell(m.cp)
	m.stack[base+nargs+3] = MakeSmall(m.b)
	m.stack[base+nargs+4] = m.codeCell(bp)
	m.stack[base+nargs+5] = MakeSmall(len(m.trail))
	m.stack[base+nargs+6] = MakeSmall(len(m.heap))
	m.stack[base+nargs+7] = MakeSmall(len(m.floats))
	m.stack[base+nargs+8] = MakeSmall(m.b0)
	m.b = base
	m.hb = len(m.heap)
}

// restoreFromChoicePoint reinstates registers from the current choice
// point (without popping it) and returns the saved BP.
func (m *Machine) restoreFromChoicePoint() codePtr {
	b := m.b
	n := m.cpNArgs(b)
	m.ensureRegs(n)
	for i := 0; i < n; i++ {
		m.x[i] = m.stack[b+1+i]
	}
	m.numArgs = n
	m.e = m.stack[b+n+1].SmallVal()
	m.cp = m.cellCode(m.stack[b+n+2])
	bp := m.cellCode(m.stack[b+n+4])
	m.unwindTrail(m.stack[b+n+5].SmallVal())
	m.heap = m.heap[:m.stack[b+n+6].SmallVal()]
	m.floats = m.floats[:m.stack[b+n+7].SmallVal()]
	m.b0 = m.stack[b+n+8].SmallVal()
	m.hb = len(m.heap)
	return bp
}

func (m *Machine) setBP(bp codePtr) {
	n := m.cpNArgs(m.b)
	m.stack[m.b+n+4] = m.codeCell(bp)
}

// popChoicePoint discards the current choice point.
func (m *Machine) popChoicePoint() {
	m.b = m.cpPrevB(m.b)
	if m.b >= 0 {
		m.hb = m.cpH(m.b)
	} else {
		m.hb = 0
	}
	m.trimExtras()
}

func (m *Machine) unwindTrail(to int) {
	for i := len(m.trail) - 1; i >= to; i-- {
		a := m.trail[i]
		m.heap[a] = MakeRef(a)
	}
	m.trail = m.trail[:to]
}

// cutTo discards choice points younger than level.
func (m *Machine) cutTo(level int) {
	if m.b > level {
		m.b = level
		if m.b >= 0 {
			m.hb = m.cpH(m.b)
		} else {
			m.hb = 0
		}
		m.trimExtras()
	}
}

// trimExtras drops redo closures whose choice points were discarded.
func (m *Machine) trimExtras() {
	for len(m.extras) > 0 && m.extras[len(m.extras)-1].b > m.b {
		m.extras = m.extras[:len(m.extras)-1]
	}
}

// PushRedo registers a nondeterministic continuation for the currently
// executing builtin: a choice point is created whose retry re-invokes fn.
// The builtin should return fn(m) for the first solution.
func (m *Machine) PushRedo(fn RedoFn) {
	resume := codePtr{blk: m.p.blk, off: m.p.off + 1}
	m.pushChoicePoint(m.numArgs, codePtr{blk: m.retryBlock, off: 0})
	m.extras = append(m.extras, extra{b: m.b, fn: fn, resume: resume})
}

// Reset clears all transient state (heap, stacks, trail, registers) while
// keeping the dictionary, code blocks, procedures and builtins. With the
// stacks empty no code address survives, so this is the safe point at
// which every retired block gives up its slot.
func (m *Machine) Reset() {
	m.heap = m.heap[:0]
	m.floats = m.floats[:0]
	m.stack = m.stack[:0]
	m.trail = m.trail[:0]
	m.x = m.x[:0]
	m.extras = m.extras[:0]
	m.collectors = m.collectors[:0]
	m.e, m.b, m.b0 = -1, -1, -1
	m.hb, m.s = 0, 0
	m.numArgs = 0
	m.p, m.cp = nilCode, nilCode
	m.gcLastHeap = 0
	if len(m.retired) > 0 {
		m.reclaim()
	}
}

// lookupProc resolves a call target, invoking the OnUndefined trap for
// procedures that have no resident code (paper §3.2.1), or none for this
// call's arguments. A builtin the trap leaves to the machine gets its
// wrapper installed at this first call.
func (m *Machine) lookupProc(fn dict.ID) (*Proc, error) {
	if p := m.procs[fn]; p != nil {
		if p.Hit == nil {
			return p, nil
		}
		if hp := p.Hit(m); hp != nil {
			return hp, nil
		}
	}
	if m.OnUndefined != nil {
		// The trap may return code it does not install (a variant linked
		// for the call's bound arguments); it stamps the block's owner.
		if np, err := m.OnUndefined(m, fn); err != nil || np != nil {
			return np, err
		}
	}
	name, arity := m.Dict.Name(fn), m.Dict.Arity(fn)
	if idx := m.BuiltinIndex(name, arity); idx >= 0 {
		p := m.BuiltinProc(fn, idx)
		m.DefineProc(p)
		return p, nil
	}
	return nil, &ErrUnknownProc{Name: name, Arity: arity}
}
