package benchmark

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/benchmark/gen"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/edb"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/term"
	"repro/internal/wam"
)

// Span is one traced interval. The harness records spans around its own
// calls into each layer; nothing inside the program is instrumented.
// Every span but the root names the span that caused it, and the spans
// of one operation share Op.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Start and End are nanoseconds since the traced pass began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Counts holds registry counters' changes across the span.
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// traceFile is what the traced run writes.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Ops      int    `json:"ops"`
	// SelfUSPerOp is each layer's self time (span minus the part its
	// children cover), summed over the pass and divided by Ops.
	SelfUSPerOp map[string]float64 `json:"self_us_per_op"`
	Spans       []Span             `json:"spans"`
}

// tracedCounters are the registry counters read at operation boundaries.
var tracedCounters = [...]string{"store.pool.reads", "edb.retrievals", "core.codecache.misses"}

// Positions in tracedCounters.
const (
	poolReads = iota
	edbRetrievals
)

// tracer records one driver's spans in memory.
type tracer struct {
	t0     time.Time
	spans  []Span
	nextOp int
	count  [len(tracedCounters)]*obs.Counter
	pr     *prober
	// readNS is the store's page-read latency histogram and readSum its
	// sum when last looked at. The sum moves only when pool reads do, so
	// it is looked at only then.
	readNS  *obs.Histogram
	readSum uint64
}

// opSpans remembers where an operation's open spans are and what the
// traced counters read when it began.
type opSpans struct {
	op, run int // indices into tracer.spans
	c0      [len(tracedCounters)]uint64
}

func newTracer(t0 time.Time, reg *obs.Registry, pr *prober) *tracer {
	tr := &tracer{t0: t0, pr: pr, readNS: reg.Histogram("store.page_read_ns")}
	for i, name := range tracedCounters {
		tr.count[i] = reg.Counter(name)
	}
	return tr
}

// resync notes the page-read time spent so far, which an untraced round
// may have moved, before a traced round starts.
func (tr *tracer) resync() { tr.readSum = tr.readNS.Snapshot().SumNS }

func (tr *tracer) now() int64 { return time.Since(tr.t0).Nanoseconds() }

// open appends a span that starts now and returns its index.
func (tr *tracer) open(parent int, op int, name, layer string) int {
	tr.spans = append(tr.spans, Span{ID: len(tr.spans) + 1, Parent: parent, Op: op, Name: name, Layer: layer, Start: tr.now()})
	return len(tr.spans) - 1
}

func (tr *tracer) close(i int) { tr.spans[i].End = tr.now() }

// storeSpan turns the page reads that happened inside span i into its
// child span: as long as the store timed them, laid at the parent's
// start. The time is the store's own measurement, so it is the real cost
// of the reads and not of a replay. With two drivers the histogram mixes
// both connections' reads; attribution is exact with one.
func (tr *tracer) storeSpan(i int, reads uint64) {
	if reads == 0 {
		return
	}
	sum := tr.readNS.Snapshot().SumNS
	d := int64(sum - tr.readSum)
	tr.readSum = sum
	p := tr.spans[i]
	tr.spans = append(tr.spans, Span{ID: len(tr.spans) + 1, Parent: p.ID, Op: p.Op, Name: "store.page_read", Layer: "store",
		Start: p.Start, End: min(p.Start+d, p.End), Counts: map[string]uint64{tracedCounters[poolReads]: reads}})
}

// beginOp opens the operation's span and, inside it, the span of the
// real call into the program.
func (tr *tracer) beginOp(op *gen.Op) opSpans {
	tr.nextOp++
	var sp opSpans
	sp.op = tr.open(0, tr.nextOp, "op:"+string(op.Kind), "bench")
	for i, c := range tr.count {
		sp.c0[i] = c.Value()
	}
	sp.run = tr.open(tr.spans[sp.op].ID, tr.nextOp, "run", "core")
	return sp
}

// endOp closes the real call's span, replays through each layer's
// public functions what the call did with the operation's inputs, as
// further child spans, and closes the operation's span.
func (tr *tracer) endOp(sp opSpans, op *gen.Op) {
	tr.close(sp.run)
	var delta [len(tracedCounters)]uint64
	counts := map[string]uint64{}
	for i, c := range tr.count {
		if delta[i] = c.Value() - sp.c0[i]; delta[i] != 0 {
			counts[tracedCounters[i]] = delta[i]
		}
	}
	if len(counts) > 0 {
		tr.spans[sp.run].Counts = counts
	}
	tr.storeSpan(sp.run, delta[poolReads])
	tr.pr.probe(tr, tr.spans[sp.op].ID, tr.nextOp, op, int(delta[edbRetrievals]))
	tr.close(sp.op)
}

// probeStat accumulates one probe's time and call count.
type probeStat struct {
	ns    int64
	calls int
}

// prober replays an operation's inputs through the layers' public
// functions. The replay runs after the real call, so it finds most of
// the pages the call read still in the buffer pool; the store's real
// share is the store span under the call's own span.
type prober struct {
	ops  *parser.OpTable
	comp *compiler.Compiler
	// db is nil when the knowledge base is being served: direct EDB
	// reads would bypass the KB lock the server's writers hold.
	db    *edb.DB
	m     *wam.Machine // scratch machine the loader probes link into
	stats map[string]*probeStat
	// probed counts operations that had a goal to replay.
	probed int
	err    error
}

func newProber(kb *core.KnowledgeBase, served bool) *prober {
	pr := &prober{
		ops:   parser.NewOpTable(),
		comp:  compiler.New(compiler.Options{}),
		m:     wam.NewMachine(nil),
		stats: map[string]*probeStat{},
	}
	if !served {
		pr.db = kb.DB()
	}
	return pr
}

// span times f as a child span of parent and books it under name.
func (pr *prober) span(tr *tracer, parent, op int, name, layer string, calls int, f func()) int {
	i := tr.open(parent, op, name, layer)
	f()
	tr.close(i)
	st := pr.stats[name]
	if st == nil {
		st = &probeStat{}
		pr.stats[name] = st
	}
	st.ns += tr.spans[i].End - tr.spans[i].Start
	st.calls += calls
	return i
}

func (pr *prober) fail(err error) {
	if err != nil && pr.err == nil {
		pr.err = err
	}
}

// probe replays operation o: always the parse and the compilation of its
// goal, and the storage path (retrieve, decode, link, intern) of as many
// of its stored-procedure calls as the real call retrieved from the EDB,
// taken from the end of the list, where the most specific calls are. An
// operation that ran on resident code replays no storage work.
func (pr *prober) probe(tr *tracer, parent, op int, o *gen.Op, retrievals int) {
	if o.Goal == "" {
		return
	}
	pr.probed++
	var body term.Term
	var vars map[string]*term.Var
	pr.span(tr, parent, op, "parser.parse", "parser", 1, func() {
		var err error
		body, vars, err = parser.ParseTermWithOps(o.Goal, pr.ops)
		pr.fail(err)
	})
	if body == nil {
		return
	}
	pr.span(tr, parent, op, "compiler.compile", "compiler", 1, func() {
		names := make([]string, 0, len(vars))
		for n := range vars {
			names = append(names, n)
		}
		sort.Strings(names)
		vlist := make([]*term.Var, len(names))
		for i, n := range names {
			vlist[i] = vars[n]
		}
		_, err := pr.comp.CompileQuery("$query", vlist, body)
		pr.fail(err)
	})
	if pr.db == nil {
		return
	}
	for _, call := range o.Calls[max(0, len(o.Calls)-retrievals):] {
		p := pr.db.Proc(call.Pred, len(call.Args))
		if p == nil {
			pr.fail(fmt.Errorf("probe: no stored procedure %s/%d", call.Pred, len(call.Args)))
			continue
		}
		keys := make([]edb.ArgKey, p.K)
		for i := range keys {
			keys[i] = edb.WildKey()
			// Rule procedures are loaded whole; only fact calls
			// pre-unify on their bound arguments.
			if p.FactsOnly && call.Args[i] != "" {
				keys[i] = edb.AtomKey(call.Args[i])
			}
		}
		var scs []edb.StoredClause
		reads0 := tr.count[poolReads].Value()
		ei := pr.span(tr, parent, op, "edb.retrieve", "edb", 1, func() {
			var err error
			scs, err = pr.db.Retrieve(p, keys)
			pr.fail(err)
		})
		tr.storeSpan(ei, tr.count[poolReads].Value()-reads0)
		var ccs []compiler.ClauseCode
		pr.span(tr, parent, op, "loader.decode", "loader", 1, func() {
			for _, sc := range scs {
				cc, err := loader.DecodeClause(sc.Blob)
				pr.fail(err)
				ccs = append(ccs, cc)
			}
		})
		pr.span(tr, parent, op, "loader.link", "loader", 1, func() {
			_, err := loader.LinkPredicate(pr.m, call.Pred, len(call.Args), ccs, loader.Options{Index: true, Transient: true})
			pr.fail(err)
		})
		interns := 0
		for _, cc := range ccs {
			interns += len(cc.Symbols)
		}
		pr.span(tr, parent, op, "dict.intern", "dict", interns, func() {
			for _, cc := range ccs {
				for _, sym := range cc.Symbols {
					pr.m.Dict.Intern(sym.Name, sym.Arity)
				}
			}
		})
	}
}

// mergeSpans joins the drivers' spans under one root span, renumbering them,
// and computes each layer's self time.
func mergeSpans(workload string, seed uint64, trs []*tracer, end int64) traceFile {
	tf := traceFile{Workload: workload, Seed: seed, SelfUSPerOp: map[string]float64{}}
	tf.Spans = append(tf.Spans, Span{ID: 1, Name: "workload:" + workload, Layer: "bench", End: end})
	for _, tr := range trs {
		offset := len(tf.Spans)
		for _, s := range tr.spans {
			s.ID += offset
			if s.Parent == 0 {
				s.Parent = 1
			} else {
				s.Parent += offset
			}
			s.Op += tf.Ops
			tf.Spans = append(tf.Spans, s)
		}
		tf.Ops += tr.nextOp
	}
	// Self time: a span's duration minus what its children cover.
	// Children of one span never overlap here, so their durations add.
	covered := make([]int64, len(tf.Spans)+1)
	for _, s := range tf.Spans {
		covered[s.Parent] += s.End - s.Start
	}
	for _, s := range tf.Spans[1:] {
		tf.SelfUSPerOp[s.Layer] += float64(s.End-s.Start-covered[s.ID]) / 1e3
	}
	for l := range tf.SelfUSPerOp {
		tf.SelfUSPerOp[l] = ratio(tf.SelfUSPerOp[l], float64(tf.Ops))
	}
	return tf
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
