// Package educe is the public API of this reproduction of Educe* (Bocca,
// ICDE 1990): a knowledge base management system that couples a WAM-based
// Prolog compiler with a relational storage engine and keeps externally
// stored rules as relocatable compiled code.
//
// Quick start (single session):
//
//	eng, err := educe.New()                      // in-memory EDB
//	eng.Consult("likes(sam, curry).")            // rules in main memory
//	eng.ConsultExternal("edge(a, b). ...")       // facts/rules in the EDB
//	sols, _ := eng.Query("edge(a, X)")
//	for sols.Next() { fmt.Println(sols.Binding("X")) }
//
// Concurrent serving (shared knowledge base, one session per goroutine):
//
//	kb, err := educe.OpenKB("/data/kb.pages")
//	defer kb.Close()
//	for i := 0; i < nWorkers; i++ {
//		go func() {
//			s, _ := kb.NewSession()
//			defer s.Close()
//			sols, _ := s.Query("edge(a, X)")
//			...
//		}()
//	}
//
// The engine evaluates queries on the WAM; calls to externally stored
// procedures trap into the dynamic loader, which pre-unifies inside the
// storage engine and links only the candidate clauses. SetRuleStorage
// switches to the Educe baseline (source text + interpreter) used by the
// paper's comparisons.
//
// Bounding a query: whichever evaluator answers it, a query runs inside
// one envelope owned by its session. WithTimeout and Session.SetTimeout
// give every query a fresh wall-clock budget from its start;
// Session.QueryCtx binds a context for the whole iteration (Next is the
// only step function) and reports the context's error when the context
// ended the query; Session.Interrupt aborts the running query from any
// goroutine; Quota.PagesTouched caps EDB page accesses. The heap, trail
// and solutions caps of Quota are properties of the WAM and bound
// compiled-mode queries only.
package educe

import (
	"io"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/term"
)

// Engine is one Educe* engine: a private KnowledgeBase bundled with a
// single Session — the original single-session API. An Engine (like a
// Session) must be used from one goroutine at a time; to serve
// concurrent queries, share one KnowledgeBase across many Sessions
// (OpenKB / KB.NewSession), or share an Engine's base via Engine.KB().
type Engine = core.Engine

// KnowledgeBase is the shared, durable half of a deployment: page store
// and buffer pool, EDB catalog, external dictionary, relational catalog,
// and the shared loaded-code cache. A KnowledgeBase is safe for
// concurrent use: any number of Sessions may read it in parallel, while
// writes (ConsultExternal, InsertTuples, retracting or dropping stored
// procedures) serialise behind its write lock and invalidate affected
// cached code everywhere.
type KnowledgeBase = core.KnowledgeBase

// Session is one lightweight query context over a KnowledgeBase: the WAM
// machine, internal dictionary, dynamic predicates and per-query
// transients. Sessions are cheap to create and single-goroutine; run one
// per worker. Session.Begin/Commit/Rollback group external writes into a
// transaction that commits or vanishes as a unit (transaction/1 from
// Prolog); any error that kills a query mid-transaction rolls it back
// automatically. See DESIGN.md §12.
type Session = core.Session

// Solutions iterates query answers.
type Solutions = core.Solutions

// Quota caps the resources one query may consume (Session.SetQuota):
// live heap cells, trail entries, EDB pages touched and solutions
// delivered. An exhausted query dies with a catchable
// error(resource_error(Kind), educe) ball; its session stays reusable.
// Pages are capped in both rule-storage modes, the other three in
// compiled mode only.
type Quota = core.Quota

// Stats aggregates engine counters.
type Stats = core.Stats

// PhaseStats breaks down rule-pipeline time (parse/compile/link/store).
type PhaseStats = core.PhaseStats

// QueryStats is the per-session cost-model view: phase spans plus the
// retrieval/selectivity/cache counters of the paper's tables.
type QueryStats = obs.QueryStats

// Tracer emits per-query JSON trace events (phase spans + summary).
// Attach one to a session with Session.SetTracer; a single tracer may
// serve many concurrent sessions.
type Tracer = obs.Tracer

// Registry is the KB-wide metrics registry (KnowledgeBase.Obs).
type Registry = obs.Registry

// PredCounters is one predicate's 4-port profile vector: box-model
// call/exit/redo/fail counts, cumulative self-time and attributed EDB
// I/O (Session.EnableProfiling).
type PredCounters = obs.PredCounters

// PredProfile is one named row of a profile snapshot
// (Session.Profile, KnowledgeBase.Profile).
type PredProfile = obs.PredProfile

// ProfileTable is the KB-wide per-predicate profile accumulator
// (KnowledgeBase.Profile).
type ProfileTable = obs.ProfileTable

// NewTracer returns a tracer writing one JSON trace event per line to w.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// NewDeterministicTracer is NewTracer without record timestamps, for
// golden-file tests of the trace/slow-query schema.
func NewDeterministicTracer(w io.Writer) *Tracer { return obs.NewDeterministicTracer(w) }

// Options configures an Engine; the zero value is a usable in-memory
// compiled-mode engine.
type Options = core.Options

// RuleStorage selects how externally stored rules are represented.
type RuleStorage = core.RuleStorage

// Rule storage modes.
const (
	// RuleStorageCompiled stores relocatable WAM code (Educe*).
	RuleStorageCompiled = core.RuleStorageCompiled
	// RuleStorageSource stores clause text and interprets it (Educe).
	RuleStorageSource = core.RuleStorageSource
)

// Strategy selects how externally stored rule predicates are evaluated:
// tuple-at-a-time on the WAM, or set-at-a-time by the semi-naive
// relational fixpoint driver (DESIGN.md §14).
type Strategy = core.Strategy

// Evaluation strategies.
const (
	// StrategyAuto (the default) uses set-at-a-time evaluation for
	// eligible recursive predicates and the WAM for everything else.
	StrategyAuto = core.StrategyAuto
	// StrategyTuple forces tuple-at-a-time WAM evaluation everywhere.
	StrategyTuple = core.StrategyTuple
	// StrategySet uses set-at-a-time evaluation for any eligible stored
	// rule predicate, recursive or not.
	StrategySet = core.StrategySet
)

// ParseStrategy parses "auto", "tuple" or "set" (the -strategy flag).
func ParseStrategy(s string) (Strategy, error) { return core.ParseStrategy(s) }

// Option configures a Session at creation time (KnowledgeBase.NewSession).
// The With* constructors below consolidate the per-feature Session setters
// into one declarative surface:
//
//	s, err := kb.NewSession(
//	    educe.WithTimeout(2*time.Second),
//	    educe.WithStrategy(educe.StrategySet),
//	)
type Option = core.Option

// Session options (see the core package for full semantics).
var (
	// WithOptions replaces the session-level Options block.
	WithOptions = core.WithOptions
	// WithRuleStorage selects compiled (Educe*) or source (baseline) mode.
	WithRuleStorage = core.WithRuleStorage
	// WithStrategy selects tuple- vs set-at-a-time evaluation.
	WithStrategy = core.WithStrategy
	// WithTimeout gives every query a fresh wall-clock budget.
	WithTimeout = core.WithTimeout
	// WithQuota installs per-query resource caps.
	WithQuota = core.WithQuota
	// WithTracer directs per-query trace events to a tracer.
	WithTracer = core.WithTracer
	// WithTraceWriter is WithTracer over a JSON-lines writer.
	WithTraceWriter = core.WithTraceWriter
	// WithSlowThreshold arms the slow-query diagnostic log.
	WithSlowThreshold = core.WithSlowThreshold
	// WithProfiling enables the per-predicate 4-port profiler.
	WithProfiling = core.WithProfiling
)

// Term is a Prolog term as returned by Solutions bindings.
type Term = term.Term

// Relational types, for the set-oriented API.
type (
	// Schema describes a relation.
	Schema = rel.Schema
	// Attr is one attribute of a schema.
	Attr = rel.Attr
	// Tuple is a relational row.
	Tuple = rel.Tuple
	// Value is one attribute value.
	Value = rel.Value
)

// Attribute types for schemas.
const (
	Int    = rel.Int
	Float  = rel.Float
	String = rel.String
)

// IntV makes an integer attribute value.
func IntV(v int64) Value { return rel.IntV(v) }

// FloatV makes a float attribute value.
func FloatV(v float64) Value { return rel.FloatV(v) }

// StringV makes a string attribute value.
func StringV(v string) Value { return rel.StringV(v) }

// New creates an engine with default options (in-memory store, compiled
// rule storage, GC and indexing enabled).
func New() (*Engine, error) { return core.New(core.Options{}) }

// NewWithOptions creates an engine with explicit options.
func NewWithOptions(opts Options) (*Engine, error) { return core.New(opts) }

// Open creates an engine backed by the page file at path, creating the
// file if needed and reconnecting to any procedures already stored in it.
func Open(path string) (*Engine, error) { return core.New(core.Options{StorePath: path}) }

// OpenKB opens (or creates) a knowledge base backed by the page file at
// path (empty for in-memory) for concurrent multi-session serving.
// Create query contexts with NewSession.
func OpenKB(path string) (*KnowledgeBase, error) {
	return core.OpenKB(core.Options{StorePath: path})
}

// OpenKBWithOptions opens a knowledge base with explicit options;
// session-level options become the defaults for NewSession.
func OpenKBWithOptions(opts Options) (*KnowledgeBase, error) { return core.OpenKB(opts) }
