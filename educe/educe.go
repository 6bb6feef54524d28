// Package educe is the public API of this reproduction of Educe* (Bocca,
// ICDE 1990): a knowledge base management system that couples a WAM-based
// Prolog compiler with a relational storage engine and keeps externally
// stored rules as relocatable compiled code.
//
// There is one way in: open a KnowledgeBase, then create Sessions over it.
//
//	kb, err := educe.OpenKB(educe.Options{})     // in-memory EDB
//	defer kb.Close()
//	s, err := kb.NewSession()
//	defer s.Close()
//	s.Consult("likes(sam, curry).")              // rules in main memory
//	s.ConsultExternal("edge(a, b). ...")         // facts/rules in the EDB
//	sols, _ := s.Query("edge(a, X)")
//	for sols.Next() { fmt.Println(sols.Binding("X")) }
//
// A binding is read where the answer lies, and is readable until the next
// Next or Close, or the next query on the session, which also makes the
// earlier Solutions inert; Solutions.Map returns a fresh map of the
// current solution's bindings, which the caller may keep.
//
// Options.StorePath names a page file instead of memory. To serve
// concurrent queries, share the KnowledgeBase and run one Session per
// goroutine.
//
// Options holds the knowledge base's settings and the defaults every new
// session starts from. A session changes its own settings only through
// its setters: SetRuleStorage, SetStrategy, SetTimeout, SetQuota,
// SetTracer, SetSlowThreshold and EnableProfiling.
//
// The engine evaluates queries on the WAM; calls to externally stored
// procedures trap into the dynamic loader, which pre-unifies inside the
// storage engine and links only the candidate clauses. RuleStorageSource
// selects the Educe baseline (source text + interpreter) used by the
// paper's comparisons.
//
// Bounding a query: whichever evaluator answers it, a query runs inside
// one envelope owned by its session. Session.SetTimeout gives every query
// a fresh wall-clock budget from its start;
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

// KnowledgeBase is the shared, durable half of a deployment: page store
// and buffer pool, EDB catalog, relational catalog, and the shared
// loaded-code cache. A KnowledgeBase is safe for concurrent use: any
// number of Sessions may read it in parallel, while writes
// (ConsultExternal, InsertTuples, retracting or dropping stored
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

// Options configures a KnowledgeBase and the defaults of its sessions;
// the zero value is a usable in-memory, compiled-mode knowledge base.
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

// OpenKB opens (or creates) a knowledge base backed by the page file at
// opts.StorePath (in memory when empty), reconnecting to any procedures
// already stored in it. Create query contexts with NewSession; each
// starts from opts.
func OpenKB(opts Options) (*KnowledgeBase, error) { return core.OpenKB(opts) }
