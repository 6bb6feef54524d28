package core

import (
	"io"
	"time"

	"repro/internal/obs"
)

// Option configures a Session at creation time. Options consolidate the
// per-feature setters that accumulated on Session (SetTimeout, SetQuota,
// SetTracer, SetSlowThreshold, EnableProfiling, SetRuleStorage,
// educe_strategy/1) into one declarative surface:
//
//	s, err := kb.NewSession(
//	    core.WithTimeout(2*time.Second),
//	    core.WithStrategy(core.StrategySet),
//	)
//
// The old setters remain as thin wrappers for imperative reconfiguration
// between queries; an Option is the same knob applied before the session
// runs anything.
type Option func(*sessionConfig)

// sessionConfig is the merged result of applying Options on top of the
// knowledge base's defaults.
type sessionConfig struct {
	opts        Options
	timeout     time.Duration
	quota       *Quota
	tracer      *obs.Tracer
	traceWriter io.Writer
	slowThresh  time.Duration
	profiling   bool
}

// WithOptions replaces the whole session-level Options block (DictSegment,
// DisableGC, DisableIndexing, DisablePreUnification, RuleStorage,
// Strategy; store-level fields are ignored by sessions). Later Options in
// the argument list still apply on top.
func WithOptions(o Options) Option {
	return func(c *sessionConfig) { c.opts = o }
}

// WithRuleStorage selects compiled (Educe*) or source (baseline)
// evaluation for externally stored rules.
func WithRuleStorage(rs RuleStorage) Option {
	return func(c *sessionConfig) { c.opts.RuleStorage = rs }
}

// WithStrategy selects tuple-at-a-time vs set-at-a-time evaluation of
// externally stored rule predicates (see Strategy).
func WithStrategy(st Strategy) Option {
	return func(c *sessionConfig) { c.opts.Strategy = st }
}

// WithTimeout gives every query a fresh wall-clock budget of d, counted
// from the query's start (see SetTimeout). d <= 0 leaves queries
// unbounded.
func WithTimeout(d time.Duration) Option {
	return func(c *sessionConfig) { c.timeout = d }
}

// WithQuota installs per-query resource caps (see SetQuota).
func WithQuota(q Quota) Option {
	return func(c *sessionConfig) { c.quota = &q }
}

// WithTracer directs per-query trace events to t (see SetTracer).
func WithTracer(t *obs.Tracer) Option {
	return func(c *sessionConfig) { c.tracer = t }
}

// WithTraceWriter is WithTracer with a fresh JSON-lines tracer over w.
func WithTraceWriter(w io.Writer) Option {
	return func(c *sessionConfig) { c.traceWriter = w }
}

// WithSlowThreshold arms the slow-query diagnostic log (see
// SetSlowThreshold).
func WithSlowThreshold(d time.Duration) Option {
	return func(c *sessionConfig) { c.slowThresh = d }
}

// WithProfiling turns the per-predicate 4-port profiler on from the
// session's first query (see EnableProfiling).
func WithProfiling() Option {
	return func(c *sessionConfig) { c.profiling = true }
}

// NewSession creates a session over the shared knowledge base, starting
// from the KB's default Options and applying opts in order.
func (kb *KnowledgeBase) NewSession(opts ...Option) (*Session, error) {
	cfg := sessionConfig{opts: kb.opts}
	for _, o := range opts {
		o(&cfg)
	}
	s, err := kb.NewSessionWithOptions(cfg.opts)
	if err != nil {
		return nil, err
	}
	s.SetTimeout(cfg.timeout)
	if cfg.quota != nil {
		s.SetQuota(*cfg.quota)
	}
	if cfg.traceWriter != nil {
		s.SetTraceWriter(cfg.traceWriter)
	}
	if cfg.tracer != nil {
		s.SetTracer(cfg.tracer)
	}
	if cfg.slowThresh > 0 {
		s.SetSlowThreshold(cfg.slowThresh)
	}
	if cfg.profiling {
		s.EnableProfiling(true)
	}
	return s, nil
}
