package core

import (
	"context"
	"time"

	"repro/internal/wam"
)

// The per-query resource envelope: how much one query may consume, whatever
// evaluator runs it. The session owns it. arm opens it at query start,
// disarm closes it when the iteration finishes, and check is the one poll
// the WAM dispatch loop, the set-at-a-time fixpoint driver and the baseline
// interpreter share. Only the heap, trail and solution caps live in the
// machine, because they must stay catchable from Prolog at the instruction
// that exceeds them; they bound compiled-mode queries only.

// SetTimeout gives every query of this session a fresh wall-clock budget
// of d, counted from the query's start; d <= 0 removes the bound. A query
// that outlives its budget aborts with a catchable error(timeout, educe)
// ball. It applies from the next query on and is safe to call from any
// goroutine.
func (s *Session) SetTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.budget.Store(int64(d))
}

// Interrupt asynchronously aborts this session's running query with a
// catchable error(interrupted, educe) ball. Safe to call from any
// goroutine; a pending interrupt is discarded when the next query starts.
func (s *Session) Interrupt() { s.m.Interrupt() }

// Quota caps the resources one query may consume. Zero fields are
// unlimited. Every cap surfaces inside the query as a catchable
// error(resource_error(Kind), educe) ball with Kind one of heap, trail,
// pages or solutions, alongside the timeout/interrupt machinery; an
// exhausted query dies but its session stays reusable. Enforcement is
// amortized (every 256 instructions or inferences), so a query may
// overshoot a cap slightly before it is killed. PagesTouched bounds both
// evaluators; HeapCells, TrailEntries and Solutions are properties of the
// WAM and bound compiled-mode queries only. The baseline interpreter
// instead ends a derivation nested deeper than its stack allows with
// resource_error(depth).
type Quota struct {
	// HeapCells bounds the WAM heap in cells, measured after garbage
	// collection: only live data counts against the cap.
	HeapCells int
	// TrailEntries bounds the WAM trail length.
	TrailEntries int
	// PagesTouched bounds the buffer-pool accesses one query's EDB
	// retrievals and relation reads may make (the paper's unit of I/O).
	PagesTouched int
	// Solutions bounds the number of solutions a query may deliver.
	Solutions int
}

// SetQuota installs per-query resource caps on this session. Unlike
// SetTimeout and Interrupt, SetQuota
// must be called from the session's own goroutine between queries — it is
// not safe to change a quota while a query is in flight. The quota
// persists until changed; the zero Quota removes all caps.
func (s *Session) SetQuota(q Quota) {
	s.quota = q
	s.m.SetQuota(wam.Quota{
		HeapCells:    q.HeapCells,
		TrailEntries: q.TrailEntries,
		Solutions:    q.Solutions,
	})
}

// Quota returns the session's installed per-query resource caps.
func (s *Session) Quota() Quota { return s.quota }

// check reports what ends the running query early: an interrupt, the
// expired deadline or the exhausted pages quota, as the catchable ball it
// surfaces as. Every evaluator polls it, reading only session-local state
// and the machine's two atomics.
func (s *Session) check() error {
	if err := s.m.CheckCancel(); err != nil {
		return err
	}
	if p := s.quota.PagesTouched; p > 0 && s.q.PagesTouched > uint64(p) {
		return wam.ResourceBall("pages")
	}
	return nil
}

// arm opens the envelope at query start: a pending interrupt aimed at the
// previous query is dropped, the deadline becomes the earlier of the fresh
// budget, counted from the query's start, and ctx's own, and ctx's
// cancellation is bound to Interrupt for the whole iteration. ctx is nil
// for a plain Query.
func (s *Session) arm(ctx context.Context) {
	s.m.ClearInterrupt()
	var deadline time.Time
	if b := s.budget.Load(); b > 0 {
		deadline = s.qStart.Add(time.Duration(b))
	}
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
		fired := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			s.m.Interrupt()
			close(fired)
		})
		s.qctx = ctx
		s.unbindCtx = func() {
			if !stop() {
				<-fired
			}
		}
	}
	s.m.SetDeadline(deadline)
}

// disarm closes the envelope when the iteration finishes: the deadline is
// cleared and the context unbound. If the context already fired, disarm
// waits for its Interrupt to land, so none can arrive later and hit an
// unrelated query.
func (s *Session) disarm() {
	s.m.SetDeadline(time.Time{})
	if s.unbindCtx != nil {
		s.unbindCtx()
		s.qctx, s.unbindCtx = nil, nil
	}
}

// cause maps the error that ended a step onto the Go boundary: a query
// killed through its context reports the context's error, not the ball
// the kill surfaced as. The machine's deadline can fire a beat before the
// context's own timer marks it done; it is still that deadline expiring.
func (s *Session) cause(err error) error {
	if s.qctx == nil || (err != wam.ErrInterrupted && err != wam.ErrTimeout) {
		return err
	}
	if cerr := s.qctx.Err(); cerr != nil {
		return cerr
	}
	if d, ok := s.qctx.Deadline(); ok && err == wam.ErrTimeout && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return err
}

// QueryCtx is Query under a context: the context's deadline (if earlier
// than the session's own budget) bounds the query, its cancellation
// interrupts whichever step is running, and a context already cancelled
// fails fast. When the context is the cause of a failure, Err reports the
// context's error (context.Canceled / DeadlineExceeded). The binding lasts
// until the iteration finishes; a later query is not affected.
func (s *Session) QueryCtx(ctx context.Context, q string) (*Solutions, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.query(ctx, q)
}
