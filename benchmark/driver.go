package benchmark

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/benchmark/gen"
	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/server"
	"repro/internal/term"
)

// target is what a driver sends term-format operations to: a session in
// this process, or a client connection to the served knowledge base.
type target interface {
	query(goal string) (gen.Answer, error)
	begin() error
	commit() error
	rollback() error
}

type sessionTarget struct{ s *core.Session }

func (t sessionTarget) query(goal string) (gen.Answer, error) {
	var a gen.Answer
	sol, err := t.s.Query(goal)
	if err != nil {
		return a, err
	}
	defer sol.Close()
	for sol.Next() {
		a.Count++
		if v, ok := sol.Binding("V").(term.Int); ok {
			a.Sum += int64(v)
		}
	}
	return a, sol.Err()
}
func (t sessionTarget) begin() error    { return t.s.Begin() }
func (t sessionTarget) commit() error   { return t.s.Commit() }
func (t sessionTarget) rollback() error { return t.s.Rollback() }

type clientTarget struct{ c *server.Client }

func (t clientTarget) query(goal string) (gen.Answer, error) {
	var a gen.Answer
	res, err := t.c.Query(goal)
	if err != nil {
		return a, err
	}
	a.Count = res.N
	for _, sol := range res.Solutions {
		// The server renders bindings as "Name = value" joined by ", ",
		// names sorted; atoms in these workloads contain no comma.
		for _, b := range strings.Split(sol, ", ") {
			if v, ok := strings.CutPrefix(b, "V = "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return a, fmt.Errorf("solution %q: %w", sol, err)
				}
				a.Sum += n
			}
		}
	}
	return a, nil
}
func (t clientTarget) begin() error    { return t.c.Begin() }
func (t clientTarget) commit() error   { return t.c.Commit() }
func (t clientTarget) rollback() error { return t.c.Rollback() }

// driver runs one closed-loop stream of operations from one goroutine:
// each operation starts when the previous one has returned.
type driver struct {
	stream gen.Stream
	tgt    target
	// a and b are the Wisconsin relations of set-format reads.
	a, b *rel.Relation
	// breakOracle falsifies every expected answer (test only), to show
	// that a wrong answer fails the run.
	breakOracle bool

	// Filled by run, one entry per operation of the round.
	ops []gen.Op
	lat []int64 // nanoseconds

	failed   int
	firstErr error
	commitNS []int64
	// materializeNS holds the latency of the first path read after each
	// write: the read that has to rebuild the materialised closure.
	materializeNS []int64
	afterWrite    bool
	// lastAcked is the Assert list of the last write whose commit was
	// acknowledged; the durability check expects exactly these clauses.
	lastAcked []string

	tr *tracer // nil in an untraced pass
}

// take draws the next n operations of the stream, outside the timed
// part of a round.
func (d *driver) take(n int) {
	d.ops = gen.Take(d.stream, n)
	if cap(d.lat) < n {
		d.lat = make([]int64, n)
	}
	d.lat = d.lat[:n]
}

// run executes the drawn operations, timing each and checking its answer.
func (d *driver) run() {
	for i := range d.ops {
		op := &d.ops[i]
		var sp opSpans
		if d.tr != nil {
			sp = d.tr.beginOp(op)
		}
		t0 := time.Now()
		got, err := d.exec(op)
		dt := time.Since(t0)
		if d.tr != nil {
			d.tr.endOp(sp, op)
		}
		d.lat[i] = dt.Nanoseconds()
		want := op.Want
		if d.breakOracle {
			want.Count++
		}
		if err == nil && got != want {
			err = fmt.Errorf("%s %s: got %+v, want %+v", op.Kind, op.Goal, got, want)
		}
		if err != nil {
			d.failed++
			if d.firstErr == nil {
				d.firstErr = err
			}
		}
		switch {
		case op.Kind == gen.Write:
			d.afterWrite = true
		case op.Kind == gen.Path && d.afterWrite:
			d.afterWrite = false
			d.materializeNS = append(d.materializeNS, dt.Nanoseconds())
		}
	}
}

func (d *driver) exec(op *gen.Op) (gen.Answer, error) {
	switch op.Kind {
	case gen.Sel1Pct, gen.SelOne:
		return sumColumn(rel.IndexScan(d.a, "unique2", rel.IntV(op.Lo), rel.IntV(op.Hi)), 0)
	case gen.Join2:
		// Sum B's unique1 (the first attribute after A's), so a join
		// that pairs the wrong tuples gives the wrong sum.
		sel := rel.IndexScan(d.a, "unique2", rel.IntV(op.Lo), rel.IntV(op.Hi))
		return sumColumn(rel.IndexJoin(sel, d.b, 0, "unique1"), len(d.a.Schema.Attrs))
	case gen.Write:
		return d.write(op)
	}
	return d.tgt.query(op.Goal)
}

func sumColumn(it rel.Iterator, col int) (gen.Answer, error) {
	var a gen.Answer
	ts, err := rel.Collect(it)
	for _, t := range ts {
		a.Count++
		a.Sum += t[col].I
	}
	return a, err
}

// write runs one transaction: retract what the previous write asserted,
// assert this one's clauses, commit. Count 1 means every step succeeded
// and the commit was acknowledged.
func (d *driver) write(op *gen.Op) (gen.Answer, error) {
	if err := d.tgt.begin(); err != nil {
		return gen.Answer{}, err
	}
	step := func(builtin string, clauses []string) error {
		for _, c := range clauses {
			a, err := d.tgt.query(builtin + "(" + c + ")")
			if err == nil && a.Count != 1 {
				err = fmt.Errorf("%s(%s): %d solutions, want 1", builtin, c, a.Count)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	err := step("retract_external", op.Retract)
	if err == nil {
		err = step("assert_external", op.Assert)
	}
	if err != nil {
		// A failed step may already have rolled the transaction back;
		// the rollback's own error adds nothing then.
		_ = d.tgt.rollback()
		return gen.Answer{}, err
	}
	t0 := time.Now()
	if err := d.tgt.commit(); err != nil {
		return gen.Answer{}, err
	}
	d.commitNS = append(d.commitNS, time.Since(t0).Nanoseconds())
	d.lastAcked = op.Assert
	return gen.Answer{Count: 1}, nil
}
