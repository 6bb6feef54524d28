package gen

import "fmt"

// Kind names what an operation does. The harness reports latency per
// kind in the traced run; the end-to-end metrics pool all kinds.
type Kind string

// Operation kinds.
const (
	Route1  Kind = "route1"  // direct connection between adjacent stops
	Route2  Kind = "route2"  // route with at most one change
	Fact    Kind = "fact"    // keyed call of one stored fact
	Rule    Kind = "rule"    // keyed call through a stored rule procedure
	Sel1Pct Kind = "sel1pct" // set-format 1 % range selection
	SelOne  Kind = "selone"  // set-format single-tuple selection
	Join2   Kind = "join2"   // set-format selection joined to a second relation
	Path    Kind = "path"    // bound transitive-closure query
	SG      Kind = "sg"      // bound same-generation query
	Write   Kind = "write"   // transaction: asserts plus retracts, then commit
)

// Answer is what an operation must return: the number of solutions and
// the sum of the integer bound to V (or, for set-format reads, of the
// unique1 attribute) over them. Both are order-independent, so they hold
// for any evaluation strategy.
type Answer struct {
	Count int
	Sum   int64
}

// Call names one stored procedure an operation reaches and the call's
// argument pattern ("" for an unbound argument, else an atom). The
// traced run replays these through the EDB and the loader directly.
type Call struct {
	Pred string
	Args []string
}

// Op is one operation of a workload's stream together with its expected
// answer.
type Op struct {
	Kind Kind
	// Goal is the Prolog text of a term-format read.
	Goal string
	// Lo and Hi bound the unique2 range of a set-format read.
	Lo, Hi int64
	// Assert and Retract are the ground clauses a write adds and removes.
	Assert, Retract []string
	// Calls lists the stored procedures a term-format read reaches.
	Calls []Call
	Want  Answer
}

// String renders every field, so two streams are equal exactly when
// their renderings are.
func (o Op) String() string {
	return fmt.Sprintf("%s|%s|%d|%d|%v|%v|%v|%d|%d",
		o.Kind, o.Goal, o.Lo, o.Hi, o.Assert, o.Retract, o.Calls, o.Want.Count, o.Want.Sum)
}

// Stream yields a workload's operations in order. A stream is a pure
// function of the seed it was made from.
type Stream interface {
	Next() Op
}

// Take returns the next n operations of s.
func Take(s Stream, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = s.Next()
	}
	return ops
}
