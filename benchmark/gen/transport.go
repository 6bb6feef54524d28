package gen

import (
	"fmt"
	"strings"
)

// TransportSize sizes the MVV-shaped transport knowledge base.
type TransportSize struct {
	Stops     int // location/2 facts; schedule2/5 has outDegree times as many
	Timetable int // schedule3/11 facts
	Queries   int // distinct queries per class
}

// outDegree is the number of segments leaving every stop. Giving every
// stop the same number keeps the work of a route query the same whatever
// the seed, so that runs on different seeds measure the program and not
// the luck of the draw; the seed still decides where segments lead, what
// they cost and which queries are asked.
const outDegree = 3

// TransportRules is the route-finding program of the paper's §5.1, stored
// compiled in the EDB next to the facts. A route is a direct connection
// or one with a single change, which costs five minutes.
const TransportRules = `direct(From, To, Line, V) :- schedule2(Line, _, From, To, V).
route(From, To, V) :- schedule2(_, _, From, To, V).
route(From, To, V) :- schedule2(L1, _, From, Mid, T1), schedule2(L2, _, Mid, To, T2), L1 \= L2, V is T1 + T2 + 5.
`

// Transport is a generated transport knowledge base with its two query
// classes, each query carrying the answer a Go search over the segments
// gives.
type Transport struct {
	// Facts is the clause text of every fact: the user data.
	Facts string
	// Class1 are direct-connection queries, Class2 one-change routes.
	Class1, Class2 []Op
}

type segment struct {
	line, from, to string
	minutes        int
}

var transportKinds = []string{"bus", "tram", "ubahn", "sbahn"}

// NewTransport generates the network: from every stop outDegree segments
// of different kinds lead to distinct stops up to forty further on, a
// line being thirty consecutive stops' segments of one kind; the
// timetable expands random segments into departures; queries are sampled
// from stop pairs that have a connection.
func NewTransport(seed uint64, sz TransportSize) *Transport {
	r := NewRNG(seed, "transport")
	var b strings.Builder
	for i := 0; i < sz.Stops; i++ {
		fmt.Fprintf(&b, "location(stop_%d, zone_%d).\n", i, i%16)
	}
	var segs []segment
	for i := 0; i < sz.Stops; i++ {
		taken := map[int]bool{}
		for k := 0; k < outDegree; k++ {
			next := (i + 1 + r.Intn(40)) % sz.Stops
			for taken[next] || next == i {
				next = (next + 1) % sz.Stops
			}
			taken[next] = true
			kind := transportKinds[k%len(transportKinds)]
			s := segment{line: fmt.Sprintf("%s_%d", kind, i/30), from: fmt.Sprintf("stop_%d", i), to: fmt.Sprintf("stop_%d", next), minutes: 2 + r.Intn(9)}
			segs = append(segs, s)
			fmt.Fprintf(&b, "schedule2(%s, %s, %s, %s, %d).\n", s.line, kind, s.from, s.to, s.minutes)
		}
	}
	for run := 0; run < sz.Timetable; run++ {
		s := segs[r.Intn(len(segs))]
		depH, depM := 5+run%18, (run*7)%60
		arr := depM + s.minutes
		fmt.Fprintf(&b, "schedule3(%s, %s, %s, %s, %d, %d, %d, %d, weekday, zone_%d, %d).\n",
			s.line, strings.SplitN(s.line, "_", 2)[0], s.from, s.to, depH, depM, depH+arr/60, arr%60, run%16, run)
	}

	bySrc := map[string][]segment{}
	for _, s := range segs {
		bySrc[s.from] = append(bySrc[s.from], s)
	}
	t := &Transport{Facts: b.String()}
	seen := map[string]bool{}
	for len(t.Class1) < sz.Queries {
		s := segs[r.Intn(len(segs))]
		goal := fmt.Sprintf("direct(%s, %s, Line, V)", s.from, s.to)
		if seen[goal] {
			continue
		}
		seen[goal] = true
		var want Answer
		for _, d := range bySrc[s.from] {
			if d.to == s.to {
				want.Count++
				want.Sum += int64(d.minutes)
			}
		}
		t.Class1 = append(t.Class1, Op{Kind: Route1, Goal: goal, Want: want,
			Calls: []Call{{Pred: "direct", Args: []string{"", "", "", ""}}, schedule2Call(s.from, s.to)}})
	}
	for len(t.Class2) < sz.Queries {
		a := segs[r.Intn(len(segs))]
		conts := bySrc[a.to]
		to := conts[r.Intn(len(conts))].to
		goal := fmt.Sprintf("route(%s, %s, V)", a.from, to)
		if seen[goal] {
			continue
		}
		seen[goal] = true
		calls := []Call{{Pred: "route", Args: []string{"", "", ""}}, schedule2Call(a.from, to), schedule2Call(a.from, "")}
		mids := map[string]bool{}
		for _, s1 := range bySrc[a.from] {
			if !mids[s1.to] {
				mids[s1.to] = true
				calls = append(calls, schedule2Call(s1.to, to))
			}
		}
		t.Class2 = append(t.Class2, Op{Kind: Route2, Goal: goal, Want: routeAnswer(bySrc, a.from, to), Calls: calls})
	}
	return t
}

func schedule2Call(from, to string) Call {
	return Call{Pred: "schedule2", Args: []string{"", "", from, to, ""}}
}

// routeAnswer is the reference search for route(from, to, V): every
// direct segment, plus every pair of segments through a middle stop on
// two different lines.
func routeAnswer(bySrc map[string][]segment, from, to string) Answer {
	var want Answer
	for _, s1 := range bySrc[from] {
		if s1.to == to {
			want.Count++
			want.Sum += int64(s1.minutes)
		}
		for _, s2 := range bySrc[s1.to] {
			if s2.to == to && s2.line != s1.line {
				want.Count++
				want.Sum += int64(s1.minutes + s2.minutes + 5)
			}
		}
	}
	return want
}

// transportStream draws a quarter of its reads from class 1 and three
// quarters from class 2, uniformly within the class, and, when writeEvery
// is positive, makes every writeEvery-th operation a write transaction.
// The classes differ in cost by a factor of two; an even mix would put
// the median latency in the gap between them, where it jumps from one
// class to the other on the smallest shift.
type transportStream struct {
	r          *RNG
	t          *Transport
	client     int
	writeEvery int
	n, writes  int
	last       []string
}

// Reads returns the read-only stream of term_hot.
func (t *Transport) Reads(seed uint64) Stream {
	return t.Mixed(seed, 0, 0)
}

// Mixed returns one client's stream of served_rw: reads as in Reads, and
// every writeEvery-th operation a transaction that asserts two segments
// of the client's own line between stops no read names, and retracts the
// two the previous transaction asserted. Read answers therefore do not
// depend on how the clients' writes interleave.
func (t *Transport) Mixed(seed uint64, client, writeEvery int) Stream {
	return &transportStream{r: NewRNG(seed, fmt.Sprintf("transport-ops-%d", client)), t: t, client: client, writeEvery: writeEvery}
}

func (s *transportStream) Next() Op {
	s.n++
	if s.writeEvery > 0 && s.n%s.writeEvery == 0 {
		s.writes++
		op := Op{Kind: Write, Retract: s.last, Want: Answer{Count: 1}}
		op.Assert = WriteSegments(s.client, s.writes)
		s.last = op.Assert
		return op
	}
	class := s.t.Class2
	if s.r.Intn(4) == 0 {
		class = s.t.Class1
	}
	return class[s.r.Intn(len(class))]
}

// WriteLine is the line name a client's write transactions use.
func WriteLine(client int) string { return fmt.Sprintf("wline_%d", client) }

// WriteSegments returns the two clauses a client's n-th write asserts.
// Stop names alternate between two sets, so the dictionaries stop growing
// after the second write and the knowledge base keeps its size.
func WriteSegments(client, n int) []string {
	n %= 2
	return []string{
		fmt.Sprintf("schedule2(%s, bus, w%d_%d_a, w%d_%d_b, 7)", WriteLine(client), client, n, client, n),
		fmt.Sprintf("schedule2(%s, bus, w%d_%d_b, w%d_%d_c, 9)", WriteLine(client), client, n, client, n),
	}
}
