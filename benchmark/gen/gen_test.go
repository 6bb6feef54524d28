package gen

import (
	"fmt"
	"strings"
	"testing"
)

var testTransport = TransportSize{Stops: 80, Timetable: 50, Queries: 10}
var testItems = ItemsSize{Facts: 300, Rules: 40}
var testSet = SetSize{Tuples: 300, Chains: 4, ChainLen: 6, Depth: 3}

// render generates every workload's inputs for a seed and renders them,
// with the first operations of every stream, as one string.
func render(seed uint64) string {
	var b strings.Builder
	tr := NewTransport(seed, testTransport)
	it := NewItems(seed, testItems)
	sd := NewSetData(seed, testSet)
	b.WriteString(tr.Facts)
	b.WriteString(it.Source)
	b.WriteString(sd.Facts)
	fmt.Fprint(&b, sd.A, sd.B)
	for _, s := range []Stream{tr.Reads(seed), tr.Mixed(seed, 0, 20), tr.Mixed(seed, 1, 20), it.Calls(seed), sd.Ops(seed)} {
		for _, op := range Take(s, 500) {
			b.WriteString(op.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestSeedDeterminesInputs: the same seed gives byte-identical knowledge
// bases and operation streams, a different seed different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := render(11), render(11), render(12)
	if a != b {
		t.Fatal("the same seed gave different inputs")
	}
	if a == c {
		t.Fatal("different seeds gave the same inputs")
	}
}

// TestClientStreamsDiffer: the two served_rw clients draw different
// reads and write different clauses.
func TestClientStreamsDiffer(t *testing.T) {
	tr := NewTransport(5, testTransport)
	a, b := Take(tr.Mixed(5, 0, 20), 100), Take(tr.Mixed(5, 1, 20), 100)
	same := 0
	for i := range a {
		if a[i].String() == b[i].String() {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("%d of 100 operations equal across clients", same)
	}
	if a[19].Kind != Write || b[19].Kind != Write || a[19].Assert[0] == b[19].Assert[0] {
		t.Fatalf("20th operations: %v and %v", a[19], b[19])
	}
}

// TestSetStreamMix: every block of the set_rw stream is the fixed read
// mix followed by one write, and a write retracts what the previous one
// asserted.
func TestSetStreamMix(t *testing.T) {
	ops := Take(NewSetData(3, testSet).Ops(3), 10*SetBlock)
	var last []string
	for blk := 0; blk < 10; blk++ {
		counts := map[Kind]int{}
		for _, op := range ops[blk*SetBlock : (blk+1)*SetBlock] {
			counts[op.Kind]++
		}
		if counts[Sel1Pct] != 3 || counts[SelOne] != 6 || counts[Join2] != 2 || counts[Path] != 4 || counts[SG] != 4 || counts[Write] != 1 {
			t.Fatalf("block %d: mix %v", blk, counts)
		}
		w := ops[(blk+1)*SetBlock-1]
		if w.Kind != Write || fmt.Sprint(w.Retract) != fmt.Sprint(last) {
			t.Fatalf("block %d ends with %v, previous write asserted %v", blk, w, last)
		}
		last = w.Assert
	}
}
