package loader

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/compiler"
	"repro/internal/parser"
	"repro/internal/wam"
)

// FuzzDecodeClause feeds DecodeClause arbitrary bytes, as a damaged or
// hostile clauses relation would. The decoder must never panic, and a
// blob it accepts must re-encode to one that decodes to the same clause.
// Equality is judged on the encoding, which keeps a NaN's float bits.
func FuzzDecodeClause(f *testing.F) {
	c := compiler.New(compiler.Options{})
	var blobs [][]byte
	for _, src := range []string{
		// The benchmark's stored shapes: keyed facts and rules over them.
		"schedule2(wline_0, bus, w0_3_a, w0_3_b, 7)",
		"item(k1234, g5, 17, tag_3)",
		"r42(X, V) :- item(X, _, V, _), V > 10",
		"route(A, B, T) :- conn(A, C, T1), T2 is T1 + 3, route(C, B, T3), T is T2 + T3",
		// Control constructs, floats, lists, strings, nested structures.
		`q(X) :- (X > 1 -> Y = big ; Y = small), \+ r(Y), !`,
		"s(X) :- (a(X) ; b(X) ; X = 2.25), X =\\= -0.0",
		`p(1.5, -1.0e300, "codes", [x, y|T], f(g(T), 'quoted atom'))`,
		// Local procedures: chained and nested constructs, a cut inside a
		// disjunction, a construct in a condition, recursion in a branch.
		"t(X, Y) :- (X = a -> Y = 1 ; X = b -> Y = 2 ; Y = 3)",
		`u(X) :- \+ (v(X), \+ w(X))`,
		"n(X) :- not(m(X)), (X > 0 ; X < -5)",
		"c(X) :- (a(X), ! ; b(X)), d(X)",
		"e(X) :- (X == 1 -> true ; fail)",
		"f(L, S) :- (L = [] -> S = 0 ; L = [H|T], f(T, S0), S is S0 + H)",
		`g(X) :- (X = f(Y, "s") ; X = 1.5), \+ Y = z`,
		"h(X) :- ((X = 1 ; X = 2) -> true ; X = 3)",
	} {
		tm, _, err := parser.ParseTerm(src)
		if err != nil {
			f.Fatalf("%s: %v", src, err)
		}
		ccs, err := c.CompileClause(tm)
		if err != nil {
			f.Fatalf("%s: %v", src, err)
		}
		for _, cc := range ccs {
			blobs = append(blobs, EncodeClause(cc))
		}
	}
	// A switch table, which the compiler leaves to the linker but the
	// codec carries.
	tm, _, _ := parser.ParseTerm("color(red)")
	ccs, _ := c.CompileClause(tm)
	sw := ccs[0]
	sw.Instrs = append(sw.Instrs, wam.Instr{Op: wam.OpSwitchOnConstant, L: -1,
		Tbl: []wam.SwitchCase{{Key: 3, Off: 1}, {Key: 1 << 40, Off: -2}}})
	blobs = append(blobs, EncodeClause(sw))

	for _, b := range blobs {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
	}
	header := binary.AppendUvarint(binary.AppendUvarint(nil, codecMagic), codecVersion)
	for _, hostile := range [][]byte{
		nil,
		{0xff},
		header,
		binary.AppendUvarint(binary.AppendUvarint(nil, codecMagic), codecVersion+1),
		append(header, bytes.Repeat([]byte{0xff}, 10)...),
	} {
		f.Add(hostile)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cc, err := DecodeClause(data)
		if err != nil {
			return
		}
		enc := EncodeClause(cc)
		back, err := DecodeClause(enc)
		if err != nil {
			t.Fatalf("re-encoded clause does not decode: %v", err)
		}
		if again := EncodeClause(back); !bytes.Equal(again, enc) {
			t.Fatalf("decode(encode(c)) differs from c:\n%x\n%x", enc, again)
		}
	})
}
