package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/edb"
	"repro/internal/term"
	"repro/internal/wam"
)

// TestResidentTrapCatchesUp: a keyed call that traps while its resident
// variant is stale answers as a load would. The query calls f(k2, X) twice;
// between its solutions another session asserts f(k2, y), so the hit entry
// refuses the second call and the trap must catch the record up before it
// serves a variant (it used to serve the stale one, answering x twice).
func TestResidentTrapCatchesUp(t *testing.T) {
	e := newSession(t, Options{})
	consultExternal("f(k1, a). f(k2, x).")(t, e)
	var ss [2]*Session
	for i := range ss {
		s, err := e.KB().NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ss[i] = s
	}
	w, fresh := ss[0], ss[1]
	sols, err := e.Query("member(K, [k2, k2]), f(K, X)")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for sols.Next() {
		got = append(got, sols.Binding("X").String())
		if len(got) == 1 {
			if _, err := w.QueryCount("assert_external(f(k2, y))"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sols.Err(); err != nil {
		t.Fatal(err)
	}
	// The first call's iteration keeps the clauses it started with; the
	// second answers as in a session where f is not resident.
	want := append([]string{"x"}, values(t, fresh, "f(k2, X)", "X")...)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("X = %v, want %v", got, want)
	}
}

// TestResidentUnadmittedWriteVisitsNone: a write that no resident variant
// admits drops nothing and tests no variant, in the knowledge base's table
// and in the reader's, the first write (which counts the variants) too, and
// a retract of a clause no call read; a write that one admits still drops it.
func TestResidentUnadmittedWriteVisitsNone(t *testing.T) {
	const n = 50
	e := newSession(t, Options{})
	var src strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "f(k%d, v). ", i)
	}
	consultExternal(src.String()+"f(z, v).")(t, e)
	for i := 0; i < n; i++ {
		answers(t, e, fmt.Sprintf("f(k%d, X)", i))
	}
	w, err := e.KB().NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	visits := countAdmits(t)
	fn := e.m.Dict.Intern("f", 2)
	for _, c := range []struct {
		write, read, want string
		visits            bool
		variants          int
	}{
		{"assert_external(f(k99, w))", "f(k1, X)", "v", false, n},
		{"retract_external(f(z, v))", "f(k2, X)", "v", false, n},
		{"assert_external(f(k1, w))", "f(k1, X)", "v w", true, n},
	} {
		*visits = 0
		if _, err := w.QueryCount(c.write); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(values(t, e, c.read, "X"), " "); got != c.want {
			t.Errorf("after %s: %s gave %s, want %s", c.write, c.read, got, c.want)
		}
		if (*visits > 0) != c.visits {
			t.Errorf("after %s: %d variants tested, want more than none: %v", c.write, *visits, c.visits)
		}
		if rp := e.resident[fn]; rp == nil || len(rp.variants) != c.variants {
			t.Errorf("after %s: reader holds %v, want %d variants", c.write, rp, c.variants)
		}
	}
}

// TestResidentKeyCountsMatchScan files and drops random variants in the
// knowledge base's table and in a session's, their filters wild or bound
// over three hashes at each position so that keys repeat, through random
// write logs, catch-ups, evictAll and the epoch clear. After every step
// each table holds exactly what a full edb.Admits scan of a model leaves,
// and its counts, once built, equal a recount of its variants.
func TestResidentKeyCountsMatchScan(t *testing.T) {
	e := newSession(t, Options{})
	kb := e.kb
	rng := rand.New(rand.NewSource(1))
	pis := []term.Indicator{{Name: "p", Arity: 2}, {Name: "q", Arity: 4}}
	randKeys := func(pi term.Indicator) []edb.ArgKey {
		keys := make([]edb.ArgKey, pi.Arity)
		for j := range keys {
			if h := rng.Intn(4); h == 0 {
				keys[j] = edb.WildKey()
			} else {
				keys[j] = edb.ArgKey{Hash: uint64(h)}
			}
		}
		return keys
	}
	type record struct {
		ver  uint64
		vars map[callKey]filterKey
	}
	shared := map[term.Indicator]map[filterKey]bool{}
	resident := map[term.Indicator]*record{}
	logs := map[term.Indicator][]filterKey{} // version v's write at v-1
	// catchUp brings pi's model record to version ver, as the scan did.
	catchUp := func(pi term.Indicator, ver uint64) {
		r := resident[pi]
		if r == nil {
			return
		}
		if ver-r.ver > writeLogLen {
			clear(r.vars)
		}
		for ck, fk := range r.vars {
			for _, w := range logs[pi][r.ver:ver] {
				if edb.Admits(fk[:], w[:]) {
					delete(r.vars, ck)
				}
			}
		}
		if r.ver = ver; len(r.vars) == 0 {
			delete(resident, pi)
		}
	}
	write := func(pi term.Indicator, own bool) {
		keys := randKeys(pi)
		if rng.Intn(5) == 0 {
			keys = nil
		}
		w := filterKeyOf(keys)
		for j := range w {
			w[j].Wild = w[j].Wild || keys == nil
		}
		for fk := range shared[pi] {
			if edb.Admits(fk[:], w[:]) {
				delete(shared[pi], fk)
			}
		}
		logs[pi] = append(logs[pi], w)
		if own {
			e.invalidateStored(pi, keys)
			catchUp(pi, uint64(len(logs[pi])))
		} else {
			kb.invalidateProc(pi, keys)
		}
	}
	recount := func(fks []filterKey) keyCounts {
		kc := keyCounts{}
		for i := range fks {
			kc.add(&fks[i], 1)
		}
		return kc
	}
	var next int64
	counted := 0
	for step := 0; step < 4000; step++ {
		pi := pis[rng.Intn(len(pis))]
		fn := e.m.Dict.Intern(pi.Name, pi.Arity)
		switch op := rng.Intn(20); {
		case op < 6: // a variant decoded into the shared table
			fk := filterKeyOf(randKeys(pi))
			kb.storeShared(pi, fk, nil)
			if shared[pi] == nil {
				shared[pi] = map[filterKey]bool{}
			}
			shared[pi][fk] = true
		case op < 10: // a variant linked in the session at the current version
			ver := kb.storedVersion(pi)
			catchUp(pi, ver)
			next++
			ck := callKey{args: [edb.MaxIndexedArgs]wam.Cell{wam.MakeInt(next)}}
			fk := filterKeyOf(randKeys(pi))
			blk := e.m.AddBlock(&wam.CodeBlock{})
			e.file(fn, pi, ver, 1, ck, &variant{Proc: wam.Proc{Fn: fn, Arity: pi.Arity, Block: blk, Transient: true}, fk: fk})
			if resident[pi] == nil {
				resident[pi] = &record{ver: ver, vars: map[callKey]filterKey{}}
			}
			resident[pi].vars[ck] = fk
		case op < 15: // writes, by another session or this one
			for n := 1 + rng.Intn(3)*rng.Intn(writeLogLen); n > 0; n-- {
				write(pi, rng.Intn(2) == 0)
			}
		case op < 18: // the session's next query catches pi up
			ver := kb.storedVersion(pi)
			if rp := e.resident[fn]; rp != nil {
				e.catchUp(fn, rp, ver)
			}
			catchUp(pi, ver)
		case op < 19:
			e.evictAll()
			clear(resident)
		default: // the epoch clear, then the variant that set it off
			kb.nvariants = sharedCacheLimit
			fk := filterKeyOf(randKeys(pi))
			kb.storeShared(pi, fk, nil)
			clear(shared)
			shared[pi] = map[filterKey]bool{fk: true}
		}

		for _, pi := range pis {
			var fks []filterKey
			have := map[filterKey]bool{}
			sp := kb.shared[pi]
			if sp != nil {
				for fk := range sp.variants {
					fks = append(fks, fk)
					have[fk] = true
				}
			}
			if !maps.Equal(have, shared[pi]) {
				t.Fatalf("step %d: shared %s holds %v, the scan leaves %v", step, pi, have, shared[pi])
			}
			if sp != nil && sp.counts != nil {
				counted++
				if !maps.Equal(sp.counts, recount(fks)) {
					t.Fatalf("step %d: shared %s counts %v, recount %v", step, pi, sp.counts, recount(fks))
				}
			}
			rp, r := e.resident[e.m.Dict.Intern(pi.Name, pi.Arity)], resident[pi]
			if (rp == nil) != (r == nil) {
				t.Fatalf("step %d: session record of %s is %v, model %v", step, pi, rp, r)
			}
			if rp == nil {
				continue
			}
			fks = fks[:0]
			got := map[callKey]filterKey{}
			for ck, v := range rp.variants {
				got[ck] = v.fk
				fks = append(fks, v.fk)
			}
			if rp.ver != r.ver || !maps.Equal(got, r.vars) {
				t.Fatalf("step %d: session %s at %d holds %v, the scan leaves %v at %d", step, pi, rp.ver, got, r.vars, r.ver)
			}
			if rp.counts != nil {
				counted++
				if !maps.Equal(rp.counts, recount(fks)) {
					t.Fatalf("step %d: session %s counts %v, recount %v", step, pi, rp.counts, recount(fks))
				}
			}
		}
	}
	if counted == 0 {
		t.Fatal("no table was counted")
	}
}
