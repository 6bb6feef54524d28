package edb

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/dict"
	"repro/internal/obs"
	"repro/internal/store"
)

func memDB(t *testing.T) *DB {
	t.Helper()
	st, err := store.Open(nil, "", store.Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateAndLookupProc(t *testing.T) {
	db := memDB(t)
	p, err := db.CreateProc("route", 3, FormCode)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 3 {
		t.Fatalf("K = %d", p.K)
	}
	if got := db.Proc("route", 3); got != p {
		t.Fatal("lookup mismatch")
	}
	if db.Proc("route", 2) != nil {
		t.Fatal("wrong-arity lookup should miss")
	}
	if _, err := db.CreateProc("route", 3, FormCode); err == nil {
		t.Fatal("duplicate create accepted")
	}
	// K capped.
	p2, _ := db.CreateProc("wide", 11, FormCode)
	if p2.K != MaxIndexedArgs {
		t.Fatalf("K for arity 11 = %d", p2.K)
	}
}

func TestStoreRetrieveGroundClauses(t *testing.T) {
	db := memDB(t)
	p, _ := db.CreateProc("edge", 2, FormCode)
	for i := 0; i < 100; i++ {
		keys := []ArgKey{AtomKey(fmt.Sprintf("n%d", i)), AtomKey(fmt.Sprintf("n%d", i+1))}
		if _, err := db.StoreClause(p, keys, []byte(fmt.Sprintf("blob%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Constrain first argument: exactly one candidate.
	scs, err := db.Retrieve(p, []ArgKey{AtomKey("n42"), WildKey()})
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 || string(scs[0].Blob) != "blob42" {
		t.Fatalf("retrieve n42 = %d clauses (%v)", len(scs), blobs(scs))
	}
	// Constrain second argument only.
	scs, err = db.Retrieve(p, []ArgKey{WildKey(), AtomKey("n8")})
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 || string(scs[0].Blob) != "blob7" {
		t.Fatalf("retrieve _,n8 = %v", scs)
	}
	// No constraint: all clauses in clause order.
	scs, _ = db.AllClauses(p)
	if len(scs) != 100 {
		t.Fatalf("all clauses = %d", len(scs))
	}
	for i := 1; i < len(scs); i++ {
		if scs[i].ClauseID <= scs[i-1].ClauseID {
			t.Fatal("clauses out of order")
		}
	}
}

func TestVariableHeadedClauses(t *testing.T) {
	db := memDB(t)
	p, _ := db.CreateProc("p", 2, FormCode)
	db.StoreClause(p, []ArgKey{AtomKey("a"), AtomKey("x")}, []byte("c0"))
	db.StoreClause(p, []ArgKey{WildKey(), AtomKey("y")}, []byte("c1")) // p(_, y)
	db.StoreClause(p, []ArgKey{AtomKey("b"), WildKey()}, []byte("c2"))

	// Query p(a, _): must include c0 (match) and c1 (var first arg),
	// exclude c2 (first arg b).
	scs, err := db.Retrieve(p, []ArgKey{AtomKey("a"), WildKey()})
	if err != nil {
		t.Fatal(err)
	}
	got := blobs(scs)
	if len(got) != 2 || got[0] != "c0" || got[1] != "c1" {
		t.Fatalf("retrieve p(a,_) = %v", got)
	}
	// Query p(_, y): c1 only? c0 has x, c2 has wild second arg.
	scs, _ = db.Retrieve(p, []ArgKey{WildKey(), AtomKey("y")})
	got = blobs(scs)
	if len(got) != 2 || got[0] != "c1" || got[1] != "c2" {
		t.Fatalf("retrieve p(_,y) = %v", got)
	}
}

func blobs(scs []StoredClause) []string {
	var out []string
	for _, sc := range scs {
		out = append(out, string(sc.Blob))
	}
	return out
}

func TestTypeAndValueIndexing(t *testing.T) {
	db := memDB(t)
	p, _ := db.CreateProc("t", 1, FormCode)
	db.StoreClause(p, []ArgKey{AtomKey("foo")}, []byte("atom"))
	db.StoreClause(p, []ArgKey{IntKey(7)}, []byte("int"))
	db.StoreClause(p, []ArgKey{StructKey("foo", 2)}, []byte("struct"))
	db.StoreClause(p, []ArgKey{ListKey()}, []byte("list"))

	cases := []struct {
		key  ArgKey
		want string
	}{
		{AtomKey("foo"), "atom"},
		{IntKey(7), "int"},
		{StructKey("foo", 2), "struct"},
		{ListKey(), "list"},
	}
	for _, c := range cases {
		scs, err := db.Retrieve(p, []ArgKey{c.key})
		if err != nil {
			t.Fatal(err)
		}
		if len(scs) != 1 || string(scs[0].Blob) != c.want {
			t.Errorf("retrieve %+v = %v, want [%s]", c.key, blobs(scs), c.want)
		}
	}
	if scs, _ := db.Retrieve(p, []ArgKey{IntKey(8)}); len(scs) != 0 {
		t.Errorf("retrieve 8 = %v", blobs(scs))
	}
}

func TestDeleteClause(t *testing.T) {
	db := memDB(t)
	p, _ := db.CreateProc("d", 1, FormCode)
	db.StoreClause(p, []ArgKey{AtomKey("a")}, []byte("ca"))
	db.StoreClause(p, []ArgKey{WildKey()}, []byte("cv"))
	db.StoreClause(p, []ArgKey{AtomKey("b")}, []byte("cb"))

	scs, _ := db.Retrieve(p, []ArgKey{AtomKey("a")})
	if len(scs) != 2 {
		t.Fatalf("before delete: %v", blobs(scs))
	}
	if err := db.DeleteClause(p, scs[0]); err != nil { // delete "ca"
		t.Fatal(err)
	}
	scs, _ = db.Retrieve(p, []ArgKey{AtomKey("a")})
	if len(scs) != 1 || string(scs[0].Blob) != "cv" {
		t.Fatalf("after delete: %v", blobs(scs))
	}
	// Delete the var-list clause too.
	if err := db.DeleteClause(p, scs[0]); err != nil {
		t.Fatal(err)
	}
	if p.ClauseCount != 1 {
		t.Fatalf("clause count = %d", p.ClauseCount)
	}
}

func TestDropProc(t *testing.T) {
	db := memDB(t)
	p, _ := db.CreateProc("gone", 1, FormCode)
	db.StoreClause(p, []ArgKey{AtomKey("x")}, []byte("1"))
	if err := db.DropProc(p); err != nil {
		t.Fatal(err)
	}
	if db.Proc("gone", 1) != nil {
		t.Fatal("procedure still present")
	}
}

func TestArityZeroProc(t *testing.T) {
	db := memDB(t)
	p, _ := db.CreateProc("flag", 0, FormCode)
	db.StoreClause(p, nil, []byte("only"))
	scs, err := db.AllClauses(p)
	if err != nil || len(scs) != 1 {
		t.Fatalf("arity 0: %v %v", blobs(scs), err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edb.db")
	st, err := store.Open(store.OSFS{}, path, store.Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := db.CreateProc("conn", 2, FormCode)
	for i := 0; i < 50; i++ {
		db.StoreClause(p, []ArgKey{AtomKey(fmt.Sprintf("s%d", i)), IntKey(int64(i))}, []byte(fmt.Sprintf("code%d", i)))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(store.OSFS{}, path, store.Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	db2, err := Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	p2 := db2.Proc("conn", 2)
	if p2 == nil || p2.ClauseCount != 50 {
		t.Fatalf("reopened proc: %+v", p2)
	}
	scs, err := db2.Retrieve(p2, []ArgKey{AtomKey("s33"), WildKey()})
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 || string(scs[0].Blob) != "code33" {
		t.Fatalf("reopened retrieve: %v", blobs(scs))
	}
}

// TestOpenAcceptsStoreWithDictionaryHeap: a store written while the EDB
// kept a persistent external dictionary carries an edb.extdict heap of
// (name, arity, hash) records beside an otherwise identical layout. It
// opens, answers, takes new clauses and passes Check; the dictionary heap
// is never read and its pages stay allocated. A new store records no such
// heap.
func TestOpenAcceptsStoreWithDictionaryHeap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edb.db")
	st, err := store.Open(store.OSFS{}, path, store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetMeta("edb.extdict"); ok {
		t.Fatal("a new store recorded an edb.extdict heap")
	}
	symbols, err := store.CreateHeap(st.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetMeta("edb.extdict", uint64(symbols.Root())); err != nil {
		t.Fatal(err)
	}
	p, _ := db.CreateProc("conn", 2, FormCode)
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("s%d", i)
		rec := binary.AppendUvarint(nil, uint64(len(name)))
		rec = append(rec, name...)
		rec = binary.AppendUvarint(rec, 0)
		rec = binary.LittleEndian.AppendUint64(rec, dict.Hash(name, 0))
		if _, err := symbols.Insert(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := db.StoreClause(p, []ArgKey{AtomKey(name), IntKey(int64(i))}, []byte(fmt.Sprintf("code%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(store.OSFS{}, path, store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	db2, err := Open(st2)
	if err != nil {
		t.Fatalf("Open of a store with a dictionary heap: %v", err)
	}
	p2 := db2.Proc("conn", 2)
	if _, err := db2.StoreClause(p2, []ArgKey{AtomKey("s10"), IntKey(10)}, []byte("code10")); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{3, 10} {
		scs, err := db2.Retrieve(p2, []ArgKey{AtomKey(fmt.Sprintf("s%d", i)), WildKey()})
		if err != nil || len(scs) != 1 || string(scs[0].Blob) != fmt.Sprintf("code%d", i) {
			t.Fatalf("retrieve s%d: %v, %v", i, blobs(scs), err)
		}
	}
	if err := db2.Check(); err != nil {
		t.Fatalf("Check of a store with a dictionary heap: %v", err)
	}
	root, ok := st2.GetMeta("edb.extdict")
	if !ok {
		t.Fatal("the dictionary heap lost its meta entry")
	}
	n := 0
	err = store.OpenHeap(st2.Pool(), store.PageID(root)).Scan(func(store.RID, []byte) (bool, error) {
		n++
		return true, nil
	})
	if err != nil || n != 10 {
		t.Fatalf("dictionary heap after reopen: %d records, %v", n, err)
	}
}

func TestPreUnificationStats(t *testing.T) {
	db := memDB(t)
	p, _ := db.CreateProc("s", 1, FormCode)
	for i := 0; i < 1000; i++ {
		db.StoreClause(p, []ArgKey{IntKey(int64(i))}, []byte{byte(i)})
	}
	db.ResetStats()
	scs, _ := db.Retrieve(p, []ArgKey{IntKey(500)})
	if len(scs) != 1 {
		t.Fatalf("candidates = %d", len(scs))
	}
	st := db.Stats()
	if st.Retrievals != 1 || st.CandidatesReturned != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The point of pre-unification: far fewer pages touched than a full
	// scan would need. Compare candidate counts.
	db.ResetStats()
	scs, _ = db.AllClauses(p)
	st = db.Stats()
	fullScans := db.paths[obs.PathFullScan].choices.Value()
	if fullScans != 1 || int(st.CandidatesReturned) != len(scs) || len(scs) != 1000 {
		t.Fatalf("full scan stats = %+v, %d full scans (%d clauses)", st, fullScans, len(scs))
	}
}

// TestRetrieveReadsOneRecordPerCandidate: a clause's header and code are
// one record, so a retrieval costs its index range plus one buffer
// access per candidate.
func TestRetrieveReadsOneRecordPerCandidate(t *testing.T) {
	db := memDB(t)
	p, _ := db.CreateProc("c", 2, FormCode)
	for i := 0; i < 300; i++ {
		keys := []ArgKey{AtomKey(fmt.Sprintf("k%d", i%3)), IntKey(int64(i))}
		if _, err := db.StoreClause(p, keys, []byte(fmt.Sprintf("code%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pool := db.st.Pool()
	a0 := pool.Accesses()
	if err := db.indexRange(attrKey(p.ProcID, 0, AtomKey("k1").Hash), func([]byte, store.RID) bool { return true }); err != nil {
		t.Fatal(err)
	}
	rangeCost := pool.Accesses() - a0
	a0 = pool.Accesses()
	scs, err := db.Retrieve(p, []ArgKey{AtomKey("k1"), WildKey()})
	if err != nil {
		t.Fatal(err)
	}
	got := pool.Accesses() - a0
	if len(scs) != 100 || string(scs[0].Blob) != "code1" {
		t.Fatalf("retrieve k1 = %d clauses, first %q", len(scs), scs[0].Blob)
	}
	if want := rangeCost + uint64(len(scs)); got != want {
		t.Fatalf("retrieval of %d candidates made %d buffer accesses, want %d (index range %d + one per candidate)",
			len(scs), got, want, rangeCost)
	}
}

// TestRetractPagesIndependentOfSharedValue: deleting one of N clauses that
// share an indexed argument value costs as many buffer accesses at N = 16k
// as at N = 1k, give or take a deeper index: each of the clause's index
// entries is found by one descent, not by walking the entries filed under
// the shared value.
func TestRetractPagesIndependentOfSharedValue(t *testing.T) {
	cost := func(n int) uint64 {
		db := memDB(t)
		p, _ := db.CreateProc("schedule", 2, FormCode)
		for i := 0; i < n; i++ {
			keys := []ArgKey{AtomKey("bus"), IntKey(int64(i))}
			if _, err := db.StoreClause(p, keys, []byte(fmt.Sprintf("code%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		scs, err := db.Retrieve(p, []ArgKey{WildKey(), IntKey(int64(n - 1))})
		if err != nil || len(scs) != 1 {
			t.Fatalf("retrieve the last clause: %d clauses, %v", len(scs), err)
		}
		pool := db.st.Pool()
		a0 := pool.Accesses()
		if err := db.DeleteClause(p, scs[0]); err != nil {
			t.Fatal(err)
		}
		return pool.Accesses() - a0
	}
	small, large := cost(1000), cost(16000)
	if large > small+2 {
		t.Fatalf("a retract made %d buffer accesses among 1k clauses sharing a value, %d among 16k", small, large)
	}
}
