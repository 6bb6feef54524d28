package edb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/store"
)

func buildCheckedDB(t *testing.T) (*DB, *ProcInfo) {
	t.Helper()
	st, err := store.Open(nil, "", store.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	db, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	p, err := db.CreateProc("r", 2, FormCode)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		keys := []ArgKey{AtomKey(fmt.Sprintf("k%d", i%5)), IntKey(int64(i))}
		if i%4 == 0 {
			keys[0] = WildKey()
		}
		if _, err := db.StoreClause(p, keys, []byte(fmt.Sprintf("code-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return db, p
}

func TestCheckAcceptsSoundStore(t *testing.T) {
	db, _ := buildCheckedDB(t)
	if err := db.Check(); err != nil {
		t.Fatalf("sound store fails check: %v", err)
	}
}

func TestRepairRebuildsSecondaryIndexes(t *testing.T) {
	db, p := buildCheckedDB(t)
	// Poison argument 1's entries with one addressing no tag-0 record: a
	// derived entry now disagrees with the primary ones.
	if err := db.index.Insert(attrKey(p.ProcID, 1, 12345), 1<<40); err != nil {
		t.Fatal(err)
	}
	if err := db.Check(); err == nil {
		t.Fatal("check accepted a poisoned derived entry")
	}
	n, err := db.Repair()
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if n != 1 {
		t.Fatalf("rebuilt %d procedures, want 1", n)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("store still unsound after repair: %v", err)
	}
	// Both an argument-0 and an argument-1 (rebuilt) lookup still answer.
	if scs, err := db.Retrieve(p, []ArgKey{AtomKey("k1"), WildKey()}); err != nil || len(scs) == 0 {
		t.Fatalf("indexed retrieval on argument 0 after repair: %d clauses, %v", len(scs), err)
	}
	scs, err := db.Retrieve(p, []ArgKey{WildKey(), IntKey(5)})
	if err != nil {
		t.Fatal(err)
	}
	if got := blobs(scs); len(got) == 0 || got[0] != "code-5" {
		t.Fatalf("indexed retrieval on argument 1 after repair = %v", got)
	}
}

func TestRepairRefusesPrimaryCorruption(t *testing.T) {
	t.Run("clause count", func(t *testing.T) {
		db, p := buildCheckedDB(t)
		// Lie about the clause count: nothing derivable can explain it, so
		// repair must refuse rather than fabricate consistency.
		p.ClauseCount++
		defer func() { p.ClauseCount-- }()
		if err := db.Check(); err == nil {
			t.Fatal("check accepted a bad clause count")
		}
		if _, err := db.Repair(); err == nil {
			t.Fatal("repair claimed success on unrepairable corruption")
		}
	})
	t.Run("deleted tag-0 entry", func(t *testing.T) {
		db, p := buildCheckedDB(t)
		scs, err := db.Retrieve(p, []ArgKey{AtomKey("k1"), IntKey(1)})
		if err != nil || len(scs) != 1 {
			t.Fatalf("retrieve: %d clauses, %v", len(scs), err)
		}
		sc := scs[0]
		lost := attrKey(p.ProcID, 0, sc.keys[0].Hash)
		if ok, err := db.index.Delete(lost, sc.rid.Pack()); !ok || err != nil {
			t.Fatalf("delete tag-0 entry: %v %v", ok, err)
		}
		if err := db.Check(); err == nil {
			t.Fatal("check accepted a lost primary entry")
		}
		if _, err := db.Repair(); err == nil {
			t.Fatal("repair claimed success on a lost primary entry")
		}
		// The refusal wrote nothing: putting the entry back is enough.
		if err := db.index.Insert(lost, sc.rid.Pack()); err != nil {
			t.Fatal(err)
		}
		if err := db.Check(); err != nil {
			t.Fatalf("refused repair changed the index: %v", err)
		}
	})
}

func TestCheckReportsOrphanEntries(t *testing.T) {
	db, p := buildCheckedDB(t)
	if err := db.index.Insert(attrKey(p.ProcID+1, 0, 7), 1<<40); err != nil {
		t.Fatal(err)
	}
	if err := db.Check(); err == nil || !strings.Contains(err.Error(), "no procedure") {
		t.Fatalf("check of an orphan entry = %v", err)
	}
	if _, err := db.Repair(); err == nil {
		t.Fatal("repair claimed success with an orphan entry")
	}
}

// TestCheckReportsMalformedIndexNode: a clause-index node whose entry
// count runs past its page is reported by Check and Retrieve, not a panic.
func TestCheckReportsMalformedIndexNode(t *testing.T) {
	db, p := buildCheckedDB(t)
	pool := db.st.Pool()
	af, err := pool.Get(db.index.Anchor())
	if err != nil {
		t.Fatal(err)
	}
	root := store.PageID(binary.LittleEndian.Uint32(af.Data[0:4]))
	pool.Unpin(af, false)
	f, err := pool.GetX(root)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(f.Data[1:3], 0xFFFF) // the node's entry count
	pool.Unpin(f, true)
	if err := db.Check(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("clause index: store: btree %d: node %d", db.index.Anchor(), root)) {
		t.Fatalf("Check of a malformed index node = %v", err)
	}
	if _, err := db.Retrieve(p, []ArgKey{AtomKey("k1"), WildKey()}); err == nil {
		t.Fatal("Retrieve read through a malformed index node")
	}
}

// TestOpenRefusesPreIndexStore: a store with a procedures table but no
// edb.records heap was written in an older layout, either per-procedure
// indexes (edb.procs alone) or a clause record beside a separate code
// blob (edb.clauses + edb.index + edb.procs); it is refused, not misread.
func TestOpenRefusesPreIndexStore(t *testing.T) {
	for name, metas := range map[string][]string{
		"per-procedure indexes": {"edb.procs"},
		"record beside blob":    {"edb.clauses", "edb.index", "edb.procs"},
	} {
		t.Run(name, func(t *testing.T) {
			st, err := store.Open(nil, "", store.Options{PoolPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for _, m := range metas {
				h, err := store.CreateHeap(st.Pool())
				if err != nil {
					t.Fatal(err)
				}
				if err := st.SetMeta(m, uint64(h.Root())); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := Open(st); !errors.Is(err, errOldFormat) {
				t.Fatalf("Open of an old-format store = %v, want the format-change error", err)
			}
		})
	}
}

// TestMalformedRecordIsAnError: a clause record whose header does not
// describe itself consistently is reported by Retrieve and Check, never
// a panic.
func TestMalformedRecordIsAnError(t *testing.T) {
	for name, rec := range map[string][]byte{
		"short header":        {1, 0, 0, 0, 1},
		"K above the maximum": {1, 0, 0, 0, MaxIndexedArgs + 1, 0},
		"mask beyond K":       append([]byte{1, 0, 0, 0, 1, 0b10}, make([]byte, 8)...),
		"missing hashes":      append([]byte{1, 0, 0, 0, 2, 0}, make([]byte, 8)...),
	} {
		t.Run(name, func(t *testing.T) {
			db := memDB(t)
			p, err := db.CreateProc("m", 1, FormCode)
			if err != nil {
				t.Fatal(err)
			}
			rid, err := db.clauses.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.index.Insert(attrKey(p.ProcID, 0, 7), rid.Pack()); err != nil {
				t.Fatal(err)
			}
			p.ClauseCount = 1
			if _, err := db.Retrieve(p, nil); err == nil || !strings.Contains(err.Error(), "clause record") {
				t.Errorf("Retrieve of a malformed record = %v", err)
			}
			if err := db.Check(); err == nil || !strings.Contains(err.Error(), "clause record") {
				t.Errorf("Check of a malformed record = %v", err)
			}
		})
	}
}

// TestVariableHeadedProcsShareIndexPages: a procedure costs its records
// and index entries, not access structures of its own (the parent paid
// seven pages per two-argument procedure, about 7000 here).
func TestVariableHeadedProcsShareIndexPages(t *testing.T) {
	db := memDB(t)
	base := db.st.Pool().Pager().NumPages()
	for j := 0; j < 1000; j++ {
		p, err := db.CreateProc(fmt.Sprintf("r%d", j), 2, FormCode)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			if _, err := db.StoreClause(p, []ArgKey{WildKey(), WildKey()}, []byte("code")); err != nil {
				t.Fatal(err)
			}
		}
	}
	added := db.st.Pool().Pager().NumPages() - base
	t.Logf("1000 procedures added %d pages", added)
	if added >= 1000 {
		t.Fatalf("1000 two-clause procedures added %d pages, want < 1000", added)
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
}
