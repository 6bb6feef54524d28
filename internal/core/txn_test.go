package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/store/simfs"
)

// --- Prolog-level transaction/1 ---------------------------------------------

func TestTransactionPrologCommitRollback(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.ConsultExternal("p(1). p(2)."); err != nil {
		t.Fatal(err)
	}

	// Committed transaction: both asserts land.
	if n, err := e.QueryCount("transaction((assert_external(p(3)), assert_external(p(4))))"); err != nil || n != 1 {
		t.Fatalf("transaction = %d (%v)", n, err)
	}
	if n, _ := e.QueryCount("p(_)"); n != 4 {
		t.Fatalf("after commit: p count = %d, want 4", n)
	}

	// Failing goal: the transaction rolls back, transaction/1 fails.
	if n, err := e.QueryCount("transaction((assert_external(p(5)), fail))"); err != nil || n != 0 {
		t.Fatalf("failing transaction = %d (%v)", n, err)
	}
	if n, _ := e.QueryCount("p(_)"); n != 4 {
		t.Fatalf("after failed txn: p count = %d, want 4", n)
	}

	// Throwing goal: rollback, ball rethrown and catchable outside.
	if n, err := e.QueryCount("catch(transaction((assert_external(p(6)), throw(boom))), boom, true)"); err != nil || n != 1 {
		t.Fatalf("throwing transaction = %d (%v)", n, err)
	}
	if n, _ := e.QueryCount("p(_)"); n != 4 {
		t.Fatalf("after thrown txn: p count = %d, want 4", n)
	}
	if e.InTxn() {
		t.Fatal("transaction left open")
	}

	// Explicit verbs across queries: begin / write / rollback.
	if n, err := e.QueryCount("begin"); err != nil || n != 1 {
		t.Fatalf("begin = %d (%v)", n, err)
	}
	if n, err := e.QueryCount("assert_external(p(7))"); err != nil || n != 1 {
		t.Fatalf("assert in txn = %d (%v)", n, err)
	}
	if n, _ := e.QueryCount("p(7)"); n != 1 {
		t.Fatal("own write invisible inside transaction")
	}
	if n, err := e.QueryCount("rollback"); err != nil || n != 1 {
		t.Fatalf("rollback = %d (%v)", n, err)
	}
	if n, _ := e.QueryCount("p(7)"); n != 0 {
		t.Fatal("rolled-back write still visible")
	}

	// Error mapping: nested begin, stray commit/rollback.
	if n, err := e.QueryCount("catch((begin, begin), error(transaction_error(nested_transaction), educe), rollback)"); err != nil || n != 1 {
		t.Fatalf("nested begin = %d (%v)", n, err)
	}
	if e.InTxn() {
		t.Fatal("transaction left open after nested-begin test")
	}
	if n, err := e.QueryCount("catch(commit, error(transaction_error(no_transaction), educe), true)"); err != nil || n != 1 {
		t.Fatalf("stray commit = %d (%v)", n, err)
	}
	if n, err := e.QueryCount("catch(rollback, error(transaction_error(no_transaction), educe), true)"); err != nil || n != 1 {
		t.Fatalf("stray rollback = %d (%v)", n, err)
	}

	// Counters surfaced through educe_statistics/2.
	commits := values(t, e, "educe_statistics(txn_commits, N)", "N")
	rollbacks := values(t, e, "educe_statistics(txn_rollbacks, N)", "N")
	if len(commits) != 1 || commits[0] == "0" {
		t.Fatalf("txn_commits = %v", commits)
	}
	if len(rollbacks) != 1 || rollbacks[0] == "0" {
		t.Fatalf("txn_rollbacks = %v", rollbacks)
	}
	if got := values(t, e, "educe_statistics(store_read_only, N)", "N"); len(got) != 1 || got[0] != "0" {
		t.Fatalf("store_read_only = %v", got)
	}
}

// --- Go-API rollback restores every layer ------------------------------------

func TestRollbackRestoresAllLayers(t *testing.T) {
	fsys := simfs.New(nil)
	kb, err := OpenKBFS(fsys, Options{StorePath: "kb", PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.ConsultExternal("p(1). p(2). p(3). q(a, 1). q(b, 2)."); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRelation(rel.Schema{Name: "edge", Attrs: []rel.Attr{
		{Name: "src", Type: rel.String}, {Name: "dst", Type: rel.String},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertTuples("edge", []rel.Tuple{
		{rel.StringV("a"), rel.StringV("b")},
		{rel.StringV("b"), rel.StringV("c")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := kb.Flush(); err != nil {
		t.Fatal(err)
	}

	baseStored := kb.DB().Stats().ClausesStored
	baseProcs := len(kb.DB().Procs())
	baseEdges := kb.Catalog().Get("edge").Count()

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	// Mutate every layer: clauses on an existing proc, a brand-new proc
	// with fresh dictionary symbols, a dropped proc, relation inserts,
	// a new relation.
	if err := s.ConsultExternal("p(10). p(11). brandnew(fresh_sym_one, fresh_sym_two)."); err != nil {
		t.Fatal(err)
	}
	if err := s.DropExternal("q", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertTuples("edge", []rel.Tuple{{rel.StringV("c"), rel.StringV("d")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRelation(rel.Schema{Name: "tmp", Attrs: []rel.Attr{{Name: "x", Type: rel.Int}}}); err != nil {
		t.Fatal(err)
	}
	// The owner sees its own writes mid-transaction.
	if n, _ := s.QueryCount("p(_)"); n != 5 {
		t.Fatalf("mid-txn p count = %d, want 5", n)
	}
	if kb.DB().Proc("q", 2) != nil {
		t.Fatal("mid-txn: dropped proc still present")
	}

	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Every layer is back: clause counts, proc table, relations, and the
	// on-page structures all pass Check.
	if err := kb.Check(); err != nil {
		t.Fatalf("Check after rollback: %v", err)
	}
	if got := kb.DB().Stats().ClausesStored; got != baseStored {
		t.Fatalf("clauses stored = %d, want %d", got, baseStored)
	}
	if got := len(kb.DB().Procs()); got != baseProcs {
		t.Fatalf("procs = %d, want %d", got, baseProcs)
	}
	if kb.DB().Proc("brandnew", 2) != nil {
		t.Fatal("proc created in txn survived rollback")
	}
	if kb.DB().Proc("q", 2) == nil {
		t.Fatal("proc dropped in txn not restored")
	}
	if got := kb.Catalog().Get("edge").Count(); got != baseEdges {
		t.Fatalf("edge count = %d, want %d", got, baseEdges)
	}
	if kb.Catalog().Get("tmp") != nil {
		t.Fatal("relation created in txn survived rollback")
	}
	if n, _ := s.QueryCount("p(_)"); n != 3 {
		t.Fatalf("p count after rollback = %d, want 3", n)
	}
	if n, _ := s.QueryCount("q(X, Y)"); n != 2 {
		t.Fatalf("q count after rollback = %d, want 2", n)
	}

	// The same work committed sticks, and survives reopen from disk.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.ConsultExternal("p(10). p(11)."); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.QueryCount("p(_)"); n != 5 {
		t.Fatalf("p count after commit = %d, want 5", n)
	}
	if err := kb.Close(); err != nil {
		t.Fatal(err)
	}
	kb2, err := OpenKBFS(fsys, Options{StorePath: "kb", PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer kb2.Close()
	s2, err := kb2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := s2.QueryCount("p(_)"); n != 5 {
		t.Fatalf("p count after reopen = %d, want 5", n)
	}
	if err := kb2.Check(); err != nil {
		t.Fatal(err)
	}
}

// --- auto-rollback on timeout and interrupt ----------------------------------

func TestAutoRollbackOnTimeout(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.ConsultExternal("p(1)."); err != nil {
		t.Fatal(err)
	}
	if err := e.Consult("loop :- loop."); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryAll("begin"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryAll("assert_external(p(99))"); err != nil {
		t.Fatal(err)
	}
	e.SetTimeout(50 * time.Millisecond)
	_, err := e.QueryAll("loop")
	e.SetTimeout(0)
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("err = %v, want timeout", err)
	}
	if e.InTxn() {
		t.Fatal("transaction survived timeout")
	}
	if n, _ := e.QueryCount("p(99)"); n != 0 {
		t.Fatal("timed-out transaction's write survived")
	}
	if got := values(t, e, "educe_statistics(txn_auto_rollbacks, N)", "N"); len(got) != 1 || got[0] != "1" {
		t.Fatalf("txn_auto_rollbacks = %v", got)
	}
}

func TestAutoRollbackOnInterrupt(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.ConsultExternal("p(1)."); err != nil {
		t.Fatal(err)
	}
	if err := e.Consult("loop :- loop."); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryAll("begin"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryAll("assert_external(p(99))"); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		e.Interrupt()
	}()
	if _, err := e.QueryAll("loop"); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interrupted", err)
	}
	if e.InTxn() {
		t.Fatal("transaction survived interrupt")
	}
	if n, _ := e.QueryCount("p(99)"); n != 0 {
		t.Fatal("interrupted transaction's write survived")
	}
}

func TestAutoRollbackOnSessionClose(t *testing.T) {
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ConsultExternal("p(1)."); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.AssertExternalTerm(mustParseCore(t, "p(2)")); err != nil {
		t.Fatal(err)
	}
	s.Close() // abandons the open transaction

	s2, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := s2.QueryCount("p(_)"); n != 1 {
		t.Fatalf("p count = %d, want 1 (close must roll back)", n)
	}
}

// --- commit-fault matrix: ENOSPC/EIO must degrade to read-only ---------------

// txnFaultWorkload builds a base KB on fsys, opens a transaction and
// applies its writes, returning the session and the op index where
// commit will start.
func txnFaultWorkload(t *testing.T, fsys *simfs.FS) (*KnowledgeBase, *Session, int) {
	t.Helper()
	kb, err := OpenKBFS(fsys, Options{StorePath: "kb", PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ConsultExternal("p(1). p(2). p(3)."); err != nil {
		t.Fatal(err)
	}
	if err := kb.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.ConsultExternal("p(10). p(11). newproc(x)."); err != nil {
		t.Fatal(err)
	}
	return kb, s, 0
}

func TestTxnCommitFaultDegradesKB(t *testing.T) {
	// Probe run: count the durability ops before and during commit.
	probe := simfs.NewCtl(-1)
	kb, s, _ := txnFaultWorkload(t, simfs.New(probe))
	pre := probe.Ops()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	commitOps := probe.Ops() - pre
	if commitOps < 2 {
		t.Fatalf("commit performed %d ops, expected at least write+sync", commitOps)
	}
	kb.Close()

	for k := 0; k < commitOps; k++ {
		for _, inject := range []error{syscall.ENOSPC, syscall.EIO} {
			t.Run(fmt.Sprintf("op%d/%v", k, inject), func(t *testing.T) {
				ctl := simfs.NewCtl(-1)
				fsys := simfs.New(ctl)
				kb, s, _ := txnFaultWorkload(t, fsys)
				ctl.FailAt(pre+k, inject)

				err := s.Commit()
				if err == nil {
					t.Fatal("commit succeeded through injected fault")
				}
				if !errors.Is(err, inject) {
					t.Fatalf("commit error = %v, want %v", err, inject)
				}
				// The KB degraded to read-only; the transaction rolled
				// back at every layer.
				if !kb.Store().ReadOnly() {
					t.Fatal("store not read-only after failed commit")
				}
				if s.InTxn() {
					t.Fatal("transaction still open after failed commit")
				}
				if n, _ := s.QueryCount("p(_)"); n != 3 {
					t.Fatalf("p count = %d, want 3 (pre-txn)", n)
				}
				if kb.DB().Proc("newproc", 1) != nil {
					t.Fatal("txn-created proc survived failed commit")
				}
				// Reads keep working; writes are refused with ErrReadOnly.
				if err := s.ConsultExternal("p(42)."); !errors.Is(err, store.ErrReadOnly) {
					t.Fatalf("write on read-only KB: %v, want ErrReadOnly", err)
				}
				if err := s.Begin(); !errors.Is(err, store.ErrReadOnly) {
					t.Fatalf("begin on read-only KB: %v, want ErrReadOnly", err)
				}
				// The degraded mode is visible to Prolog, and the write
				// rejection is a catchable transaction_error.
				if got := values2(t, s, "educe_statistics(store_read_only, N)", "N"); len(got) != 1 || got[0] != "1" {
					t.Fatalf("store_read_only = %v", got)
				}
				if n, err := s.QueryCount("catch(assert_external(p(42)), error(transaction_error(read_only), educe), true)"); err != nil || n != 1 {
					t.Fatalf("read_only ball = %d (%v)", n, err)
				}
				kb.Close()

				// Reopening against the (healed) disk finds the intact
				// pre-transaction state: the failed commit left nothing.
				kb2, err := OpenKBFS(fsys, Options{StorePath: "kb", PoolPages: 64})
				if err != nil {
					t.Fatal(err)
				}
				defer kb2.Close()
				if kb2.Store().ReadOnly() {
					t.Fatal("reopened store is read-only")
				}
				s2, err := kb2.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				defer s2.Close()
				if n, _ := s2.QueryCount("p(_)"); n != 3 {
					t.Fatalf("p count after reopen = %d, want 3", n)
				}
				if err := kb2.Check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestTxnCommitFaultCatchableInProlog drives the same failure through
// the commit/0 builtin: the disk fault surfaces inside the query as
// error(transaction_error(commit_failed), educe).
func TestTxnCommitFaultCatchableInProlog(t *testing.T) {
	probe := simfs.NewCtl(-1)
	kb, s, _ := txnFaultWorkload(t, simfs.New(probe))
	pre := probe.Ops()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	kb.Close()

	ctl := simfs.NewCtl(-1)
	kb, s, _ = txnFaultWorkload(t, simfs.New(ctl))
	defer kb.Close()
	ctl.FailAt(pre, syscall.ENOSPC)
	n, err := s.QueryCount("catch(commit, error(transaction_error(commit_failed), educe), true)")
	if err != nil || n != 1 {
		t.Fatalf("catch(commit, ...) = %d (%v)", n, err)
	}
	if !kb.Store().ReadOnly() {
		t.Fatal("store not read-only")
	}
	if n, _ := s.QueryCount("p(_)"); n != 3 {
		t.Fatalf("p count = %d, want 3", n)
	}
}

// values2 is values for a bare Session.
func values2(t *testing.T, s *Session, q, v string) []string {
	t.Helper()
	sols, err := s.QueryAll(q)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	var out []string
	for _, m := range sols {
		out = append(out, m[v].String())
	}
	return out
}

// --- crash matrix: dying mid-transaction or mid-commit ------------------------

// TestTxnCrashMatrixCore crashes the whole process at every durability
// operation from transaction begin through commit and close, then
// verifies that recovery lands on exactly the pre-transaction snapshot
// or exactly the committed state — never between. The commit marker
// protocol makes the committed state visible if and only if the WAL
// commit record was durably acknowledged, so the decision is read off
// the recovered KB itself: if the transaction's sentinel proc exists,
// everything must.
func TestTxnCrashMatrixCore(t *testing.T) {
	// workload builds the base KB, then runs the transaction. It bails
	// out at the first error (the injected crash); mark, when set, is
	// called at the transaction boundary. The deferred session close
	// rolls back any transaction the crash left open, releasing the KB
	// lock so kb.Close can proceed.
	//
	// The transaction also stores txnFacts facts, so that its commit spans
	// many pages and the matrix cuts it at twenty-one points, not a handful.
	const txnFacts = 430
	txnSrc := "p(10). p(11). newproc(x)."
	for i := 0; i < txnFacts; i++ {
		txnSrc += fmt.Sprintf(" q(%d).", i)
	}
	workload := func(fsys *simfs.FS, mark func()) {
		kb, err := OpenKBFS(fsys, Options{StorePath: "kb", PoolPages: 64})
		if err != nil {
			return
		}
		defer kb.Close()
		s, err := kb.NewSession()
		if err != nil {
			return
		}
		defer s.Close()
		if err := s.ConsultExternal("p(1). p(2). p(3)."); err != nil {
			return
		}
		if err := kb.Flush(); err != nil {
			return
		}
		if mark != nil {
			mark()
		}
		if err := s.Begin(); err != nil {
			return
		}
		if err := s.ConsultExternal(txnSrc); err != nil {
			return
		}
		_ = s.Commit()
	}

	// Probe: count the durability ops up to the transaction boundary
	// and in total.
	probe := simfs.NewCtl(-1)
	baseOps := -1
	workload(simfs.New(probe), func() { baseOps = probe.Ops() })
	total := probe.Ops()
	if baseOps < 0 || total <= baseOps {
		t.Fatalf("probe did not reach the transaction (base %d, total %d)", baseOps, total)
	}

	for crashAt := baseOps; crashAt <= total; crashAt++ {
		for _, variant := range simfs.Variants {
			t.Run(fmt.Sprintf("crash%d/%s", crashAt, variant), func(t *testing.T) {
				ctl := simfs.NewCtl(crashAt)
				fsys := simfs.New(ctl)
				workload(fsys, nil)

				dead := fsys.Harvest(variant)
				kb, err := OpenKBFS(dead, Options{StorePath: "kb", PoolPages: 64})
				if err != nil {
					t.Fatalf("reopen after crash: %v", err)
				}
				defer kb.Close()
				if err := kb.Check(); err != nil {
					t.Fatalf("Check after crash: %v", err)
				}
				s, err := kb.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				nBase, _ := s.QueryCount("p(_)")
				hasTxn := kb.DB().Proc("newproc", 1) != nil
				nFacts := 0
				if q := kb.DB().Proc("q", 1); q != nil {
					nFacts = q.ClauseCount
				}
				switch {
				case hasTxn && nBase == 5 && nFacts == txnFacts:
					// full committed state
				case !hasTxn && nBase == 3 && nFacts == 0:
					// exact pre-transaction snapshot
				default:
					t.Fatalf("recovered state is partial: p=%d q=%d txnproc=%v", nBase, nFacts, hasTxn)
				}
			})
		}
	}
}

// --- satellite 3: concurrent rollback hammer ---------------------------------

// TestTxnRollbackHammer runs one writer session doing
// assert/retract-heavy transactions that all roll back, plus committed
// batches on a second predicate, while seven reader sessions stream
// queries. Readers must never observe a partial transaction: predicate
// p stays at its base count at every instant a reader can look, and
// predicate q only ever grows in whole committed batches. Run with
// -race (the CI txn-fault-matrix job does).
func TestTxnRollbackHammer(t *testing.T) {
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()

	w, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.ConsultExternal("p(1). p(2). p(3). p(4). q(0)."); err != nil {
		t.Fatal(err)
	}
	baseStored := kb.DB().Stats().ClausesStored

	const (
		readers   = 7
		rounds    = 25
		batchSize = 3
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, readers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := kb.NewSession()
			if err != nil {
				errCh <- err
				return
			}
			defer s.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n, err := s.QueryCount("p(_)"); err != nil || n != 4 {
					errCh <- fmt.Errorf("reader saw p=%d (%v)", n, err)
					return
				}
				if n, err := s.QueryCount("q(_)"); err != nil || (n-1)%batchSize != 0 {
					errCh <- fmt.Errorf("reader saw partial q batch: %d (%v)", n, err)
					return
				}
			}
		}()
	}

	qNext := 1
	for i := 0; i < rounds; i++ {
		// A rolled-back transaction touching p: asserts, a retract, a
		// mid-txn error on odd rounds (auto-rollback path).
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := w.ConsultExternal("p(100). p(101)."); err != nil {
			t.Fatal(err)
		}
		if _, err := w.RetractExternal(mustParseCore(t, "p(1)")); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if _, err := w.QueryAll("throw(abort_me)"); err == nil {
				t.Fatal("throw did not error")
			}
			if w.InTxn() {
				t.Fatal("auto-rollback did not fire")
			}
		} else if err := w.Rollback(); err != nil {
			t.Fatal(err)
		}
		if got := kb.DB().Stats().ClausesStored; got != baseStored {
			t.Fatalf("round %d: stored = %d, want %d", i, got, baseStored)
		}
		if err := kb.Check(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}

		// A committed batch on q, atomic for readers.
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		var batch []string
		for j := 0; j < batchSize; j++ {
			batch = append(batch, fmt.Sprintf("q(%d).", qNext))
			qNext++
		}
		if err := w.ConsultExternal(strings.Join(batch, " ")); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		baseStored += batchSize
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if n, _ := w.QueryCount("q(_)"); n != 1+rounds*batchSize {
		t.Fatalf("final q count = %d, want %d", n, 1+rounds*batchSize)
	}
	if err := kb.Check(); err != nil {
		t.Fatal(err)
	}
}
