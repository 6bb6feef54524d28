// Command educe is an interactive shell for the Educe* engine.
//
// Usage:
//
//	educe [-db kb.edb] [-mode compiled|source] [-strategy auto|tuple|set]
//	      [-external] [file.pl ...]
//
// Files named on the command line are consulted into main memory (or, with
// -external, compiled into the EDB). The shell then reads goals, one per
// line, and prints solutions; press enter on an empty line (or type ';')
// for more solutions, anything else for the next goal. Type 'halt.' to
// leave.
//
// -strategy selects how stored rule predicates are evaluated: "auto"
// (default; set-at-a-time semi-naive evaluation for eligible recursive
// predicates, the WAM for everything else), "tuple" (WAM everywhere),
// or "set" (semi-naive for any eligible stored predicate). The choice
// applies to the shell session and every served session; goals can
// override it per session with educe_strategy/1. See DESIGN.md §14.
//
// Robustness:
//
//	-check        verify the knowledge base's on-disk integrity (page
//	              checksums, structural invariants, index consistency)
//	              and exit; nonzero exit status on corruption
//	-repair       like -check, but rebuild derived structures (the clause
//	              index's argument 1..K-1 entries) when the check fails,
//	              then re-verify
//	-timeout D    bound every goal by wall-clock duration D (e.g. 5s);
//	              runaway goals abort with a catchable timeout error
//
// Observability:
//
//	-stats        print the cost breakdown (phase spans, pre-unification
//	              selectivity, cache hit ratios, I/O) after every goal
//	-trace FILE   append one JSON trace event per query phase span plus a
//	              per-query summary to FILE ("-" = stderr)
//	-metrics ADDR serve a live JSON snapshot of the knowledge-base metrics
//	              registry on http://ADDR/metrics (expvar at /debug/vars;
//	              per-predicate profile at /debug/profile)
//	-profile      enable the per-predicate 4-port profiler
//	              (call/exit/redo/fail counts, self-time, attributed EDB
//	              I/O); inspect via /debug/profile or educe_profile/2
//	-slow-query D log a slow_query diagnostic record (through -trace) for
//	              every goal taking at least D, e.g. -slow-query 250ms
//
// Serving:
//
//	-serve ADDR        serve the line protocol on ADDR (see internal/server)
//	                   instead of running a shell; SIGINT/SIGTERM drains
//	                   in-flight queries and exits 0
//	-max-sessions N    session pool size (concurrent queries)
//	-queue N           admission queue depth; past it queries are shed with
//	                   "overloaded retry-after=<ms>"
//	-quota-heap N      per-query cap on live WAM heap cells
//	-quota-trail N     per-query cap on trail entries
//	-quota-pages N     per-query cap on EDB pages touched
//	-quota-solutions N per-query cap on solutions delivered
//	-drain-timeout D   how long a drain waits for in-flight queries before
//	                   interrupting them (with -serve)
//
// The -timeout flag bounds each served query's execution like it bounds
// shell goals.
//
// Backup & recovery:
//
//	-wal-archive DIR       archive committed WAL segments into DIR at each
//	                       checkpoint instead of discarding them, enabling
//	                       point-in-time recovery
//	-wal-archive-budget N  cap the archive's total bytes; oldest segments
//	                       are pruned first (0 = unlimited)
//	-wal-checkpoint-bytes N  WAL size that triggers a checkpoint and log
//	                       truncation (0 = store default)
//	-backup FILE           stream an online backup of the knowledge base
//	                       to FILE (after consulting any named files) and
//	                       exit; writers in other processes of a shared
//	                       store are not blocked
//	-restore FILE          before opening, rebuild -db from the backup in
//	                       FILE, rolling the -wal-archive forward, then
//	                       verify the result with the integrity checker
//	-restore-to-lsn N      with -restore: stop WAL replay at commit LSN N
//	                       for point-in-time recovery (0 = roll forward
//	                       through the whole archive)
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/educe"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	dbPath := flag.String("db", "", "page file backing the EDB (empty = in-memory)")
	mode := flag.String("mode", "compiled", "rule storage: compiled (Educe*) or source (Educe baseline)")
	strategy := flag.String("strategy", "auto", "evaluation strategy for stored rule predicates: auto, tuple, or set (DESIGN.md §14)")
	external := flag.Bool("external", false, "consult files into the EDB instead of main memory")
	stats := flag.Bool("stats", false, "print engine statistics after every goal")
	goal := flag.String("goal", "", "run one goal non-interactively, print all solutions, exit")
	sessions := flag.Int("sessions", 1, "with -goal: run the goal concurrently on N sessions sharing one knowledge base (EDB-stored predicates only)")
	tracePath := flag.String("trace", "", "write per-query JSON trace events to this file (\"-\" = stderr)")
	metricsAddr := flag.String("metrics", "", "serve live metrics JSON on this address (http://ADDR/metrics)")
	profile := flag.Bool("profile", false, "enable the per-predicate 4-port profiler (see /debug/profile, educe_profile/2)")
	slowQuery := flag.Duration("slow-query", 0, "emit a slow_query trace record for goals taking at least this long (0 = off)")
	check := flag.Bool("check", false, "verify the knowledge base's integrity and exit (nonzero on corruption)")
	repair := flag.Bool("repair", false, "verify, rebuild derived index entries on failure, re-verify, and exit")
	timeout := flag.Duration("timeout", 0, "wall-clock bound per goal; runaway goals abort with a timeout error (0 = none)")
	serveAddr := flag.String("serve", "", "serve the line protocol on this address instead of running a shell")
	maxSessions := flag.Int("max-sessions", 4, "with -serve: session pool size (concurrent queries)")
	queueDepth := flag.Int("queue", 16, "with -serve: admission queue depth before load shedding")
	quotaHeap := flag.Int("quota-heap", 0, "with -serve: per-query cap on live WAM heap cells (0 = none)")
	quotaTrail := flag.Int("quota-trail", 0, "with -serve: per-query cap on trail entries (0 = none)")
	quotaPages := flag.Int("quota-pages", 0, "with -serve: per-query cap on EDB pages touched (0 = none)")
	quotaSolutions := flag.Int("quota-solutions", 0, "with -serve: per-query cap on solutions delivered (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "with -serve: grace for in-flight queries at shutdown before they are interrupted")
	backupPath := flag.String("backup", "", "stream an online backup of the knowledge base to this file and exit")
	restorePath := flag.String("restore", "", "before opening, restore the knowledge base from this backup file into -db, rolling -wal-archive forward")
	restoreLSN := flag.Uint64("restore-to-lsn", 0, "with -restore: stop WAL replay at this commit LSN (0 = whole archive)")
	walArchive := flag.String("wal-archive", "", "archive committed WAL segments into this directory at checkpoint (enables point-in-time recovery)")
	walArchiveBudget := flag.Int64("wal-archive-budget", 0, "cap the WAL archive's total bytes, pruning oldest segments first (0 = unlimited)")
	walCheckpointBytes := flag.Int64("wal-checkpoint-bytes", 0, "WAL size that triggers a checkpoint and log truncation (0 = store default)")
	flag.Parse()

	if *restorePath != "" {
		if *dbPath == "" {
			fmt.Fprintln(os.Stderr, "educe: -restore needs -db to name the restore target")
			os.Exit(2)
		}
		if err := runRestore(*restorePath, *dbPath, *walArchive, *restoreLSN); err != nil {
			fmt.Fprintln(os.Stderr, "educe: restore:", err)
			os.Exit(1)
		}
	}

	opts := educe.Options{
		StorePath:        *dbPath,
		CheckpointBytes:  *walCheckpointBytes,
		WALArchiveDir:    *walArchive,
		WALArchiveBudget: *walArchiveBudget,
	}
	switch *mode {
	case "compiled":
	case "source":
		opts.RuleStorage = educe.RuleStorageSource
	default:
		fmt.Fprintln(os.Stderr, "educe: -mode must be compiled or source")
		os.Exit(2)
	}
	st, err := educe.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "educe:", err)
		os.Exit(2)
	}
	opts.Strategy = st
	kb, err := educe.OpenKB(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "educe:", err)
		os.Exit(1)
	}
	defer kb.Close()

	if *restorePath != "" {
		if err := kb.Check(); err != nil {
			fmt.Fprintln(os.Stderr, "educe: restore verification:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "% restore verified")
	}

	if *check || *repair {
		code := runCheck(kb, *repair)
		kb.Close()
		os.Exit(code)
	}

	// The shell session: it starts from opts and takes the per-goal
	// settings through its setters.
	sess, err := kb.NewSession()
	if err != nil {
		fmt.Fprintln(os.Stderr, "educe:", err)
		os.Exit(1)
	}
	defer sess.Close()

	var tracer *educe.Tracer
	if *tracePath != "" {
		w := os.Stderr
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "educe:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		tracer = educe.NewTracer(w)
		sess.SetTracer(tracer)
	}
	if *profile {
		sess.EnableProfiling(true)
	}
	sess.SetTimeout(*timeout)
	if *slowQuery > 0 {
		if tracer == nil {
			// Slow-query records need a tracer; default to stderr.
			tracer = educe.NewTracer(os.Stderr)
			sess.SetTracer(tracer)
		}
		sess.SetSlowThreshold(*slowQuery)
	}
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		metricsSrv, err = startMetrics(*metricsAddr, kb)
		if err != nil {
			fmt.Fprintln(os.Stderr, "educe:", err)
			os.Exit(1)
		}
	}

	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "educe:", err)
			os.Exit(1)
		}
		if *external {
			err = sess.ConsultExternal(string(src))
		} else {
			err = sess.Consult(string(src))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "educe: %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("%% consulted %s\n", path)
	}

	if *backupPath != "" {
		code := runBackup(kb, *backupPath)
		sess.Close()
		kb.Close()
		os.Exit(code)
	}

	if *serveAddr != "" {
		if len(flag.Args()) > 0 && !*external {
			fmt.Fprintln(os.Stderr, "% note: files consulted without -external are private to this process's shell session and invisible to served queries")
		}
		cfg := server.Config{
			MaxSessions:   *maxSessions,
			QueueDepth:    *queueDepth,
			QueryTimeout:  *timeout,
			Profile:       *profile,
			SlowThreshold: *slowQuery,
			Tracer:        tracer,
			Quota: core.Quota{
				HeapCells:    *quotaHeap,
				TrailEntries: *quotaTrail,
				PagesTouched: *quotaPages,
				Solutions:    *quotaSolutions,
			},
		}
		if err := runServe(kb, *serveAddr, cfg, *drainTimeout, metricsSrv); err != nil {
			fmt.Fprintln(os.Stderr, "educe:", err)
			os.Exit(1)
		}
		return
	}

	if *goal != "" {
		g := strings.TrimSuffix(*goal, ".")
		if *sessions > 1 {
			if err := runConcurrent(kb, g, *sessions, tracer, *timeout, *profile, *slowQuery); err != nil {
				fmt.Fprintln(os.Stderr, "educe:", err)
				os.Exit(1)
			}
		} else if err := runBatch(sess, g); err != nil {
			fmt.Fprintln(os.Stderr, "educe:", err)
			os.Exit(1)
		}
		if *stats {
			printStats(sess.Stats())
		}
		return
	}

	in := bufio.NewScanner(os.Stdin)
	fmt.Println("Educe* shell — enter goals terminated by '.', 'halt.' to quit")
	for {
		fmt.Print("?- ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		goal := strings.TrimSpace(in.Text())
		goal = strings.TrimSuffix(goal, ".")
		if goal == "" {
			continue
		}
		if goal == "halt" {
			return
		}
		runGoal(sess, in, goal)
		if *stats {
			printStats(sess.Stats())
		}
	}
}

func runGoal(sess *educe.Session, in *bufio.Scanner, goal string) {
	sols, err := sess.Query(goal)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer sols.Close()
	any := false
	for sols.Next() {
		any = true
		names := sols.Vars()
		if len(names) == 0 {
			fmt.Println("true.")
			return
		}
		parts := make([]string, 0, len(names))
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s = %s", n, sols.Binding(n)))
		}
		fmt.Print(strings.Join(parts, ", "), " ")
		if !in.Scan() {
			return
		}
		more := strings.TrimSpace(in.Text())
		if more != ";" && more != "" {
			fmt.Println(".")
			return
		}
	}
	if err := sols.Err(); err != nil {
		fmt.Println("error:", err)
		return
	}
	if !any {
		fmt.Println("false.")
	} else {
		fmt.Println("no more solutions.")
	}
}

func printStats(st core.Stats) {
	fmt.Printf("%% instrs=%d calls=%d choicepoints=%d (elided %d) gc=%d pause=%v heap-peak=%d\n",
		st.Machine.Instructions, st.Machine.Calls, st.Machine.ChoicePoints,
		st.Machine.ChoicePointsElided, st.Machine.GCRuns,
		time.Duration(st.Machine.GCPauseNS), st.Machine.HeapPeak)
	fmt.Printf("%% edb: retrievals=%d candidates=%d io: acc=%d rd=%d wr=%d\n",
		st.EDB.Retrievals, st.EDB.CandidatesReturned,
		st.IO.Accesses, st.IO.Reads, st.IO.Writes)
	fmt.Printf("%% session-io: acc=%d rd=%d wr=%d pages-touched=%d\n",
		st.SessionIO.Accesses, st.SessionIO.Reads, st.SessionIO.Writes,
		st.Cost.PagesTouched)
	fmt.Printf("%% preunify: selectivity %s  code-cache: %s  dict: %s\n",
		obs.RatioString(st.Cost.ClausesPassed, st.Cost.ClausesScanned),
		obs.RatioString(st.Cost.CacheHits, st.Cost.CacheHits+st.Cost.CacheMisses),
		obs.RatioString(st.Dict.Hits, st.Dict.Hits+st.Dict.Misses))
	ph := &st.Cost.Phases
	fmt.Printf("%% phases: parse=%v compile=%v edb_fetch=%v preunify=%v link=%v exec=%v gc=%v store=%v\n",
		ph.Get(obs.PhaseParse), ph.Get(obs.PhaseCompile), ph.Get(obs.PhaseEDBFetch), ph.Get(obs.PhasePreUnify),
		ph.Get(obs.PhaseLink), ph.Get(obs.PhaseExec), ph.Get(obs.PhaseGC), ph.Get(obs.PhaseStore))
}

// startMetrics exposes the KB metrics registry: a flat JSON snapshot at
// /metrics, the per-predicate profile at /debug/profile, and the
// standard expvar page at /debug/vars (the registry is published as the
// expvar "educe" map). Bind errors are returned synchronously; later
// serve errors are reported on stderr. The returned handle lets the
// drain path shut the listener down with the rest of the process instead
// of leaking it until exit.
func startMetrics(addr string, kb *educe.KnowledgeBase) (*http.Server, error) {
	reg := kb.Obs()
	expvar.Publish("educe", expvar.Func(func() any { return reg.Snapshot() }))
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Snapshot())
	})
	mux.HandleFunc("/debug/profile", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(profileSnapshot(kb))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "educe: metrics:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "%% metrics on http://%s/metrics\n", ln.Addr())
	return srv, nil
}

// profileSnapshot is the /debug/profile document: the KB-wide
// per-predicate profile rows plus their totals.
func profileSnapshot(kb *educe.KnowledgeBase) map[string]any {
	t := kb.Profile()
	return map[string]any{
		"preds":  t.Snapshot(),
		"totals": t.Totals(),
	}
}

// runServe serves the query protocol until SIGINT/SIGTERM, then drains:
// stop accepting, let in-flight queries finish for drainTimeout, then
// interrupt them. The metrics listener (when present) is shut down with
// the query server. A clean drain exits 0.
func runServe(kb *educe.KnowledgeBase, addr string, cfg server.Config, drainTimeout time.Duration, metricsSrv *http.Server) error {
	srv, err := server.New(kb, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%% serving educe protocol on %s (%d sessions, queue %d)\n",
		ln.Addr(), cfg.MaxSessions, cfg.QueueDepth)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "%% %v: draining (up to %v)\n", s, drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if metricsSrv != nil {
		mctx, mcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer mcancel()
		metricsSrv.Shutdown(mctx)
	}
	fmt.Fprintln(os.Stderr, "% drained")
	return nil
}

// runBackup streams an online backup of the knowledge base to path. A failed backup removes the partial file; the primary store is
// unaffected either way.
func runBackup(kb *educe.KnowledgeBase, path string) int {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "educe: backup:", err)
		return 1
	}
	info, err := kb.Backup(f)
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		fmt.Fprintln(os.Stderr, "educe: backup:", err)
		return 1
	}
	fmt.Printf("%% backup: %d pages, LSNs %d..%d -> %s\n",
		info.Pages, info.StartLSN, info.EndLSN, path)
	return 0
}

// runRestore rebuilds dbPath from the backup stream in srcPath, rolling
// archived WAL segments in archiveDir forward to targetLSN (0 = as far
// as the archive reaches). The caller reopens and verifies the result.
func runRestore(srcPath, dbPath, archiveDir string, targetLSN uint64) error {
	f, err := os.Open(srcPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := store.Restore(dbPath, f, archiveDir, targetLSN); err != nil {
		return err
	}
	if targetLSN != 0 {
		fmt.Fprintf(os.Stderr, "%% restored %s from %s at LSN %d\n", dbPath, srcPath, targetLSN)
	} else {
		fmt.Fprintf(os.Stderr, "%% restored %s from %s\n", dbPath, srcPath)
	}
	return nil
}

// runCheck verifies the knowledge base and, when asked, repairs what is
// derivable. Exit status 0 means the store is (now) sound.
func runCheck(kb *educe.KnowledgeBase, repair bool) int {
	err := kb.Check()
	if err == nil {
		fmt.Println("% knowledge base check: ok")
		return 0
	}
	fmt.Fprintln(os.Stderr, "educe: check:", err)
	if !repair {
		return 1
	}
	n, rerr := kb.Repair()
	fmt.Printf("%% repair: %d procedures rebuilt\n", n)
	if rerr != nil {
		fmt.Fprintln(os.Stderr, "educe: repair:", rerr)
		return 1
	}
	if err := kb.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "educe: check after repair:", err)
		return 1
	}
	fmt.Println("% knowledge base check: ok after repair")
	return 0
}

// runBatch prints every solution of one goal.
func runBatch(sess *educe.Session, goal string) error {
	sols, err := sess.Query(goal)
	if err != nil {
		return err
	}
	defer sols.Close()
	n := 0
	for sols.Next() {
		n++
		names := sols.Vars()
		if len(names) == 0 {
			fmt.Println("true.")
			return nil
		}
		parts := make([]string, 0, len(names))
		for _, v := range names {
			parts = append(parts, fmt.Sprintf("%s = %s", v, sols.Binding(v)))
		}
		fmt.Println(strings.Join(parts, ", "))
	}
	if err := sols.Err(); err != nil {
		return err
	}
	if n == 0 {
		fmt.Println("false.")
	}
	return nil
}

// runConcurrent answers one goal from n sessions sharing the knowledge
// base, printing per-session solution counts and times. Only
// EDB-stored predicates are visible to the extra sessions; main-memory
// consults are private to the primary session.
func runConcurrent(kb *educe.KnowledgeBase, goal string, n int, tracer *educe.Tracer, timeout time.Duration, profile bool, slowQuery time.Duration) error {
	type result struct {
		count   int
		elapsed time.Duration
		err     error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := kb.NewSession()
			if err != nil {
				results[i].err = err
				return
			}
			defer s.Close()
			if tracer != nil {
				s.SetTracer(tracer)
			}
			if profile {
				s.EnableProfiling(true)
			}
			s.SetSlowThreshold(slowQuery)
			s.SetTimeout(timeout)
			t0 := time.Now()
			cnt, err := s.QueryCount(goal)
			results[i] = result{count: cnt, elapsed: time.Since(t0), err: err}
		}(i)
	}
	wg.Wait()
	total := time.Since(start)
	for i, r := range results {
		if r.err != nil {
			return fmt.Errorf("session %d: %w", i, r.err)
		}
		fmt.Printf("%% session %d: %d solutions in %v\n", i, r.count, r.elapsed)
	}
	fmt.Printf("%% %d sessions, wall time %v\n", n, total)
	return nil
}
