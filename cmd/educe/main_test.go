package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/educe"
	"repro/internal/store"
)

// TestMetricsEndpoints pins the /metrics contract consumers scrape —
// JSON Content-Type and derived p50/p95/p99 quantile gauges on every
// histogram — and the /debug/profile snapshot shape. One test covers
// both endpoints because expvar.Publish inside startMetrics can only
// run once per process.
func TestMetricsEndpoints(t *testing.T) {
	kb, err := educe.OpenKB(educe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnableProfiling(true)
	if err := s.ConsultExternal("p(1). p(2)."); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryCount("p(X)"); err != nil {
		t.Fatal(err)
	}

	srv, err := startMetrics("127.0.0.1:0", kb)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + srv.Addr

	get := func(path string) (string, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("Content-Type"), body
	}

	ct, body := get("/metrics")
	if ct != "application/json" {
		t.Errorf("/metrics Content-Type = %q, want application/json", ct)
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	// Histograms in the snapshot carry the derived quantile gauges.
	hist, ok := snap["edb.pages_per_retrieval"].(map[string]any)
	if !ok {
		t.Fatalf("edb.pages_per_retrieval missing from /metrics: %v", keys(snap))
	}
	for _, q := range []string{"p50", "p95", "p99"} {
		if _, ok := hist[q]; !ok {
			t.Errorf("edb.pages_per_retrieval missing %s: %v", q, hist)
		}
	}
	// The selectivity counters are part of the scrape surface too.
	if _, ok := snap["edb.path.attr_index.scanned"]; !ok {
		t.Errorf("edb.path.attr_index.scanned missing from /metrics: %v", keys(snap))
	}

	ct, body = get("/debug/profile")
	if ct != "application/json" {
		t.Errorf("/debug/profile Content-Type = %q, want application/json", ct)
	}
	var prof struct {
		Preds  []educe.PredProfile `json:"preds"`
		Totals educe.PredCounters  `json:"totals"`
	}
	if err := json.Unmarshal(body, &prof); err != nil {
		t.Fatalf("/debug/profile is not valid JSON: %v", err)
	}
	if prof.Totals.Calls == 0 || len(prof.Preds) == 0 {
		t.Fatalf("/debug/profile empty after a profiled query: %s", body)
	}
	// The endpoint serves the same table educe_profile/2 reads.
	if got := kb.Profile().Totals(); got != prof.Totals {
		t.Errorf("/debug/profile totals %+v != kb.Profile().Totals() %+v", prof.Totals, got)
	}
}

// TestBackupRestoreRoundTrip drives the -backup / -restore plumbing:
// back up a live file-backed KB, commit more writes, then restore the
// image at the backup's end LSN and check it answers exactly the
// queries the source did at that point.
func TestBackupRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	arch := filepath.Join(dir, "arch")
	kb, err := educe.OpenKB(educe.Options{
		StorePath:     filepath.Join(dir, "kb.edb"),
		WALArchiveDir: arch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	w, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.ConsultExternal("g(1). g(2)."); err != nil {
		t.Fatal(err)
	}
	if err := kb.Flush(); err != nil {
		t.Fatal(err)
	}

	bk := filepath.Join(dir, "kb.backup")
	if code := runBackup(kb, bk); code != 0 {
		t.Fatalf("runBackup exit code %d", code)
	}
	lsn := kb.LSN()

	// Writes after the backup belong to later LSNs and must not appear
	// in a restore pinned at the backup's end.
	if err := w.ConsultExternal("g(3)."); err != nil {
		t.Fatal(err)
	}
	if err := kb.Flush(); err != nil {
		t.Fatal(err)
	}

	restored := filepath.Join(dir, "restored.edb")
	if err := runRestore(bk, restored, arch, lsn); err != nil {
		t.Fatalf("runRestore: %v", err)
	}
	rkb, err := educe.OpenKB(educe.Options{StorePath: restored})
	if err != nil {
		t.Fatal(err)
	}
	defer rkb.Close()
	if err := rkb.Check(); err != nil {
		t.Fatalf("restored KB fails check: %v", err)
	}
	s, err := rkb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n, err := s.QueryCount("g(_)"); err != nil || n != 2 {
		t.Fatalf("restored g/1 count = %d (%v), want 2", n, err)
	}

	// A backup to an unwritable path fails without leaving a file.
	if code := runBackup(kb, filepath.Join(dir, "missing", "kb.backup")); code == 0 {
		t.Fatal("runBackup to unwritable path succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "missing", "kb.backup")); err == nil {
		t.Fatal("failed backup left a file behind")
	}
}

// TestCheckRepairCLI drives -check / -repair: a sound KB prints ok, a
// poisoned derived index entry fails -check and is fixed by -repair (exit
// 0), and a lost primary entry fails -repair (exit 1).
func TestCheckRepairCLI(t *testing.T) {
	kb, err := educe.OpenKB(educe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ConsultExternal("g(a, 1). g(b, 2). g(c, 3)."); err != nil {
		t.Fatal(err)
	}
	run := func(repair bool) (int, string) {
		t.Helper()
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = w
		code := runCheck(kb, repair)
		os.Stdout = stdout
		w.Close()
		out, _ := io.ReadAll(r)
		return code, string(out)
	}
	if code, out := run(false); code != 0 || !strings.Contains(out, "check: ok") {
		t.Fatalf("sound KB: exit %d, %q", code, out)
	}

	// The clause index, reached the way edb.Open reaches it; its keys are
	// procID | tag | body (see internal/edb).
	anchor, _ := kb.Store().GetMeta("edb.index")
	index, err := store.OpenBTree(kb.Store().Pool(), store.PageID(anchor))
	if err != nil {
		t.Fatal(err)
	}
	prefix := binary.BigEndian.AppendUint32(nil, kb.DB().Proc("g", 2).ProcID)
	derived := binary.BigEndian.AppendUint64(append(prefix, 1), 12345)
	if err := index.Insert(derived, 1<<40); err != nil {
		t.Fatal(err)
	}
	if code, _ := run(false); code != 1 {
		t.Fatalf("poisoned derived entry: -check exit %d, want 1", code)
	}
	if code, out := run(true); code != 0 || !strings.Contains(out, "repair: 1 procedures rebuilt") {
		t.Fatalf("poisoned derived entry: -repair exit %d, %q", code, out)
	}
	if n, err := s.QueryCount("g(_, 2)"); err != nil || n != 1 {
		t.Fatalf("g(_, 2) after repair: %d solutions, %v", n, err)
	}

	var key []byte
	var val uint64
	index.Range(append(prefix, 0), nil, func(k []byte, v uint64) bool {
		key, val = append([]byte(nil), k...), v
		return false
	})
	if ok, err := index.Delete(key, val); !ok || err != nil {
		t.Fatalf("delete primary entry: %v %v", ok, err)
	}
	if code, _ := run(true); code != 1 {
		t.Fatalf("lost primary entry: -repair exit %d, want 1", code)
	}
}

// TestBatchPrintsUnboundAnswers: an answer variable left unbound prints as
// a fresh variable in both modes, one name for a variable two answers
// share, never as the query's own variable (source mode printed X = X).
func TestBatchPrintsUnboundAnswers(t *testing.T) {
	for _, mode := range []educe.RuleStorage{educe.RuleStorageCompiled, educe.RuleStorageSource} {
		kb, err := educe.OpenKB(educe.Options{RuleStorage: mode})
		if err != nil {
			t.Fatal(err)
		}
		defer kb.Close()
		s, err := kb.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = w
		err = runBatch(s, "catch((X = 1, throw(e)), e, Y = X)")
		os.Stdout = stdout
		w.Close()
		out, _ := io.ReadAll(r)
		var x, y string
		if _, serr := fmt.Sscanf(string(out), "X = %s Y = %s", &x, &y); err != nil || serr != nil ||
			!strings.HasPrefix(x, "_G") || x != y+"," {
			t.Errorf("mode %d: printed %q (%v), want X = _G<n>, Y = _G<n>", mode, out, err)
		}
	}
}

func keys(m map[string]any) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
