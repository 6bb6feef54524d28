package store

// Golden-file schema test for the store's metric names: the registry a
// pool and pager report into is the monitoring contract (-metrics dumps
// it, dashboards parse it), so name changes must be deliberate. Run with
// -update to regenerate testdata/metrics_names.golden after an
// intentional schema change.

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateMetricsGolden = flag.Bool("update", false, "rewrite golden files")

func TestStoreMetricsSchemaGolden(t *testing.T) {
	// A file-backed store registers the WAL and checksum metrics too;
	// 512 pool pages is the default config and yields 16 shards.
	dir := t.TempDir()
	st, err := Open(OSFS{}, filepath.Join(dir, "kb.pages"), Options{PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, want := st.Pool().Shards(), 16; got != want {
		t.Fatalf("default pool has %d shards, want %d (golden assumes the default)", got, want)
	}

	got := strings.Join(st.Obs().Names(), "\n") + "\n"
	golden := filepath.Join("testdata", "metrics_names.golden")
	if *updateMetricsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("store metric names diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPerShardMetricsCount pins the shape of the per-shard metrics: one
// accesses/hits/evictions counter and one hit_ratio func per shard, and
// the shards gauge reporting the shard count.
func TestPerShardMetricsCount(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPoolObs(inMemoryPager(t), 64, reg)
	snap := reg.Snapshot()
	if got := snap["buffer_pool.shards"].(int64); got != int64(p.Shards()) {
		t.Errorf("buffer_pool.shards = %d, pool has %d", got, p.Shards())
	}
	for _, kind := range []string{"accesses", "hits", "evictions", "hit_ratio"} {
		n := 0
		for name := range snap {
			if strings.HasPrefix(name, "buffer_pool.shard") && strings.HasSuffix(name, "."+kind) {
				n++
			}
		}
		if n != p.Shards() {
			t.Errorf("%d buffer_pool.shard*.%s metrics, want %d", n, kind, p.Shards())
		}
	}
	if _, ok := snap["buffer_pool.latch_waits"].(uint64); !ok {
		t.Error("buffer_pool.latch_waits missing or not a counter")
	}
	if _, ok := snap["buffer_pool.latch_wait_ns"].(obs.HistogramSnapshot); !ok {
		t.Error("buffer_pool.latch_wait_ns missing or not a histogram")
	}
}
