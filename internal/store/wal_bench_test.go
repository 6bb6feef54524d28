package store_test

// Write-amplification accounting for the durable pager. Before the WAL,
// every Allocate performed two file writes on the spot (the zeroed page
// and the rewritten header), plus one more per page at flush — so a
// fresh-page workload paid ≥2 file writes per allocation. With the
// header held in memory and committed through the log, an allocation
// costs zero immediate writes; the page reaches the file once, at
// checkpoint, and the log batch adds one write per commit group.

import (
	"testing"

	"repro/internal/store"
	"repro/internal/store/simfs"
)

// BenchmarkAllocateDurable allocates and dirties fresh pages against a
// file-backed store, committing every 64 pages, and reports the file
// writes and fsyncs per allocated page.
func BenchmarkAllocateDurable(b *testing.B) {
	fsys := simfs.New(nil)
	st, err := store.Open(fsys, "kb", store.Options{PoolPages: 256})
	if err != nil {
		b.Fatal(err)
	}
	pool := st.Pool()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := pool.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		f.Data[0] = byte(i)
		pool.Unpin(f, true)
		if i%64 == 63 {
			if err := st.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	writes, syncs := fsys.Counts()
	b.ReportMetric(float64(writes)/float64(b.N), "file-writes/alloc")
	b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/alloc")
}
