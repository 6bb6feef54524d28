package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// pinnedFrames counts the pins held on the pool's frames.
func pinnedFrames(p *Pool) int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			n += f.pins
		}
		sh.mu.Unlock()
	}
	return n
}

// TestHeapReadRuns: the page-run reader hands each record over as Get
// returns it, pins each page once per run, and ends every error path — a
// deleted slot, a slot past the table, an error from fn mid-run — with no
// frame pinned, an overflow record read inside a run included.
func TestHeapReadRuns(t *testing.T) {
	s := memStore(t)
	pool := s.Pool()
	h, err := CreateHeap(pool)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	var recs [][]byte
	for i := 0; i < 300; i++ {
		rec := []byte(fmt.Sprintf("record-%03d-%s", i, strings.Repeat("x", i%40)))
		if i == 150 {
			rec = bytes.Repeat([]byte{'o'}, 3*PageSize) // an overflow record
		}
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids, recs = append(rids, rid), append(recs, rec)
	}
	pages := 1
	for i := 1; i < len(rids); i++ {
		if rids[i].Page != rids[i-1].Page {
			pages++
		}
	}
	if pages < 3 {
		t.Fatalf("the records fill %d pages; the test wants several runs", pages)
	}
	read := func(rids []RID, fn func(i int, data []byte) error) error {
		t.Helper()
		err := h.ReadRuns(rids, fn)
		if n := pinnedFrames(pool); n != 0 {
			t.Fatalf("ReadRuns returned (%v) with %d pins held", err, n)
		}
		return err
	}

	acc := pool.Accesses()
	n := 0
	if err := read(rids, func(i int, data []byte) error {
		if want, _ := h.Get(rids[i]); i != n || !bytes.Equal(data, recs[i]) || !bytes.Equal(want, recs[i]) {
			return fmt.Errorf("call %d: record %d read as %.20q", n, i, data)
		}
		n++
		return nil
	}); err != nil || n != len(rids) {
		t.Fatalf("read %d of %d records: %v", n, len(rids), err)
	}
	// One pin per page run, plus one per Get and the overflow record's
	// four chain pages, read twice.
	if got, want := pool.Accesses()-acc, uint64(pages+len(rids)+2*4); got != want {
		t.Errorf("%d buffer accesses, want %d", got, want)
	}

	stop := errors.New("stop")
	calls := 0
	if err := read(rids, func(i int, _ []byte) error {
		calls++
		if i == 100 {
			return stop
		}
		return nil
	}); !errors.Is(err, stop) || calls != 101 {
		t.Errorf("an error from fn at record 100: %v after %d calls", err, calls)
	}

	gone := rids[120]
	if err := h.Delete(gone); err != nil {
		t.Fatal(err)
	}
	if err := read(rids[110:130], func(int, []byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "deleted") {
		t.Errorf("a deleted record mid-run: %v", err)
	}
	past := RID{Page: rids[0].Page, Slot: 999}
	if err := read([]RID{rids[0], past}, func(int, []byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "no such slot") {
		t.Errorf("a slot past the table: %v", err)
	}
	if _, err := h.Get(past); err == nil || !strings.Contains(err.Error(), "no such slot") {
		t.Errorf("Get of a slot past the table: %v", err)
	}
	if n := pinnedFrames(pool); n != 0 {
		t.Fatalf("%d pins held after Get", n)
	}
}
