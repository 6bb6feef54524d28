package core

// Online backup at the knowledge-base level: the copy loop runs with
// writer sessions committing transactions concurrently (run with -race;
// the CI backup-crash-matrix job does), and every backup must restore
// to exactly the facts committed at its recorded end LSN.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/parser"
	"repro/internal/store"
)

// TestBackupUnderConcurrentWritersHammer runs 8 writer sessions doing
// transactional assert/retract batches over a shared file-backed KB
// while the main goroutine streams online backups. Each committed
// batch records {commit LSN, per-predicate fact counts} under a test
// mutex; each backup is then restored at its end LSN and must hold
// precisely the counts recorded at the latest commit boundary at or
// below that LSN — proving a backup taken under live writers is
// transaction-consistent, never a torn intermediate.
func TestBackupUnderConcurrentWritersHammer(t *testing.T) {
	const (
		nWriters = 8
		rounds   = 12
		perBatch = 3
	)
	dir := t.TempDir()
	arch := filepath.Join(dir, "arch")
	kb, err := OpenKB(Options{
		StorePath:       filepath.Join(dir, "kb.edb"),
		PoolPages:       256,
		CheckpointBytes: 32 << 10,
		WALArchiveDir:   arch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()

	seed, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	var seedSrc strings.Builder
	for w := 0; w < nWriters; w++ {
		fmt.Fprintf(&seedSrc, "w%d(0). ", w)
	}
	if err := seed.ConsultExternal(seedSrc.String()); err != nil {
		t.Fatal(err)
	}
	if err := kb.Flush(); err != nil {
		t.Fatal(err)
	}

	// snap is one commit boundary: the store LSN of the commit marker
	// and the fact counts durable at it. Writers record one per
	// committed batch; mu makes {commit, LSN read, counts} atomic
	// against other writers (the backup copy loop deliberately runs
	// outside it).
	type snap struct {
		lsn    uint64
		counts [nWriters]int
	}
	var mu sync.Mutex
	var counts [nWriters]int
	for w := range counts {
		counts[w] = 1 // the seed fact
	}
	snaps := []snap{{lsn: kb.LSN(), counts: counts}}

	var wg sync.WaitGroup
	errCh := make(chan error, nWriters)
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := kb.NewSession()
			if err != nil {
				errCh <- err
				return
			}
			defer s.Close()
			next := 1
			for r := 0; r < rounds; r++ {
				mu.Lock()
				err := func() error {
					if err := s.Begin(); err != nil {
						return err
					}
					var batch []string
					for j := 0; j < perBatch; j++ {
						batch = append(batch, fmt.Sprintf("w%d(%d).", w, next))
						next++
					}
					if err := s.ConsultExternal(strings.Join(batch, " ")); err != nil {
						return err
					}
					delta := perBatch
					if r%3 == 2 {
						tm, _, err := parser.ParseTerm(fmt.Sprintf("w%d(%d)", w, next-1))
						if err != nil {
							return err
						}
						ok, err := s.RetractExternal(tm)
						if err != nil {
							return err
						}
						if !ok {
							return fmt.Errorf("writer %d round %d: retract found nothing", w, r)
						}
						delta--
					}
					if err := s.Commit(); err != nil {
						return err
					}
					counts[w] += delta
					snaps = append(snaps, snap{lsn: kb.LSN(), counts: counts})
					return nil
				}()
				mu.Unlock()
				if err != nil {
					errCh <- fmt.Errorf("writer %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}

	// Stream backups while the writers hammer: at least 3, and keep
	// going until the writers finish so some backups overlap live
	// transactions.
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	var streams []*bytes.Buffer
	var infos []store.BackupInfo
	for {
		var buf bytes.Buffer
		info, err := kb.Backup(&buf)
		if err != nil {
			t.Fatalf("backup %d under writers: %v", len(infos), err)
		}
		streams = append(streams, &buf)
		infos = append(infos, info)
		select {
		case <-finished:
			if len(infos) >= 3 {
				goto writersDone
			}
		default:
		}
		if len(infos) >= 24 {
			break
		}
	}
	<-finished
writersDone:
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	for i, info := range infos {
		path := filepath.Join(dir, fmt.Sprintf("restored-%d.edb", i))
		if err := store.Restore(path, bytes.NewReader(streams[i].Bytes()), arch, info.EndLSN); err != nil {
			t.Fatalf("restore backup %d at LSN %d: %v", i, info.EndLSN, err)
		}
		rkb, err := OpenKB(Options{StorePath: path, PoolPages: 128})
		if err != nil {
			t.Fatalf("open restored backup %d: %v", i, err)
		}
		if err := rkb.Check(); err != nil {
			rkb.Close()
			t.Fatalf("restored backup %d fails integrity check: %v", i, err)
		}
		var want [nWriters]int
		found := false
		for _, s := range snaps {
			if s.lsn <= info.EndLSN {
				want = s.counts
				found = true
			}
		}
		if !found {
			rkb.Close()
			t.Fatalf("backup %d end LSN %d precedes every recorded commit", i, info.EndLSN)
		}
		rs, err := rkb.NewSession()
		if err != nil {
			rkb.Close()
			t.Fatal(err)
		}
		for w := 0; w < nWriters; w++ {
			n, err := rs.QueryCount(fmt.Sprintf("w%d(_)", w))
			if err != nil {
				t.Fatalf("backup %d: count w%d: %v", i, w, err)
			}
			if n != want[w] {
				t.Errorf("backup %d (end LSN %d): w%d has %d facts restored, want %d",
					i, info.EndLSN, w, n, want[w])
			}
		}
		rs.Close()
		rkb.Close()
	}
}

// TestInMemoryKBBacksUpAndRestores runs the backup path on a KB with no
// page file: an in-memory store is the same WAL-backed pager, so a
// committed transaction advances its LSN, and its backup restores into
// a page file that answers the same queries.
func TestInMemoryKBBacksUpAndRestores(t *testing.T) {
	kb, err := OpenKB(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	s, err := kb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ConsultExternal("edge(a, b). edge(b, c). path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z)."); err != nil {
		t.Fatal(err)
	}
	before := kb.LSN()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.ConsultExternal("edge(c, d)."); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := kb.LSN(); after <= before {
		t.Fatalf("LSN %d after a committed transaction, %d before", after, before)
	}

	var buf bytes.Buffer
	if _, err := kb.Backup(&buf); err != nil {
		t.Fatalf("backup of an in-memory KB: %v", err)
	}
	path := filepath.Join(t.TempDir(), "restored.edb")
	if err := store.Restore(path, &buf, "", 0); err != nil {
		t.Fatal(err)
	}
	rkb, err := OpenKB(Options{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer rkb.Close()
	if err := rkb.Check(); err != nil {
		t.Fatalf("restored KB fails check: %v", err)
	}
	rs, err := rkb.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for _, goal := range []string{"edge(_, _)", "path(a, _)", "path(_, d)"} {
		want, err := s.QueryCount(goal)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := rs.QueryCount(goal); err != nil || got != want {
			t.Errorf("restored %s: %d solutions (%v), source has %d", goal, got, err, want)
		}
	}
}

// TestInMemoryKBRefusesWALArchive: an in-memory store has no page file
// whose log could be archived, so asking for an archive is an open
// error that names the option, not a setting silently ignored.
func TestInMemoryKBRefusesWALArchive(t *testing.T) {
	arch := filepath.Join(t.TempDir(), "arch")
	kb, err := OpenKB(Options{WALArchiveDir: arch})
	if err == nil {
		kb.Close()
		t.Fatal("in-memory KB opened with WALArchiveDir set")
	}
	if !strings.Contains(err.Error(), "ArchiveDir") {
		t.Errorf("error %q does not name the option", err)
	}
}
