package edb

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/store"
)

// Check verifies the EDB's integrity: the heaps and the clause index pass
// their storage-level invariant checks, every index entry belongs to a
// procedure of the procedures table, and every procedure's entries pass
// checkProc. Every page the pool reads from the pager also has its
// checksum verified, so a clean Check means the whole knowledge base is
// readable and structurally sound.
func (db *DB) Check() error {
	if err := db.clauses.Check(); err != nil {
		return fmt.Errorf("edb: clauses heap: %w", err)
	}
	if err := db.procHeap.Check(); err != nil {
		return fmt.Errorf("edb: procedures heap: %w", err)
	}
	if err := db.index.Check(); err != nil {
		return fmt.Errorf("edb: clause index: %w", err)
	}
	if err := db.checkOrphans(); err != nil {
		return err
	}
	for _, p := range db.Procs() {
		if err := db.checkProc(p); err != nil {
			return err
		}
	}
	return nil
}

// indexEntry is one clause-index entry, its key copied out of the page.
type indexEntry struct {
	key []byte
	rec store.RID
}

// entries returns the index entries whose key starts with prefix.
func (db *DB) entries(prefix []byte) ([]indexEntry, error) {
	var out []indexEntry
	err := db.indexRange(prefix, func(k []byte, rec store.RID) bool {
		out = append(out, indexEntry{append([]byte(nil), k...), rec})
		return true
	})
	return out, err
}

// derived reports whether an index key is a derived entry: anything but
// a primary tag-0 or wildcard entry.
func derived(key []byte) bool {
	return len(key) < 5 || key[4] != 0 && key[4] != wildTag
}

// checkOrphans reports an index entry whose procedure ID is not in the
// procedures table.
func (db *DB) checkOrphans() error {
	known := make(map[uint32]bool, len(db.procs))
	for _, p := range db.procs {
		known[p.ProcID] = true
	}
	var orphan error
	err := db.index.Range(nil, nil, func(k []byte, _ uint64) bool {
		if len(k) < 4 || !known[binary.BigEndian.Uint32(k)] {
			orphan = fmt.Errorf("edb: clause index entry %x belongs to no procedure in the procedures table", k)
		}
		return orphan == nil
	})
	if err != nil {
		return fmt.Errorf("edb: clause index: %w", err)
	}
	return orphan
}

// checkProc verifies one procedure's index entries: the primary ones and
// the derived ones that mirror them.
func (db *DB) checkProc(p *ProcInfo) error {
	ground, err := db.checkPrimary(p)
	if err != nil {
		return err
	}
	return db.checkDerived(p, ground)
}

// checkPrimary verifies a procedure's primary entries, tag 0 for its
// ground clauses and the wildcard tag for the rest: each resolves to a
// readable clause record that files under that very key, no record is
// filed twice, and they number what the descriptor records (all clauses,
// and those filed as wildcards). It returns the ground clauses' argument
// keys by record.
func (db *DB) checkPrimary(p *ProcInfo) (map[store.RID][]ArgKey, error) {
	ground := map[store.RID][]ArgKey{}
	seen := map[store.RID]bool{}
	for _, tag := range []byte{0, wildTag} {
		es, err := db.entries(indexPrefix(p.ProcID, tag))
		if err != nil {
			return nil, fmt.Errorf("edb: %s: clause index: %w", p.Indicator(), err)
		}
		for _, e := range es {
			data, err := db.clauses.Get(e.rec)
			if err != nil {
				return nil, fmt.Errorf("edb: %s: clause record %s: %w", p.Indicator(), e.rec, err)
			}
			id, keys, _, err := decodeClauseRec(data)
			if err != nil {
				return nil, fmt.Errorf("edb: %s: clause record %s: %w", p.Indicator(), e.rec, err)
			}
			if len(keys) != p.K || !bytes.Equal(e.key, indexKeys(p.ProcID, id, keys)[0]) {
				return nil, fmt.Errorf("edb: %s: clause %d (record %s) filed under the wrong key %x", p.Indicator(), id, e.rec, e.key)
			}
			if seen[e.rec] {
				return nil, fmt.Errorf("edb: %s: clause record %s filed twice", p.Indicator(), e.rec)
			}
			seen[e.rec] = true
			if tag == 0 {
				ground[e.rec] = keys
			}
		}
	}
	if wild := len(seen) - len(ground); len(seen) != p.ClauseCount || wild != p.wildCount {
		return nil, fmt.Errorf("edb: %s: %d clauses indexed (%d as wildcards), descriptor records %d (%d)",
			p.Indicator(), len(seen), wild, p.ClauseCount, p.wildCount)
	}
	return ground, nil
}

// checkDerived verifies that every argument i in 1..K-1 files exactly the
// ground records argument 0 files, each under its own hash of argument
// i, and that no entry carries a tag the procedure does not index.
func (db *DB) checkDerived(p *ProcInfo, ground map[store.RID][]ArgKey) error {
	es, err := db.entries(indexPrefix(p.ProcID, 0)[:4])
	if err != nil {
		return fmt.Errorf("edb: %s: clause index: %w", p.Indicator(), err)
	}
	seen := make([]map[store.RID]bool, p.K)
	for _, e := range es {
		if !derived(e.key) {
			continue
		}
		if len(e.key) < 5 || int(e.key[4]) >= p.K {
			return fmt.Errorf("edb: %s: index entry %x outside the %d indexed arguments", p.Indicator(), e.key, p.K)
		}
		i := int(e.key[4])
		keys, ok := ground[e.rec]
		if !ok || !bytes.Equal(e.key, attrKey(p.ProcID, i, keys[i].Hash)) {
			return fmt.Errorf("edb: %s: argument %d entry %x (record %s) mirrors no argument-0 entry", p.Indicator(), i, e.key, e.rec)
		}
		if seen[i] == nil {
			seen[i] = map[store.RID]bool{}
		}
		if seen[i][e.rec] {
			return fmt.Errorf("edb: %s: argument %d files record %s twice", p.Indicator(), i, e.rec)
		}
		seen[i][e.rec] = true
	}
	for i := 1; i < p.K; i++ {
		if len(seen[i]) != len(ground) {
			return fmt.Errorf("edb: %s: argument %d files %d records, argument 0 files %d", p.Indicator(), i, len(seen[i]), len(ground))
		}
	}
	return nil
}

// Repair rebuilds what is derivable: for every procedure whose check
// fails, its derived entries are deleted and filed again from its tag-0
// entries. It returns the number of procedures rebuilt. Damage to
// anything primary — the index's structure, an entry of no known
// procedure, a procedure's primary entries or its clause count — cannot
// be regenerated and is reported as an error before that procedure is
// written.
func (db *DB) Repair() (int, error) {
	if err := db.index.Check(); err != nil {
		return 0, fmt.Errorf("edb: unrepairable clause index: %w", err)
	}
	if err := db.checkOrphans(); err != nil {
		return 0, fmt.Errorf("edb: unrepairable: %w", err)
	}
	rebuilt := 0
	for _, p := range db.Procs() {
		if db.checkProc(p) == nil {
			continue
		}
		ground, err := db.checkPrimary(p)
		if err != nil {
			return rebuilt, fmt.Errorf("edb: unrepairable primary index entries: %w", err)
		}
		es, err := db.entries(indexPrefix(p.ProcID, 0)[:4])
		if err != nil {
			return rebuilt, err
		}
		for _, e := range es {
			if derived(e.key) {
				if _, err := db.index.Delete(e.key, e.rec.Pack()); err != nil {
					return rebuilt, err
				}
			}
		}
		for rec, keys := range ground {
			for i := 1; i < p.K; i++ {
				if err := db.index.Insert(attrKey(p.ProcID, i, keys[i].Hash), rec.Pack()); err != nil {
					return rebuilt, err
				}
			}
		}
		rebuilt++
		if err := db.checkProc(p); err != nil {
			return rebuilt, fmt.Errorf("edb: unrepairable after index rebuild: %w", err)
		}
	}
	return rebuilt, nil
}
