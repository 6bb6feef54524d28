package edb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/dict"
	"repro/internal/obs"
	"repro/internal/store"
)

// hashKeyBytes renders an attribute hash as a B-tree key.
func hashKeyBytes(h uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], h)
	return b[:]
}

// ArgKey is the type-and-value hash of one head argument, the attribute
// value stored in the procedures relation (paper §4 item 3: "attributes
// can have as valid format: integer, real, atom, list, structure...").
// Variables are represented by Wild: a clause with a variable in an
// indexed position matches any query value for that attribute.
type ArgKey struct {
	Wild bool
	Hash uint64
}

// Arg key type tags mixed into the hash so that, e.g., atom foo and a
// structure foo/2 never collide (indexing on type as well as value,
// §3.2.2).
const (
	tagAtomKey = 0x61 // 'a'
	tagIntKey  = 0x69 // 'i'
	tagFltKey  = 0x66 // 'f'
	tagStrKey  = 0x73 // 's'
	tagLisKey  = 0x6c // 'l'
)

func mixKey(tag byte, h uint64) uint64 {
	h ^= uint64(tag) * 0x9e3779b97f4a7c15
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// AtomKey returns the arg key of an atom.
func AtomKey(name string) ArgKey { return ArgKey{Hash: mixKey(tagAtomKey, dict.Hash(name, 0))} }

// IntKey returns the arg key of an integer.
func IntKey(v int64) ArgKey { return ArgKey{Hash: mixKey(tagIntKey, uint64(v))} }

// FloatKey returns the arg key of a float.
func FloatKey(bits uint64) ArgKey { return ArgKey{Hash: mixKey(tagFltKey, bits)} }

// StructKey returns the arg key of a structure, by functor. Deeper
// pre-unification (executing nested head code inside the store, which the
// paper leaves as an open tuning question) is approximated by top-level
// functor identity.
func StructKey(name string, arity int) ArgKey {
	return ArgKey{Hash: mixKey(tagStrKey, dict.Hash(name, arity))}
}

// ListKey returns the arg key of a list cell.
func ListKey() ArgKey { return ArgKey{Hash: mixKey(tagLisKey, 0)} }

// WildKey returns the wildcard key (a variable).
func WildKey() ArgKey { return ArgKey{Wild: true} }

// StoredClause is one clause retrieved from (or addressed in) the EDB.
type StoredClause struct {
	ClauseID uint32
	// Blob is the stored payload: relocatable code (FormCode) or source
	// text (FormSource).
	Blob []byte

	blobRID store.RID
	keys    []ArgKey
	varRec  store.RID // set when the clause lives in the variable list
	inVar   bool
}

// clause registry record (grid payload packs reg-RID; varlist stores the
// record inline):
//
//	clauseID u32, blobRID u64, varMask u64, k hashes u64
func encodeClauseRec(id uint32, blob store.RID, keys []ArgKey) []byte {
	var b bytes.Buffer
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], id)
	b.Write(tmp[:4])
	binary.LittleEndian.PutUint64(tmp[:], blob.Pack())
	b.Write(tmp[:])
	var mask uint64
	for i, k := range keys {
		if k.Wild {
			mask |= 1 << uint(i)
		}
	}
	binary.LittleEndian.PutUint64(tmp[:], mask)
	b.Write(tmp[:])
	for _, k := range keys {
		binary.LittleEndian.PutUint64(tmp[:], k.Hash)
		b.Write(tmp[:])
	}
	return b.Bytes()
}

func decodeClauseRec(data []byte) (id uint32, blob store.RID, keys []ArgKey, err error) {
	if len(data) < 20 {
		return 0, store.RID{}, nil, fmt.Errorf("edb: short clause record")
	}
	id = binary.LittleEndian.Uint32(data[:4])
	blob = store.UnpackRID(binary.LittleEndian.Uint64(data[4:12]))
	mask := binary.LittleEndian.Uint64(data[12:20])
	rest := data[20:]
	for i := 0; i*8+8 <= len(rest); i++ {
		k := ArgKey{Hash: binary.LittleEndian.Uint64(rest[i*8 : i*8+8])}
		if mask&(1<<uint(i)) != 0 {
			k.Wild = true
		}
		keys = append(keys, k)
	}
	return id, blob, keys, nil
}

// StoreClause stores one clause blob under the procedure with the given
// head-argument keys (only the first p.K are consulted) and returns its
// clause ID.
func (db *DB) StoreClause(p *ProcInfo, keys []ArgKey, blob []byte) (uint32, error) {
	if len(keys) < p.K {
		return 0, fmt.Errorf("edb: %s: got %d arg keys, need %d", p.Indicator(), len(keys), p.K)
	}
	keys = keys[:p.K]
	id := p.nextClauseID
	p.nextClauseID++
	blobRID, err := db.clauses.Insert(blob)
	if err != nil {
		return 0, err
	}
	anyWild := false
	for _, k := range keys {
		if k.Wild {
			anyWild = true
			break
		}
	}
	if p.K == 0 || anyWild {
		rec := encodeClauseRec(id, blobRID, keys)
		if _, err := db.procVarHeap(p).Insert(rec); err != nil {
			return 0, err
		}
	} else {
		g, err := db.procGrid(p)
		if err != nil {
			return 0, err
		}
		hashes := make([]uint64, p.K)
		for i, k := range keys {
			hashes[i] = k.Hash
		}
		rec := encodeClauseRec(id, blobRID, keys)
		recRID, err := db.clauses.Insert(rec)
		if err != nil {
			return 0, err
		}
		if err := g.Insert(hashes, recRID.Pack()); err != nil {
			return 0, err
		}
		for i, k := range keys {
			if err := db.procAttrIdx(p, i).Insert(hashKeyBytes(k.Hash), recRID.Pack()); err != nil {
				return 0, err
			}
		}
	}
	p.ClauseCount++
	db.stored.Add(1)
	return id, db.saveProc(p)
}

// Retrieve returns the candidate clauses for a call whose bound argument
// keys are given (nil or Wild entries mean the argument is unbound). The
// result is pre-unified — filtered inside the storage layer by hash
// comparison on every bound indexed argument — and ordered by clause ID
// (source order). Passing no keys retrieves every clause.
func (db *DB) Retrieve(p *ProcInfo, query []ArgKey) ([]StoredClause, error) {
	return db.RetrieveObs(p, query, nil)
}

// RetrieveObs is Retrieve with per-query cost attribution: when qs is
// non-nil the call charges its preunify time (candidate selection and
// hash filtering inside the storage layer), its edb_fetch time (clause
// blob fetches), and its clauses-scanned / clauses-passed / pages-touched
// counts to qs. KB-wide totals go to the metrics registry either way.
func (db *DB) RetrieveObs(p *ProcInfo, query []ArgKey, qs *obs.QueryStats) ([]StoredClause, error) {
	db.retrievals.Add(1)
	var t0 time.Time
	if qs != nil {
		qs.Retrievals++
		pool := db.st.Pool()
		acc0 := pool.Accesses()
		defer func() {
			// The retrieval's page cost is the pool's access growth across
			// it; a ResetStats in between leaves nothing to charge.
			pages := uint64(0)
			if now := pool.Accesses(); now > acc0 {
				pages = now - acc0
			}
			qs.PagesTouched += pages
			db.pagesPerRt.ObserveN(pages)
		}()
		t0 = time.Now()
	}
	scanned := uint64(0)
	known := make([]bool, p.K)
	hashes := make([]uint64, p.K)
	anyKnown := false
	for i := 0; i < p.K && i < len(query); i++ {
		if !query[i].Wild {
			known[i] = true
			hashes[i] = query[i].Hash
			anyKnown = true
		}
	}
	// primary is the access path chosen for the ground-indexed clauses:
	// attribute index, grid partial match, or (with nothing bound) a full
	// scan. Its selectivity is recorded per path.
	primary := obs.PathGrid
	if !anyKnown {
		primary = obs.PathFullScan
		db.fullScans.Add(1)
	}

	var out []StoredClause

	// Candidates among ground-indexed clauses: use the secondary index of
	// the first bound attribute when one exists (fully selective), and
	// fall back to the grid's partial match otherwise.
	if p.K > 0 {
		var recRIDs []store.RID
		firstKnown := -1
		for i, k := range known {
			if k {
				firstKnown = i
				break
			}
		}
		if firstKnown >= 0 && firstKnown < len(p.attrAnchors) {
			primary = obs.PathAttrIndex
			vals, err := db.procAttrIdx(p, firstKnown).SearchEQ(hashKeyBytes(hashes[firstKnown]))
			if err != nil {
				return nil, err
			}
			for _, v := range vals {
				recRIDs = append(recRIDs, store.UnpackRID(v))
			}
		} else {
			g, err := db.procGrid(p)
			if err != nil {
				return nil, err
			}
			err = g.PartialMatch(known, hashes, func(payload uint64) bool {
				recRIDs = append(recRIDs, store.UnpackRID(payload))
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		for _, rid := range recRIDs {
			rec, err := db.clauses.Get(rid)
			if err != nil {
				return nil, err
			}
			id, blobRID, keys, err := decodeClauseRec(rec)
			if err != nil {
				return nil, err
			}
			scanned++
			// Residual filter on the remaining bound attributes.
			match := true
			for i := range known {
				if known[i] && i < len(keys) && keys[i].Hash != hashes[i] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			out = append(out, StoredClause{ClauseID: id, blobRID: blobRID, keys: keys, varRec: rid})
		}
	}
	primaryScanned, primaryMatched := scanned, uint64(len(out))

	// Variable-list candidates: filtered attribute by attribute.
	err := db.procVarHeap(p).Scan(func(rid store.RID, data []byte) (bool, error) {
		id, blobRID, keys, err := decodeClauseRec(data)
		if err != nil {
			return false, err
		}
		scanned++
		for i := range known {
			if known[i] && i < len(keys) && !keys[i].Wild && keys[i].Hash != hashes[i] {
				return true, nil // filtered out
			}
		}
		out = append(out, StoredClause{ClauseID: id, blobRID: blobRID, keys: keys, varRec: rid, inVar: true})
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	varScanned := scanned - primaryScanned
	varMatched := uint64(len(out)) - primaryMatched
	db.notePath(primary, 1, primaryScanned, primaryMatched, qs)
	if varScanned > 0 {
		db.notePath(obs.PathVarList, 1, varScanned, varMatched, qs)
	}

	sort.Slice(out, func(i, j int) bool { return out[i].ClauseID < out[j].ClauseID })
	// Candidate selection (pre-unification inside the storage layer) ends
	// here; what follows is fetching the surviving clauses' code.
	if qs != nil {
		now := time.Now()
		qs.Phases.Add(obs.PhasePreUnify, now.Sub(t0))
		t0 = now
	}
	for i := range out {
		blob, err := db.clauses.Get(out[i].blobRID)
		if err != nil {
			return nil, err
		}
		out[i].Blob = blob
	}
	db.scanned.Add(scanned)
	db.candidates.Add(uint64(len(out)))
	if qs != nil {
		qs.Phases.Add(obs.PhaseEDBFetch, time.Since(t0))
		qs.ClausesScanned += scanned
		qs.ClausesPassed += uint64(len(out))
	}
	return out, nil
}

// notePath records one retrieval's selectivity on an access path, both
// KB-wide (registry) and per query (qs, when attribution is on).
func (db *DB) notePath(path obs.IndexPath, choices, scanned, matched uint64, qs *obs.QueryStats) {
	pc := &db.paths[path]
	pc.choices.Add(choices)
	pc.scanned.Add(scanned)
	pc.matched.Add(matched)
	if qs != nil {
		qs.Paths[path].Choices += choices
		qs.Paths[path].Scanned += scanned
		qs.Paths[path].Matched += matched
	}
}

// AllClauses returns every stored clause of p in source order.
func (db *DB) AllClauses(p *ProcInfo) ([]StoredClause, error) {
	return db.Retrieve(p, nil)
}

// DeleteClause removes a clause previously returned by Retrieve.
func (db *DB) DeleteClause(p *ProcInfo, sc StoredClause) error {
	if sc.inVar {
		if err := db.procVarHeap(p).Delete(sc.varRec); err != nil {
			return err
		}
	} else {
		g, err := db.procGrid(p)
		if err != nil {
			return err
		}
		hashes := make([]uint64, p.K)
		for i := 0; i < p.K && i < len(sc.keys); i++ {
			hashes[i] = sc.keys[i].Hash
		}
		ok, err := g.Delete(hashes, sc.varRec.Pack())
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("edb: clause %d of %s not in index", sc.ClauseID, p.Indicator())
		}
		for i := 0; i < p.K && i < len(sc.keys); i++ {
			if _, err := db.procAttrIdx(p, i).Delete(hashKeyBytes(sc.keys[i].Hash), sc.varRec.Pack()); err != nil {
				return err
			}
		}
		if err := db.clauses.Delete(sc.varRec); err != nil {
			return err
		}
	}
	if err := db.clauses.Delete(sc.blobRID); err != nil {
		return err
	}
	p.ClauseCount--
	if db.stored.Value() > 0 {
		db.stored.Add(-1)
	}
	return db.saveProc(p)
}
