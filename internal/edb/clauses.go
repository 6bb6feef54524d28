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

// Clause-index keys are procID (4 bytes) | tag (1 byte) | body, integers
// big-endian so that one procedure's entries, and within them one tag's,
// are contiguous in key order. Tag i < K files a ground clause under the
// hash of argument i (body: the 8-byte hash); wildTag files a clause with
// a variable in an indexed position, or any clause of a procedure with
// K = 0 (body: the 4-byte clause ID). Every value is the packed RID of
// the clause record.
const wildTag = 0xFF

// indexPrefix returns the key prefix procID|tag.
func indexPrefix(pid uint32, tag byte) []byte {
	b := make([]byte, 5, 13)
	binary.BigEndian.PutUint32(b, pid)
	b[4] = tag
	return b
}

// attrKey is the index key filing a ground clause under argument i.
func attrKey(pid uint32, i int, h uint64) []byte {
	return binary.BigEndian.AppendUint64(indexPrefix(pid, byte(i)), h)
}

// filedWild reports whether a clause with the given (first K) argument
// keys is filed under the wildcard tag: some indexed argument is a
// variable, or there is none.
func filedWild(keys []ArgKey) bool {
	for _, k := range keys {
		if k.Wild {
			return true
		}
	}
	return len(keys) == 0
}

// indexKeys returns the keys a clause is filed under: one per indexed
// argument when they are all ground, otherwise a single wildcard entry.
func indexKeys(pid, id uint32, keys []ArgKey) [][]byte {
	if filedWild(keys) {
		return [][]byte{binary.BigEndian.AppendUint32(indexPrefix(pid, wildTag), id)}
	}
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = attrKey(pid, i, k.Hash)
	}
	return out
}

// indexRange visits the index entries whose key starts with prefix. The
// key is valid only during the call; fn returns false to stop.
func (db *DB) indexRange(prefix []byte, fn func(key []byte, rec store.RID) bool) error {
	return db.index.Range(prefix, nil, func(k []byte, v uint64) bool {
		return bytes.HasPrefix(k, prefix) && fn(k, store.UnpackRID(v))
	})
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

	rid  store.RID // the clause record the index entries address
	keys []ArgKey
}

// Keys returns the clause's head-argument keys as stored (its first K).
func (sc StoredClause) Keys() []ArgKey { return sc.keys }

// Admits reports whether a clause with head keys clause is a candidate for
// a call with filter keys filter: at every position both give, one side is
// wild or the hashes agree. It is the residual pre-unification filter, and
// run the other way it names the loaded candidate sets a write changes.
func Admits(filter, clause []ArgKey) bool {
	for j, q := range filter {
		if !q.Wild && j < len(clause) && !clause[j].Wild && clause[j].Hash != q.Hash {
			return false
		}
	}
	return true
}

// A clause is one record of the clauses heap (the paper's clauses tuple):
// a self-describing header, then the payload.
//
//	clauseID u32, K u8, wildcard mask u8, K argument hashes u64, payload
const recHdr = 6

func encodeClauseRec(id uint32, keys []ArgKey, payload []byte) []byte {
	b := make([]byte, recHdr, recHdr+8*len(keys)+len(payload))
	binary.LittleEndian.PutUint32(b, id)
	b[4] = byte(len(keys))
	for i, k := range keys {
		if k.Wild {
			b[5] |= 1 << uint(i)
		}
		b = binary.LittleEndian.AppendUint64(b, k.Hash)
	}
	return append(b, payload...)
}

// decodeClauseRec splits a clause record; payload is a subslice of data.
func decodeClauseRec(data []byte) (id uint32, keys []ArgKey, payload []byte, err error) {
	if len(data) < recHdr {
		return 0, nil, nil, fmt.Errorf("edb: short clause record (%d bytes)", len(data))
	}
	k, mask := int(data[4]), data[5]
	switch {
	case k > MaxIndexedArgs:
		return 0, nil, nil, fmt.Errorf("edb: clause record indexes %d arguments, at most %d", k, MaxIndexedArgs)
	case mask>>uint(k) != 0:
		return 0, nil, nil, fmt.Errorf("edb: clause record wildcard mask %#x beyond its %d arguments", mask, k)
	case len(data) < recHdr+8*k:
		return 0, nil, nil, fmt.Errorf("edb: short clause record (%d bytes, %d argument hashes)", len(data), k)
	}
	keys = make([]ArgKey, k)
	for i := range keys {
		keys[i] = ArgKey{Wild: mask&(1<<uint(i)) != 0, Hash: binary.LittleEndian.Uint64(data[recHdr+8*i:])}
	}
	return binary.LittleEndian.Uint32(data), keys, data[recHdr+8*k:], nil
}

// StoreClause stores one clause blob under the procedure with the given
// head-argument keys (only the first p.K are consulted) and returns its
// clause ID. Its index entries wait for the batch's end (BeginBatch).
func (db *DB) StoreClause(p *ProcInfo, keys []ArgKey, blob []byte) (uint32, error) {
	if len(keys) < p.K {
		return 0, fmt.Errorf("edb: %s: got %d arg keys, need %d", p.Indicator(), len(keys), p.K)
	}
	keys = keys[:p.K]
	id := p.nextClauseID
	p.nextClauseID++
	rid, err := db.clauses.Insert(encodeClauseRec(id, keys, blob))
	if err != nil {
		return 0, err
	}
	for _, k := range indexKeys(p.ProcID, id, keys) {
		db.pending = append(db.pending, store.Pair{Key: k, Val: rid.Pack()})
	}
	if filedWild(keys) {
		p.wildCount++
	}
	p.ClauseCount++
	db.stored.Add(1)
	return id, db.changed(p)
}

// BeginBatch opens a batch, which does not nest: StoreClause and MarkRule
// leave their index entries and descriptors to EndBatch. The caller holds
// the KB write lock across it, so no reader meets an unfiled clause.
func (db *DB) BeginBatch() { db.inBatch = true }

// EndBatch files the batch's index entries in key order and saves each
// descriptor it changed once. A batch that failed part way is ended too,
// so the clauses stored before the failure stay retrievable.
func (db *DB) EndBatch() error {
	db.inBatch = false
	err := db.index.InsertBatch(db.pending)
	for _, p := range db.touched {
		if p.touched = false; err == nil {
			err = db.saveProc(p)
		}
	}
	// The next batch reuses the buffers, unless a bulk load grew them.
	clear(db.pending)
	db.pending, db.touched = db.pending[:0], db.touched[:0]
	if cap(db.pending) > 1024 {
		db.pending = nil
	}
	return err
}

// changed records that p's descriptor is to be saved; outside a batch it
// ends a batch of its own.
func (db *DB) changed(p *ProcInfo) error {
	if !p.touched {
		p.touched, db.touched = true, append(db.touched, p)
	}
	if !db.inBatch {
		return db.EndBatch()
	}
	return nil
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
// non-nil the call charges its preunify time (the clause-index ranges),
// its edb_fetch time (reading each candidate's record and applying the
// residual hash filter), and its clauses-scanned / clauses-passed /
// pages-touched counts to qs. KB-wide totals go to the metrics registry
// either way.
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
	bound := query
	if len(bound) > p.K {
		bound = bound[:p.K]
	}
	first := -1
	for i, k := range bound {
		if !k.Wild {
			first = i
			break
		}
	}
	var rids []store.RID
	collect := func(prefix []byte) error {
		return db.indexRange(prefix, func(_ []byte, rec store.RID) bool {
			rids = append(rids, rec)
			return true
		})
	}
	// The ground clauses come from the entries of the first bound argument
	// or, with nothing bound, from every argument-0 entry; the wildcard
	// entries are read whole. A range the descriptor's counts say is empty
	// is not read.
	primary, prefix := obs.PathFullScan, indexPrefix(p.ProcID, 0)
	if first >= 0 {
		primary, prefix = obs.PathAttrIndex, attrKey(p.ProcID, first, bound[first].Hash)
	}
	if p.ClauseCount > p.wildCount {
		if err := collect(prefix); err != nil {
			return nil, err
		}
	}
	nPrimary := len(rids)
	if p.wildCount > 0 {
		if err := collect(indexPrefix(p.ProcID, wildTag)); err != nil {
			return nil, err
		}
	}
	// Candidate selection by index range ends here; what follows reads each
	// candidate's record once and keeps those Admits: the residual
	// pre-unification filter.
	if qs != nil {
		now := time.Now()
		qs.Phases.Add(obs.PhasePreUnify, now.Sub(t0))
		t0 = now
	}
	out := make([]StoredClause, 0, len(rids))
	primaryMatched := 0
	for i, rid := range rids {
		rec, err := db.clauses.Get(rid)
		if err != nil {
			return nil, err
		}
		id, keys, blob, err := decodeClauseRec(rec)
		if err != nil {
			return nil, fmt.Errorf("%w (record %s of %s)", err, rid, p.Indicator())
		}
		if !Admits(bound, keys) {
			continue
		}
		if i < nPrimary {
			primaryMatched++
		}
		out = append(out, StoredClause{ClauseID: id, Blob: blob, rid: rid, keys: keys})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ClauseID < out[j].ClauseID })
	// Each path records its selectivity.
	scanned, wildScanned := uint64(len(rids)), uint64(len(rids)-nPrimary)
	db.notePath(primary, 1, uint64(nPrimary), uint64(primaryMatched), qs)
	if wildScanned > 0 {
		db.notePath(obs.PathVarList, 1, wildScanned, uint64(len(out)-primaryMatched), qs)
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
	for _, k := range indexKeys(p.ProcID, sc.ClauseID, sc.keys) {
		ok, err := db.index.Delete(k, sc.rid.Pack())
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("edb: clause %d of %s not in index", sc.ClauseID, p.Indicator())
		}
	}
	if err := db.clauses.Delete(sc.rid); err != nil {
		return err
	}
	if filedWild(sc.keys) {
		p.wildCount--
	}
	p.ClauseCount--
	if db.stored.Value() > 0 {
		db.stored.Add(-1)
	}
	return db.saveProc(p)
}
