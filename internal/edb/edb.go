// Package edb implements Educe*'s External Data Base layer (paper §4): the
// procedures table, the clauses relation holding relocatable compiled
// code, and one clause index over the whole knowledge base, plus the
// pre-unification filter that selects candidate clauses inside the
// storage engine before any code is loaded. The paper's external
// dictionary is the symbol table each stored code blob carries (see
// loader.EncodeClause): symbols are referenced by name, so no separate
// persistent table is kept.
//
// Layout on top of package store:
//
//   - a procedures heap holds one descriptor record per external
//     procedure (the paper's procedures table);
//   - one clauses heap holds one record per clause (the paper's clauses
//     tuple): a header with the clause ID, the number K of indexed
//     arguments, their wildcard mask and K head-argument hashes (the
//     attributes of the paper's procedures relation), followed by the
//     code or source blob (relative_code); a candidate costs one read;
//   - one B-tree, the clause index, files every clause record under
//     procedure ID | tag | body: for a ground clause one entry per indexed
//     argument i (tag i, body = that argument's hash), for a clause with a
//     variable in an indexed position (or of a procedure with no indexed
//     argument) one wildcard entry (tag 0xFF, body = clause ID) that
//     every query of the procedure reads. Argument hashes are computed by
//     the internal dictionary's hash function, so the storage engine can
//     pre-unify on hash values alone.
package edb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/store"
)

// MaxIndexedArgs caps how many head arguments the clause index files a
// clause under. Every indexed argument costs one entry per ground clause
// (and the paper's §3.2.2 notes the code growth of indexing on many), so
// the index uses the leading arguments only.
const MaxIndexedArgs = 4

// Form says how a procedure's clauses are stored.
type Form uint8

// Clause storage forms.
const (
	// FormCode stores relocatable compiled WAM code (Educe*).
	FormCode Form = iota
	// FormSource stores clause source text (the Educe baseline).
	FormSource
)

// ProcInfo is one entry of the procedures table.
type ProcInfo struct {
	Name   string
	Arity  int
	ProcID uint32
	Form   Form
	// FactsOnly records that every stored clause is a ground-headed
	// fact; the baseline engine uses tuple-at-a-time retrieval for such
	// procedures instead of assert-based loading.
	FactsOnly bool
	// K is the number of indexed head arguments (0 for arity-0 procs).
	K int
	// ClauseCount is the number of stored clauses.
	ClauseCount int

	nextClauseID uint32
	// wildCount is how many of the clauses are filed under the wildcard
	// tag; a retrieval reads those entries only when there are some.
	wildCount int
	rid       store.RID // descriptor record
	touched   bool      // the open batch saves the descriptor
}

// Indicator renders name/arity.
func (p *ProcInfo) Indicator() string { return fmt.Sprintf("%s/%d", p.Name, p.Arity) }

// DB is an open external database.
type DB struct {
	st       *store.Store
	clauses  *store.Heap  // clause records, one per clause
	procHeap *store.Heap  // procedure descriptors
	index    *store.BTree // the clause index (see the package comment)
	procs    map[procKey]*ProcInfo
	nextProc uint32
	// The open batch's index entries and changed descriptors (EndBatch).
	inBatch bool
	pending []store.Pair
	touched []*ProcInfo

	// Counters live in the store's obs.Registry (one per knowledge
	// base); retrievals run concurrently across sessions, so every
	// update is atomic. Stats() is a view over these.
	retrievals *obs.Counter
	scanned    *obs.Counter   // clauses examined by pre-unification
	candidates *obs.Counter   // clauses that passed pre-unification
	stored     *obs.Gauge     // clauses currently stored (state, not traffic)
	pagesPerRt *obs.Histogram // buffer accesses per retrieval

	// Per-access-path selectivity counters (choices made, candidates
	// scanned, candidates matched), indexed by obs.IndexPath. Only the
	// EDB paths are populated here; the rel layer owns its own.
	paths [obs.NumIndexPaths]pathCounters
}

// pathCounters is the registry-backed selectivity record of one access
// path.
type pathCounters struct {
	choices *obs.Counter
	scanned *obs.Counter
	matched *obs.Counter
}

// Stats counts pre-unification effectiveness. It is a view over the
// knowledge base's metrics registry.
type Stats struct {
	// Retrievals counts clause-set retrievals.
	Retrievals uint64
	// ClausesScanned counts clauses examined by pre-unification (index
	// candidates plus wildcard entries); with pre-unification
	// disabled every stored clause of the procedure is scanned and
	// returned.
	ClausesScanned uint64
	// CandidatesReturned counts clauses that passed pre-unification.
	CandidatesReturned uint64
	// ClausesStored is the total clauses currently stored.
	ClausesStored uint64
}

// Selectivity returns CandidatesReturned/ClausesScanned — the §4
// pre-unification selectivity (1 when nothing was scanned).
func (s Stats) Selectivity() float64 {
	if s.ClausesScanned == 0 {
		return 1
	}
	return float64(s.CandidatesReturned) / float64(s.ClausesScanned)
}

// Open attaches to (creating if necessary) the EDB inside st.
func Open(st *store.Store) (*DB, error) {
	reg := st.Obs()
	db := &DB{
		st:         st,
		procs:      map[procKey]*ProcInfo{},
		retrievals: reg.Counter("edb.retrievals"),
		scanned:    reg.Counter("edb.clauses_scanned"),
		candidates: reg.Counter("edb.clauses_passed"),
		stored:     reg.Gauge("edb.clauses_stored"),
		pagesPerRt: reg.Histogram("edb.pages_per_retrieval"),
	}
	reg.RegisterFunc("edb.preunify_selectivity", func() any {
		return obs.Ratio(db.candidates.Value(), db.scanned.Value())
	})
	for _, path := range []obs.IndexPath{
		obs.PathAttrIndex, obs.PathVarList, obs.PathFullScan,
	} {
		db.paths[path] = pathCounters{
			choices: reg.Counter("edb.path." + path.String() + ".choices"),
			scanned: reg.Counter("edb.path." + path.String() + ".scanned"),
			matched: reg.Counter("edb.path." + path.String() + ".matched"),
		}
	}
	// The clause records' heap is created before the procedures heap, so a
	// store with procedures and no edb.records was written in an older
	// format: records beside separate blobs, or per-procedure indexes.
	_, hasProcs := st.GetMeta("edb.procs")
	if _, ok := st.GetMeta("edb.records"); hasProcs && !ok {
		return nil, errOldFormat
	}
	var err error
	if db.clauses, err = openHeap(st, "edb.records"); err != nil {
		return nil, err
	}
	if db.index, err = openBTree(st, "edb.index"); err != nil {
		return nil, err
	}
	if db.procHeap, err = openHeap(st, "edb.procs"); err != nil {
		return nil, err
	}
	if err := db.loadProcs(); err != nil {
		return nil, err
	}
	return db, nil
}

// errOldFormat refuses a store written before one record per clause.
var errOldFormat = errors.New("edb: store predates one record per clause (format change: " +
	"a clause's header and code now share one edb.records record); " +
	"rebuild it by consulting the source again")

// openHeap attaches to the heap whose root is recorded under the store
// metadata name, creating and recording it when absent.
func openHeap(st *store.Store, name string) (*store.Heap, error) {
	if root, ok := st.GetMeta(name); ok {
		return store.OpenHeap(st.Pool(), store.PageID(root)), nil
	}
	h, err := store.CreateHeap(st.Pool())
	if err != nil {
		return nil, err
	}
	return h, st.SetMeta(name, uint64(h.Root()))
}

// openBTree is openHeap for a B-tree.
func openBTree(st *store.Store, name string) (*store.BTree, error) {
	if anchor, ok := st.GetMeta(name); ok {
		return store.OpenBTree(st.Pool(), store.PageID(anchor))
	}
	t, err := store.CreateBTree(st.Pool())
	if err != nil {
		return nil, err
	}
	return t, st.SetMeta(name, uint64(t.Anchor()))
}

// Store returns the underlying store (for I/O statistics).
func (db *DB) Store() *store.Store { return db.st }

// Stats returns a snapshot of the pre-unification counters.
func (db *DB) Stats() Stats {
	return Stats{
		Retrievals:         db.retrievals.Value(),
		ClausesScanned:     db.scanned.Value(),
		CandidatesReturned: db.candidates.Value(),
		ClausesStored:      uint64(db.stored.Value()),
	}
}

// ResetStats zeroes the traffic counters (ClausesStored is state, not
// traffic, and is kept). These counters are shared across every session
// of the knowledge base; reset them only from a KB-level call.
func (db *DB) ResetStats() {
	db.retrievals.Reset()
	db.scanned.Reset()
	db.candidates.Reset()
	db.pagesPerRt.Reset()
}

// procKey names a procedure in the procedures table.
type procKey struct {
	name  string
	arity int
}

func (db *DB) loadProcs() error {
	return db.procHeap.Scan(func(rid store.RID, data []byte) (bool, error) {
		p, err := decodeProc(data)
		if err != nil {
			return false, err
		}
		p.rid = rid
		if p.ProcID >= db.nextProc {
			db.nextProc = p.ProcID + 1
		}
		db.procs[procKey{p.Name, p.Arity}] = p
		db.stored.Add(int64(p.ClauseCount))
		return true, nil
	})
}

func encodeProc(p *ProcInfo) []byte {
	var b bytes.Buffer
	wu := func(v uint64) {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], v)
		b.Write(tmp[:n])
	}
	wu(uint64(len(p.Name)))
	b.WriteString(p.Name)
	wu(uint64(p.Arity))
	wu(uint64(p.ProcID))
	wu(uint64(p.Form))
	if p.FactsOnly {
		wu(1)
	} else {
		wu(0)
	}
	wu(uint64(p.K))
	wu(uint64(p.ClauseCount))
	wu(uint64(p.nextClauseID))
	wu(uint64(p.wildCount))
	return b.Bytes()
}

func decodeProc(data []byte) (*ProcInfo, error) {
	r := bytes.NewReader(data)
	var err error
	ru := func() uint64 {
		v, e := binary.ReadUvarint(r)
		if e != nil && err == nil {
			err = e
		}
		return v
	}
	n := ru()
	name := make([]byte, n)
	if _, e := r.Read(name); e != nil && err == nil {
		err = e
	}
	p := &ProcInfo{Name: string(name)}
	p.Arity = int(ru())
	p.ProcID = uint32(ru())
	p.Form = Form(ru())
	p.FactsOnly = ru() == 1
	p.K = int(ru())
	p.ClauseCount = int(ru())
	p.nextClauseID = uint32(ru())
	p.wildCount = int(ru())
	if err != nil {
		return nil, fmt.Errorf("edb: corrupt procedure descriptor: %w", err)
	}
	return p, nil
}

// Proc looks up the procedures table.
func (db *DB) Proc(name string, arity int) *ProcInfo {
	return db.procs[procKey{name, arity}]
}

// Procs returns all procedure descriptors sorted by indicator.
func (db *DB) Procs() []*ProcInfo {
	out := make([]*ProcInfo, 0, len(db.procs))
	for _, p := range db.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// CreateProc registers a new external procedure with the given storage
// form. It is an error if the procedure already exists.
func (db *DB) CreateProc(name string, arity int, form Form) (*ProcInfo, error) {
	if db.Proc(name, arity) != nil {
		return nil, fmt.Errorf("edb: procedure %s/%d already exists", name, arity)
	}
	k := arity
	if k > MaxIndexedArgs {
		k = MaxIndexedArgs
	}
	p := &ProcInfo{
		Name:      name,
		Arity:     arity,
		ProcID:    db.nextProc,
		Form:      form,
		FactsOnly: true, // cleared on the first rule stored
		K:         k,
	}
	db.nextProc++
	rid, err := db.procHeap.Insert(encodeProc(p))
	if err != nil {
		return nil, err
	}
	p.rid = rid
	db.procs[procKey{name, arity}] = p
	return p, nil
}

// EnsureProc returns the procedure, creating it when absent.
func (db *DB) EnsureProc(name string, arity int, form Form) (*ProcInfo, error) {
	if p := db.Proc(name, arity); p != nil {
		return p, nil
	}
	return db.CreateProc(name, arity, form)
}

// DropProc removes the procedure and all its clauses.
func (db *DB) DropProc(p *ProcInfo) error {
	scs, err := db.AllClauses(p)
	if err != nil {
		return err
	}
	for _, sc := range scs {
		if err := db.DeleteClause(p, sc); err != nil {
			return err
		}
	}
	if err := db.procHeap.Delete(p.rid); err != nil {
		return err
	}
	delete(db.procs, procKey{p.Name, p.Arity})
	return nil
}

// saveProc rewrites the descriptor after mutation.
func (db *DB) saveProc(p *ProcInfo) error {
	rid, err := db.procHeap.Update(p.rid, encodeProc(p))
	if err != nil {
		return err
	}
	p.rid = rid
	return nil
}

// MarkRule records that p holds at least one non-fact clause, disabling
// the baseline's tuple-at-a-time access path for it.
func (db *DB) MarkRule(p *ProcInfo) error {
	if !p.FactsOnly {
		return nil
	}
	p.FactsOnly = false
	return db.changed(p)
}
