package rel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/store"
)

// Catalog is the relation catalog (the paper's §2.2 "separate catalog"
// holding type information). It persists schemas, heap roots, tuple counts
// and index anchors in its own heap file.
type Catalog struct {
	st   *store.Store
	heap *store.Heap
	rels map[string]*Relation
	rids map[string]store.RID

	// Access-path selectivity counters (KB-wide, in the store's metrics
	// registry): how often each scan kind was chosen and how many tuples
	// it examined vs. returned.
	idxChoices *obs.Counter // rel.path.rel_index.choices
	idxScanned *obs.Counter // RIDs collected by index range probes
	idxMatched *obs.Counter // tuples returned by index scans
	seqChoices *obs.Counter // rel.path.rel_seq.choices
	seqScanned *obs.Counter // tuples examined by sequential scans
	idxFallbck *obs.Counter // IndexScan calls degraded to filtered seq scan
}

// OpenCatalog attaches to (creating if necessary) the catalog in st.
func OpenCatalog(st *store.Store) (*Catalog, error) {
	c := &Catalog{st: st, rels: map[string]*Relation{}, rids: map[string]store.RID{}}
	reg := st.Obs()
	c.idxChoices = reg.Counter("rel.path.rel_index.choices")
	c.idxScanned = reg.Counter("rel.path.rel_index.scanned")
	c.idxMatched = reg.Counter("rel.path.rel_index.matched")
	c.seqChoices = reg.Counter("rel.path.rel_seq.choices")
	c.seqScanned = reg.Counter("rel.path.rel_seq.scanned")
	c.idxFallbck = reg.Counter("rel.path.rel_index.fallbacks")
	if root, ok := st.GetMeta("rel.catalog"); ok {
		c.heap = store.OpenHeap(st.Pool(), store.PageID(root))
	} else {
		h, err := store.CreateHeap(st.Pool())
		if err != nil {
			return nil, err
		}
		c.heap = h
		if err := st.SetMeta("rel.catalog", uint64(h.Root())); err != nil {
			return nil, err
		}
	}
	err := c.heap.Scan(func(rid store.RID, data []byte) (bool, error) {
		r, err := c.decodeRelation(data)
		if err != nil {
			return false, err
		}
		c.rels[r.Schema.Name] = r
		c.rids[r.Schema.Name] = rid
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Store returns the underlying store.
func (c *Catalog) Store() *store.Store { return c.st }

// Create registers a new relation.
func (c *Catalog) Create(schema Schema) (*Relation, error) {
	if _, ok := c.rels[schema.Name]; ok {
		return nil, fmt.Errorf("rel: relation %s already exists", schema.Name)
	}
	h, err := store.CreateHeap(c.st.Pool())
	if err != nil {
		return nil, err
	}
	r := &Relation{Schema: schema, heap: h, indexes: map[int]*store.BTree{}, cat: c}
	rid, err := c.heap.Insert(c.encodeRelation(r))
	if err != nil {
		return nil, err
	}
	c.rels[schema.Name] = r
	c.rids[schema.Name] = rid
	return r, nil
}

// Get returns a relation by name, or nil.
func (c *Catalog) Get(name string) *Relation { return c.rels[name] }

// Drop removes the relation from the catalog. (Pages are not reclaimed;
// dropping is rare in the workloads.)
func (c *Catalog) Drop(name string) error {
	rid, ok := c.rids[name]
	if !ok {
		return fmt.Errorf("rel: no relation %s", name)
	}
	if err := c.heap.Delete(rid); err != nil {
		return err
	}
	delete(c.rels, name)
	delete(c.rids, name)
	return nil
}

// Names lists all relations.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.rels))
	for n := range c.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (c *Catalog) saveRelation(r *Relation) error {
	rid := c.rids[r.Schema.Name]
	nrid, err := c.heap.Update(rid, c.encodeRelation(r))
	if err != nil {
		return err
	}
	c.rids[r.Schema.Name] = nrid
	return nil
}

func (c *Catalog) encodeRelation(r *Relation) []byte {
	var b bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	ws := func(s string) {
		n := binary.PutUvarint(tmp[:], uint64(len(s)))
		b.Write(tmp[:n])
		b.WriteString(s)
	}
	wu := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		b.Write(tmp[:n])
	}
	ws(r.Schema.Name)
	wu(uint64(len(r.Schema.Attrs)))
	for _, a := range r.Schema.Attrs {
		ws(a.Name)
		wu(uint64(a.Type))
	}
	wu(uint64(r.heap.Root()))
	wu(uint64(r.count))
	wu(uint64(len(r.indexes)))
	for attr := range r.Schema.Attrs {
		if idx, ok := r.indexes[attr]; ok {
			wu(uint64(attr))
			wu(uint64(idx.Anchor()))
		}
	}
	return b.Bytes()
}

func (c *Catalog) decodeRelation(data []byte) (*Relation, error) {
	rd := bytes.NewReader(data)
	var err error
	ru := func() uint64 {
		v, e := binary.ReadUvarint(rd)
		if e != nil && err == nil {
			err = e
		}
		return v
	}
	rs := func() string {
		n := ru()
		buf := make([]byte, n)
		if _, e := rd.Read(buf); e != nil && err == nil {
			err = e
		}
		return string(buf)
	}
	r := &Relation{indexes: map[int]*store.BTree{}, cat: c}
	r.Schema.Name = rs()
	na := int(ru())
	for i := 0; i < na; i++ {
		name := rs()
		typ := Type(ru())
		r.Schema.Attrs = append(r.Schema.Attrs, Attr{Name: name, Type: typ})
	}
	r.heap = store.OpenHeap(c.st.Pool(), store.PageID(ru()))
	r.count = int(ru())
	ni := int(ru())
	for i := 0; i < ni; i++ {
		attr, anchor := int(ru()), store.PageID(ru())
		if err != nil {
			break
		}
		bt, berr := store.OpenBTree(c.st.Pool(), anchor)
		if berr != nil {
			return nil, fmt.Errorf("rel: %s: index on attribute %d: %w", r.Schema.Name, attr, berr)
		}
		r.indexes[attr] = bt
	}
	if err != nil {
		return nil, fmt.Errorf("rel: corrupt catalog entry: %w", err)
	}
	return r, nil
}
