package rel

import (
	"maps"

	"repro/internal/store"
)

// Transaction support: the pager rollback restores every page, and
// Snapshot/Restore bring the catalog's in-memory caches (relation
// membership, tuple counts, index maps, heap handles) back in line
// with the restored pages. Relation values are restored in place so
// any held *Relation pointer stays valid across a rollback.

// relSnap is the value copy of one relation's mutable state.
type relSnap struct {
	heapRoot store.PageID
	count    int
	indexes  map[int]*store.BTree
}

// CatSnapshot is the catalog state captured at transaction begin.
type CatSnapshot struct {
	rels map[string]*Relation
	rids map[string]store.RID
	vals map[*Relation]relSnap
}

// Snapshot captures the in-memory catalog state for a transaction.
// The caller must serialize all catalog access for the duration.
func (c *Catalog) Snapshot() *CatSnapshot {
	s := &CatSnapshot{
		rels: make(map[string]*Relation, len(c.rels)),
		rids: make(map[string]store.RID, len(c.rids)),
		vals: make(map[*Relation]relSnap, len(c.rels)),
	}
	for n, r := range c.rels {
		s.rels[n] = r
		s.rids[n] = c.rids[n]
		s.vals[r] = relSnap{heapRoot: r.heap.Root(), count: r.count, indexes: maps.Clone(r.indexes)}
	}
	return s
}

// Restore rolls the in-memory catalog back to the snapshot. Call it
// after store.Rollback; every heap handle is reopened over the restored
// pages, and every B-tree handle kept: it is only an anchor, which
// outlives a rollback.
func (c *Catalog) Restore(s *CatSnapshot) {
	pool := c.st.Pool()
	rels := make(map[string]*Relation, len(s.rels))
	rids := make(map[string]store.RID, len(s.rids))
	for n, r := range s.rels {
		v := s.vals[r]
		r.heap = store.OpenHeap(pool, v.heapRoot)
		r.count = v.count
		r.indexes = maps.Clone(v.indexes)
		rels[n] = r
		rids[n] = s.rids[n]
	}
	c.rels = rels
	c.rids = rids
	c.heap = store.OpenHeap(pool, c.heap.Root())
}
