package edb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/dict"
	"repro/internal/store"
)

// ExtDict is the external dictionary (paper §4 item 2): a persistent table
// of (name, arity, hash) for every atom and functor referenced by stored
// code. The hash is computed with the internal dictionary's hash function
// so the storage engine's pre-unification compares the same values the
// runtime dictionary would produce; the strings support range queries and
// session-independent relinking.
//
// Lookup and Len may run concurrently with each other and with Intern;
// concurrent Interns additionally require external write ordering (the
// engine serialises them under the knowledge-base write lock).
type ExtDict struct {
	mu      sync.RWMutex
	heap    *store.Heap
	entries map[extKey]uint64 // (name, arity) -> hash; loaded on open
	count   int
	journal []extKey // entries interned since BeginJournal (nil: not recording)
}

type extKey struct {
	name  string
	arity int
}

func openExtDict(st *store.Store) (*ExtDict, error) {
	heap, err := openHeap(st, "edb.extdict")
	if err != nil {
		return nil, err
	}
	d := &ExtDict{heap: heap, entries: map[extKey]uint64{}}
	err = d.heap.Scan(func(_ store.RID, data []byte) (bool, error) {
		name, arity, hash, err := decodeExtEntry(data)
		if err != nil {
			return false, err
		}
		d.entries[extKey{name, arity}] = hash
		d.count++
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func encodeExtEntry(name string, arity int, hash uint64) []byte {
	var b bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(name)))
	b.Write(tmp[:n])
	b.WriteString(name)
	n = binary.PutUvarint(tmp[:], uint64(arity))
	b.Write(tmp[:n])
	binary.LittleEndian.PutUint64(tmp[:8], hash)
	b.Write(tmp[:8])
	return b.Bytes()
}

func decodeExtEntry(data []byte) (name string, arity int, hash uint64, err error) {
	r := bytes.NewReader(data)
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", 0, 0, err
	}
	buf := make([]byte, n)
	if _, err := r.Read(buf); err != nil {
		return "", 0, 0, err
	}
	a, err := binary.ReadUvarint(r)
	if err != nil {
		return "", 0, 0, err
	}
	var h [8]byte
	if _, err := r.Read(h[:]); err != nil {
		return "", 0, 0, err
	}
	return string(buf), int(a), binary.LittleEndian.Uint64(h[:]), nil
}

// Intern registers (name, arity) and returns its hash, inserting the entry
// on first use.
func (d *ExtDict) Intern(name string, arity int) (uint64, error) {
	k := extKey{name, arity}
	d.mu.RLock()
	h, ok := d.entries[k]
	d.mu.RUnlock()
	if ok {
		return h, nil
	}
	h = dict.Hash(name, arity)
	if _, err := d.heap.Insert(encodeExtEntry(name, arity, h)); err != nil {
		return 0, err
	}
	d.mu.Lock()
	d.entries[k] = h
	d.count++
	if d.journal != nil {
		d.journal = append(d.journal, k)
	}
	d.mu.Unlock()
	return h, nil
}

// Lookup returns the stored hash for (name, arity).
func (d *ExtDict) Lookup(name string, arity int) (uint64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	h, ok := d.entries[extKey{name, arity}]
	return h, ok
}

// Len reports the number of registered entries.
func (d *ExtDict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.count
}

// String summarises the dictionary.
func (d *ExtDict) String() string { return fmt.Sprintf("extdict(%d entries)", d.Len()) }
