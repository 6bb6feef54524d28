// Package rel is the set-oriented relational layer of Educe*: typed
// relations over the storage engine, with sequential and index access
// paths and the classical operators (selection, projection, nested-loop
// and index joins). The Wisconsin experiments (paper §5.2) run through
// this package, and the engine's goal-oriented evaluation strategy uses
// it for flat-relation queries.
package rel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/store"
)

// Type is an attribute type. Relational attributes are atomic, as in the
// paper's discussion (§2.2): type information lives in the catalog, not
// with each value.
type Type uint8

// Attribute types.
const (
	Int Type = iota
	Float
	String
)

func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	}
	return "?"
}

// Attr is one attribute of a schema.
type Attr struct {
	Name string
	Type Type
}

// Schema describes a relation.
type Schema struct {
	Name  string
	Attrs []Attr
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Value is one attribute value.
type Value struct {
	Type Type
	I    int64
	F    float64
	S    string
}

// IntV makes an integer value.
func IntV(v int64) Value { return Value{Type: Int, I: v} }

// FloatV makes a float value.
func FloatV(v float64) Value { return Value{Type: Float, F: v} }

// StringV makes a string value.
func StringV(v string) Value { return Value{Type: String, S: v} }

func (v Value) String() string {
	switch v.Type {
	case Int:
		return fmt.Sprintf("%d", v.I)
	case Float:
		return fmt.Sprintf("%g", v.F)
	default:
		return v.S
	}
}

// Compare orders two values of the same type.
func (v Value) Compare(o Value) int {
	switch v.Type {
	case Int:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case Float:
		switch {
		case v.F < o.F:
			return -1
		case v.F > o.F:
			return 1
		}
		return 0
	default:
		return bytes.Compare([]byte(v.S), []byte(o.S))
	}
}

// Key renders the value as an order-preserving byte key for B-tree use.
// It is never nil, which a range bound would read as open.
func (v Value) Key() []byte { return v.appendKey([]byte{}) }

// appendKey appends the value's Key to b.
func (v Value) appendKey(b []byte) []byte {
	switch v.Type {
	case Int:
		return binary.BigEndian.AppendUint64(b, uint64(v.I)^(1<<63))
	case Float:
		bits := math.Float64bits(v.F)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return binary.BigEndian.AppendUint64(b, bits)
	default:
		return append(b, v.S...)
	}
}

// Tuple is a row.
type Tuple []Value

func encodeTuple(t Tuple) []byte {
	var b bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range t {
		b.WriteByte(byte(v.Type))
		switch v.Type {
		case Int:
			n := binary.PutVarint(tmp[:], v.I)
			b.Write(tmp[:n])
		case Float:
			binary.LittleEndian.PutUint64(tmp[:8], math.Float64bits(v.F))
			b.Write(tmp[:8])
		case String:
			n := binary.PutUvarint(tmp[:], uint64(len(v.S)))
			b.Write(tmp[:n])
			b.WriteString(v.S)
		}
	}
	return b.Bytes()
}

// decodeTuple reads one value per schema attribute from data; a value
// cut short by the end of data, or a malformed varint, is an error,
// never a zero-filled value.
func decodeTuple(data []byte, schema *Schema) (Tuple, error) {
	return appendTuple(make(Tuple, 0, len(schema.Attrs)), data, schema)
}

// appendTuple is decodeTuple appending the values to out. data may alias
// a pinned page: a string is copied out of it.
func appendTuple(out Tuple, data []byte, schema *Schema) (Tuple, error) {
	for range schema.Attrs {
		if len(data) == 0 {
			return nil, errTruncated
		}
		v := Value{Type: Type(data[0])}
		data = data[1:]
		n := 0
		switch v.Type {
		case Int:
			v.I, n = binary.Varint(data)
		case Float:
			if len(data) >= 8 {
				v.F, n = math.Float64frombits(binary.LittleEndian.Uint64(data)), 8
			}
		case String:
			l, k := binary.Uvarint(data)
			if k > 0 && l <= uint64(len(data)-k) {
				v.S, n = string(data[k:k+int(l)]), k+int(l)
			}
		default:
			return nil, fmt.Errorf("rel: bad value type %d", v.Type)
		}
		if n <= 0 {
			return nil, errTruncated
		}
		data = data[n:]
		out = append(out, v)
	}
	return out, nil
}

var errTruncated = errors.New("rel: truncated or malformed tuple")

// Relation is a stored relation with optional per-attribute indexes.
type Relation struct {
	Schema  Schema
	heap    *store.Heap
	indexes map[int]*store.BTree
	count   int
	cat     *Catalog
}

// Count returns the number of tuples.
func (r *Relation) Count() int { return r.count }

// Insert appends a tuple, maintaining indexes.
func (r *Relation) Insert(t Tuple) error { return r.InsertAll([]Tuple{t}) }

// InsertAll bulk-inserts tuples, deferring the catalog write to the end.
// The whole batch is checked before the first heap write, so a tuple the
// relation cannot hold leaves the relation as it was. Each index in turn
// files the entries as one sorted batch, so equal loads write equal pages.
func (r *Relation) InsertAll(ts []Tuple) error {
	for _, t := range ts {
		if err := r.check(t); err != nil {
			return err
		}
	}
	rids := make([]uint64, len(ts))
	for i, t := range ts {
		rid, err := r.heap.Insert(encodeTuple(t))
		if err != nil {
			return err
		}
		rids[i] = rid.Pack()
		r.count++
	}
	pairs := make([]store.Pair, len(ts))
	for attr := range r.Schema.Attrs {
		if idx, ok := r.indexes[attr]; ok {
			for i, t := range ts {
				pairs[i] = store.Pair{Key: t[attr].Key(), Val: rids[i]}
			}
			if err := idx.InsertBatch(pairs); err != nil {
				return err
			}
		}
	}
	return r.cat.saveRelation(r)
}

// check rejects a tuple of the wrong arity, a value of the wrong type,
// and an indexed string longer than a B-tree key may be.
func (r *Relation) check(t Tuple) error {
	if len(t) != len(r.Schema.Attrs) {
		return fmt.Errorf("rel: %s: tuple arity %d, want %d", r.Schema.Name, len(t), len(r.Schema.Attrs))
	}
	for i, v := range t {
		a := r.Schema.Attrs[i]
		if v.Type != a.Type {
			return fmt.Errorf("rel: %s.%s: value type %v, want %v", r.Schema.Name, a.Name, v.Type, a.Type)
		}
		if _, ok := r.indexes[i]; ok && len(v.S) > store.MaxKeyLen {
			return fmt.Errorf("rel: %s.%s: indexed value of %d bytes exceeds the key limit %d",
				r.Schema.Name, a.Name, len(v.S), store.MaxKeyLen)
		}
	}
	return nil
}

// attr returns the position of the named attribute; an unknown name is
// an error.
func (r *Relation) attr(name string) (int, error) {
	if a := r.Schema.AttrIndex(name); a >= 0 {
		return a, nil
	}
	return -1, fmt.Errorf("rel: %s has no attribute %s", r.Schema.Name, name)
}

// CreateIndex builds a B-tree index on the attribute, filing the existing
// tuples' entries as one sorted batch.
func (r *Relation) CreateIndex(attrName string) error {
	attr, err := r.attr(attrName)
	if err != nil {
		return err
	}
	if _, ok := r.indexes[attr]; ok {
		return nil
	}
	bt, err := store.CreateBTree(r.cat.st.Pool())
	if err != nil {
		return err
	}
	pairs := make([]store.Pair, 0, r.count)
	err = r.heap.Scan(func(rid store.RID, data []byte) (bool, error) {
		t, err := decodeTuple(data, &r.Schema)
		if err != nil {
			return false, err
		}
		pairs = append(pairs, store.Pair{Key: t[attr].Key(), Val: rid.Pack()})
		return true, nil
	})
	if err == nil {
		err = bt.InsertBatch(pairs)
	}
	if err != nil {
		return err
	}
	r.indexes[attr] = bt
	return r.cat.saveRelation(r)
}

// HasIndex reports whether the attribute is indexed.
func (r *Relation) HasIndex(attrName string) bool {
	attr := r.Schema.AttrIndex(attrName)
	_, ok := r.indexes[attr]
	return ok
}
