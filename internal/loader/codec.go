package loader

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/compiler"
	"repro/internal/dict"
	"repro/internal/wam"
)

// codecMagic guards against decoding unrelated blobs, and codecVersion
// against stale EDB contents after format changes.
const (
	codecMagic   = 0xEDC0
	codecVersion = 1
)

// EncodeClause serialises one relocatable clause to the byte format stored
// in the EDB clauses relation (paper §4, the relative_code attribute).
func EncodeClause(cc compiler.ClauseCode) []byte {
	var b bytes.Buffer
	wu := func(v uint64) {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], v)
		b.Write(tmp[:n])
	}
	wi := func(v int64) {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutVarint(tmp[:], v)
		b.Write(tmp[:n])
	}
	ws := func(s string) {
		wu(uint64(len(s)))
		b.WriteString(s)
	}
	wu(codecMagic)
	wu(codecVersion)
	ws(cc.Pred.Name)
	wu(uint64(cc.Pred.Arity))
	// Index key.
	wu(uint64(cc.Key.Kind))
	ws(cc.Key.Name)
	wu(uint64(cc.Key.Arity))
	wi(cc.Key.Int)
	wu(uint64(cc.NVars))
	// Symbols.
	wu(uint64(len(cc.Symbols)))
	for _, s := range cc.Symbols {
		wu(uint64(s.Kind))
		ws(s.Name)
		wu(uint64(s.Arity))
	}
	// Instructions.
	wu(uint64(len(cc.Instrs)))
	for _, ins := range cc.Instrs {
		wu(uint64(ins.Op))
		wi(int64(ins.Reg))
		wi(int64(ins.Arg))
		wi(int64(ins.N))
		wu(uint64(ins.Fn))
		wi(int64(ins.Ar))
		wi(ins.Int)
		wu(math.Float64bits(ins.Flt))
		wi(int64(ins.L))
		wi(int64(ins.A))
		wi(int64(ins.B))
		wi(int64(ins.C))
		wu(uint64(len(ins.Tbl)))
		for _, sc := range ins.Tbl {
			wu(uint64(sc.Key))
			wi(int64(sc.Off))
		}
	}
	return b.Bytes()
}

// DecodeClause reverses EncodeClause.
func DecodeClause(data []byte) (compiler.ClauseCode, error) {
	r := bytes.NewReader(data)
	var firstErr error
	ru := func() uint64 {
		v, err := binary.ReadUvarint(r)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	ri := func() int64 {
		v, err := binary.ReadVarint(r)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	// count reads a length prefix of elements encoded in at least size
	// bytes each. A count the rest of the blob cannot hold is refused
	// before anything is allocated for it, as is one read after an error
	// (a varint cut short can still carry a huge partial value).
	count := func(what string, size uint64) int {
		n := ru()
		if firstErr == nil && n > uint64(r.Len())/size {
			firstErr = fmt.Errorf("implausible %s %d", what, n)
		}
		if firstErr != nil {
			return 0
		}
		return int(n)
	}
	rs := func() string {
		buf := make([]byte, count("string length", 1))
		r.Read(buf) // count checked that the bytes are there
		return string(buf)
	}
	var cc compiler.ClauseCode
	if ru() != codecMagic {
		return cc, fmt.Errorf("loader: bad clause blob magic")
	}
	if v := ru(); v != codecVersion {
		return cc, fmt.Errorf("loader: unsupported clause code version %d", v)
	}
	cc.Pred.Name = rs()
	cc.Pred.Arity = int(ru())
	cc.Key.Kind = compiler.KeyKind(ru())
	cc.Key.Name = rs()
	cc.Key.Arity = int(ru())
	cc.Key.Int = ri()
	cc.NVars = int(ru())
	cc.Symbols = make([]compiler.Symbol, count("symbol count", 3))
	for i := range cc.Symbols {
		cc.Symbols[i].Kind = compiler.SymKind(ru())
		cc.Symbols[i].Name = rs()
		cc.Symbols[i].Arity = int(ru())
	}
	cc.Instrs = make([]wam.Instr, count("instruction count", 13))
	for i := range cc.Instrs {
		ins := &cc.Instrs[i]
		ins.Op = wam.Op(ru())
		ins.Reg = int32(ri())
		ins.Arg = int32(ri())
		ins.N = int32(ri())
		ins.Fn = dict.ID(ru())
		ins.Ar = int32(ri())
		ins.Int = ri()
		ins.Flt = math.Float64frombits(ru())
		ins.L = int32(ri())
		ins.A = int32(ri())
		ins.B = int32(ri())
		ins.C = int32(ri())
		if ntbl := count("switch table size", 2); ntbl > 0 {
			ins.Tbl = make([]wam.SwitchCase, ntbl)
			for j := range ins.Tbl {
				ins.Tbl[j].Key = wam.Cell(ru())
				ins.Tbl[j].Off = int32(ri())
			}
		}
	}
	if firstErr != nil {
		return cc, fmt.Errorf("loader: decode: %w", firstErr)
	}
	return cc, nil
}
