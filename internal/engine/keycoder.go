package engine

import (
	"math"

	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

// KeyCoder turns the values of k group columns into one int64 key per
// row, unique per value tuple. Each column gets a dense int32 code: a
// 32-bit integer is its own code, while a string, I64 or F64 (by its bit
// pattern) is interned through the column's own group table, which
// allocates only for a new distinct value. The codes chain left to right
// through pair tables (prefix id << 32 | code), so the last packed pair is
// the key; two 32-bit columns pack exactly with no table at all. HashAgg
// and the partial-aggregate merge both group through it, so single-process
// and distributed grouping follow one rule.
type KeyCoder struct {
	cols  []int                      // the key columns' positions in a batch
	str   []*primitive.GroupTableStr // per column; nil unless Str
	num   []*primitive.GroupTableI64 // per column; nil unless I64 or F64
	pairs []*primitive.GroupTableI64 // pairs[j-1] interns the prefix through column j
	codes []int64                    // column-code scratch
	dense vector.Sel                 // 0..n-1: the selection of an unselected batch
	cost  float64                    // operator cycles per coded tuple
}

// NewKeyCoder returns a coder for the group columns cols of schema sch.
func NewKeyCoder(sch vector.Schema, cols []int) *KeyCoder {
	kc := &KeyCoder{
		cols: cols,
		str:  make([]*primitive.GroupTableStr, len(cols)),
		num:  make([]*primitive.GroupTableI64, len(cols)),
	}
	for j, c := range cols {
		// Reading and packing a code costs a cycle, each table probe three.
		kc.cost++
		switch sch[c].Type {
		case vector.Str:
			kc.str[j] = primitive.NewGroupTableStr(64)
			kc.cost += 3
		case vector.I64, vector.F64:
			kc.num[j] = primitive.NewGroupTableI64(64)
			kc.cost += 3
		}
		if j > 0 && j < len(cols)-1 {
			kc.pairs = append(kc.pairs, primitive.NewGroupTableI64(64))
			kc.cost += 3
		}
	}
	return kc
}

// Cycles is the operator cost of coding live tuples.
func (kc *KeyCoder) Cycles(live int) float64 { return kc.cost * float64(live) }

// Encode writes the key of every live row of a batch's columns — the
// positions in sel, or 0..n-1 when sel is nil — into keys. With no key
// columns every key is 0.
func (kc *KeyCoder) Encode(vecs []*vector.Vector, sel vector.Sel, n int, keys []int64) {
	if sel == nil {
		for len(kc.dense) < n {
			kc.dense = append(kc.dense, int32(len(kc.dense)))
		}
		sel = kc.dense[:n]
	}
	if len(kc.codes) < n {
		kc.codes = make([]int64, n)
	}
	for _, i := range sel {
		keys[i] = 0
	}
	for j, c := range kc.cols {
		kc.code(j, vecs[c], sel, kc.codes)
		for _, i := range sel {
			keys[i] = int64(uint64(uint32(keys[i]))<<32 | uint64(uint32(kc.codes[i])))
		}
		if j > 0 && j < len(kc.cols)-1 {
			pair := kc.pairs[j-1]
			for _, i := range sel {
				keys[i] = int64(pair.InsertCheck(keys[i]))
			}
		}
	}
}

// code writes column j's code of every row in sel into dst.
func (kc *KeyCoder) code(j int, v *vector.Vector, sel vector.Sel, dst []int64) {
	switch v.Type() {
	case vector.I16:
		src := v.I16()
		for _, i := range sel {
			dst[i] = int64(src[i])
		}
	case vector.I32:
		src := v.I32()
		for _, i := range sel {
			dst[i] = int64(src[i])
		}
	case vector.I64:
		src, tab := v.I64(), kc.num[j]
		for _, i := range sel {
			dst[i] = int64(tab.InsertCheck(src[i]))
		}
	case vector.F64:
		src, tab := v.F64(), kc.num[j]
		for _, i := range sel {
			dst[i] = int64(tab.InsertCheck(int64(math.Float64bits(src[i]))))
		}
	case vector.Str:
		src, tab := v.Str(), kc.str[j]
		for _, i := range sel {
			dst[i] = int64(tab.InsertCheck(src[i]))
		}
	default:
		panic("engine: cannot group on type " + v.Type().String())
	}
}
