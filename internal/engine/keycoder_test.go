package engine

import (
	"math"
	"testing"

	"microadapt/internal/vector"
)

// TestHashAggCompositeKeyNoCollision: tuples whose string columns would
// join to the same bytes around a NUL stay two groups.
func TestHashAggCompositeKeyNoCollision(t *testing.T) {
	s := testSession(t)
	tab := NewTable("nul",
		vector.Schema{{Name: "a", Type: vector.Str}, {Name: "b", Type: vector.Str}, {Name: "v", Type: vector.I64}},
		[]*vector.Vector{
			vector.FromStr([]string{"a\x00b", "a"}),
			vector.FromStr([]string{"c", "b\x00c"}),
			vector.FromI64([]int64{1, 2}),
		})
	out, err := Materialize(NewHashAgg(s, NewScan(s, tab), "nul", []int{0, 1}, Agg(AggSum, 2, "sv")))
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 2 {
		t.Fatalf("groups = %d, want 2:\n%s", out.Rows(), TableString(out, 0))
	}
	if out.Col("sv").GetI64(0) != 1 || out.Col("sv").GetI64(1) != 2 {
		t.Errorf("sums = %d, %d, want 1, 2", out.Col("sv").GetI64(0), out.Col("sv").GetI64(1))
	}
}

// batchesOp replays prebuilt batches, selection vectors included.
type batchesOp struct {
	sch     vector.Schema
	batches []*vector.Batch
	next    int
}

func (o *batchesOp) Schema() vector.Schema { return o.sch }
func (o *batchesOp) Open() error           { return nil }
func (o *batchesOp) Close()                {}
func (o *batchesOp) Next() (*vector.Batch, error) {
	if o.next == len(o.batches) {
		return nil, nil
	}
	o.next++
	return o.batches[o.next-1], nil
}

// fuzzKey is the reference group key: one typed value per key column,
// floats by bit pattern (the coder's rule), unused columns zero.
type fuzzKey struct {
	s string
	n int32
	l int64
	f uint64
}

var (
	fuzzStrs   = []string{"", "a", "b", "a\x00b", "b\x00c", "a\x00", "\x00", "c"}
	fuzzFloats = []float64{0, math.Copysign(0, -1), 1.5, -1, math.Inf(1), math.NaN()}
)

// FuzzHashAggCompositeKeys compares HashAgg over random batches of
// (Str, I16 or I32, I64, F64) key columns, with selection vectors, against
// a map keyed by the typed values: group count, first-seen order, group
// values, count and an integer sum must agree.
func FuzzHashAggCompositeKeys(f *testing.F) {
	f.Add([]byte{0x0f, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0x13, 0xff, 3, 3, 4, 4, 3, 3, 4, 4, 200, 1, 7})
	f.Add([]byte{0x06, 0x81, 9, 9, 9, 9, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mask, narrow := data[0]&0x0f, data[0]&0x10 != 0
		if mask == 0 {
			return
		}
		data = data[1:]
		smallInt := vector.I32
		if narrow {
			smallInt = vector.I16
		}
		var sch vector.Schema
		for ci, typ := range []vector.Type{vector.Str, smallInt, vector.I64, vector.F64} {
			if mask&(1<<ci) != 0 {
				sch = append(sch, vector.Col{Name: string(rune('a' + ci)), Type: typ})
			}
		}
		keys := len(sch)
		sch = append(sch, vector.Col{Name: "v", Type: vector.I64})

		// Batches of 1..20 rows (some wider than the session's vectors),
		// each row's key values drawn from its own bytes.
		var (
			batches []*vector.Batch
			order   []fuzzKey
			counts  = map[fuzzKey]int64{}
			sums    = map[fuzzKey]int64{}
		)
		for len(data) > 0 {
			n := 1 + int(data[0])%20
			live := data[0] >> 5 // 0: every row live
			data = data[1:]
			cols := make([]*vector.Vector, len(sch))
			for ci, c := range sch {
				cols[ci] = vector.New(c.Type, n)
				cols[ci].SetLen(n)
			}
			var sel vector.Sel
			for i := 0; i < n; i++ {
				var b byte
				if i < len(data) {
					b = data[i]
				}
				var k fuzzKey
				for ci, c := range sch[:keys] {
					x := b>>(ci*2) | b<<(8-ci*2) // each column sees every bit
					switch c.Type {
					case vector.Str:
						k.s = fuzzStrs[int(x)%len(fuzzStrs)]
						cols[ci].Str()[i] = k.s
					case vector.I16:
						k.n = int32(int8(x<<5)) >> 5
						cols[ci].I16()[i] = int16(k.n)
					case vector.I32:
						k.n = int32(int8(x<<5)) >> 5 << 20
						cols[ci].I32()[i] = k.n
					case vector.I64:
						k.l = (int64(x%4) - 2) << 40
						cols[ci].I64()[i] = k.l
					case vector.F64:
						v := fuzzFloats[int(x)%len(fuzzFloats)]
						k.f = math.Float64bits(v)
						cols[ci].F64()[i] = v
					}
				}
				cols[keys].I64()[i] = int64(i) - int64(b)
				if live != 0 && (int(b)+i)%int(live+1) == 0 {
					continue // dropped by the selection
				}
				sel = append(sel, int32(i))
				if _, ok := counts[k]; !ok {
					order = append(order, k)
				}
				counts[k]++
				sums[k] += cols[keys].I64()[i]
			}
			if len(data) > n {
				data = data[n:]
			} else {
				data = nil
			}
			b := &vector.Batch{N: n, Cols: cols}
			if live != 0 {
				if sel == nil {
					sel = vector.Sel{}
				}
				b.Sel = sel
			}
			batches = append(batches, b)
		}

		s := testSession(t)
		groupCols := make([]int, keys)
		for i := range groupCols {
			groupCols[i] = i
		}
		out, err := Materialize(NewHashAgg(s, &batchesOp{sch: sch, batches: batches}, "fz", groupCols,
			Agg(AggCount, -1, "cnt"), Agg(AggSum, keys, "sum")))
		if err != nil {
			t.Fatal(err)
		}
		if out.Rows() != len(order) {
			t.Fatalf("groups = %d, want %d", out.Rows(), len(order))
		}
		for g, k := range order {
			for ci, c := range sch[:keys] {
				v := out.Cols[ci]
				ok := true
				switch c.Type {
				case vector.Str:
					ok = v.Str()[g] == k.s
				case vector.I16, vector.I32:
					ok = v.I64()[g] == int64(k.n)
				case vector.I64:
					ok = v.I64()[g] == k.l
				case vector.F64:
					ok = math.Float64bits(v.F64()[g]) == k.f
				}
				if !ok {
					t.Fatalf("group %d column %s: got %s, want key %+v", g, c.Name, TableString(out, 0), k)
				}
			}
			if got := out.Col("cnt").I64()[g]; got != counts[k] {
				t.Errorf("group %d count = %d, want %d", g, got, counts[k])
			}
			if got := out.Col("sum").I64()[g]; got != sums[k] {
				t.Errorf("group %d sum = %d, want %d", g, got, sums[k])
			}
		}
	})
}
