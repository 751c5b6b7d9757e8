package primitive

import (
	"math"
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/storage"
	"microadapt/internal/vector"
)

// Operators reuse result vectors from batch to batch, so the positions
// outside a call's selection hold whatever an earlier batch left there —
// in the result vector and in any input that is itself a reused result.
// The flavors that touch all N lanes regardless of the selection
// (full-computation maps, "/" maps whose stale divisor may be zero or make
// MinInt64 / -1, the eager decompress scan) must therefore neither fail on
// such lanes nor let them reach the live results or the returned cycles.
// Each flavor runs twice, over two different fills of the dead lanes.

// staleFills are the dead-lane contents the two runs see; they include the
// values integer division is sensitive to.
var staleFills = [2][]int64{
	{0, 0, 0, 0},
	{math.MinInt64, -1, math.MaxInt64, 0},
}

// filled builds an n-tuple vector of type t holding live[i] at the selected
// positions and the fill pattern everywhere else.
func filled(t vector.Type, n int, sel []int32, live []int64, fill []int64) *vector.Vector {
	v := vector.New(t, n)
	v.SetLen(n)
	set := func(i int, x int64) {
		switch t {
		case vector.I16:
			v.I16()[i] = int16(x)
		case vector.I32:
			v.I32()[i] = int32(x)
		case vector.I64:
			v.I64()[i] = x
		case vector.F64:
			v.F64()[i] = float64(x)
		}
	}
	for i := 0; i < n; i++ {
		set(i, fill[i%len(fill)])
	}
	for j, i := range sel {
		set(int(i), live[j])
	}
	return v
}

func TestMapFlavorsIgnoreStaleLanes(t *testing.T) {
	const n = 16
	sel := []int32{1, 4, 5, 11, 15}
	left := []int64{40, -9, 7, 0, 123}
	right := []int64{5, 3, -2, 9, 0} // a live zero divisor exercises the "/" guard too
	d := NewDictionary(Everything())
	ctx := core.NewExecCtx(hw.Machine1())
	for _, typ := range []vector.Type{vector.I16, vector.I32, vector.I64, vector.F64} {
		for _, op := range mapOps {
			for _, shape := range []string{"col_col", "col_val", "val_col"} {
				prim := d.MustLookup(MapSig(op, typ, shape))
				for _, fl := range prim.Flavors {
					var liveRes [2][]float64
					var cycles [2]float64
					var produced [2]int
					for run, fill := range staleFills {
						a := filled(typ, n, sel, left, fill)
						b := filled(typ, n, sel, right, fill)
						switch shape {
						case "col_val":
							b = filled(typ, 1, []int32{0}, right[:1], fill)
						case "val_col":
							a = filled(typ, 1, []int32{0}, left[:1], fill)
						}
						res := filled(typ, n, nil, nil, fill)
						c := &core.Call{N: n, Sel: sel, In: []*vector.Vector{a, b}, Res: res}
						produced[run], cycles[run] = fl.Fn(ctx, c)
						for _, i := range sel {
							liveRes[run] = append(liveRes[run], res.GetF64(int(i)))
						}
					}
					if produced[0] != produced[1] || cycles[0] != cycles[1] {
						t.Errorf("%s %s: produced/cycles %d/%v vs %d/%v depend on dead lanes",
							prim.Sig, fl.Name, produced[0], cycles[0], produced[1], cycles[1])
					}
					for j := range sel {
						if liveRes[0][j] != liveRes[1][j] {
							t.Errorf("%s %s: live result %d = %v vs %v depends on dead lanes",
								prim.Sig, fl.Name, j, liveRes[0][j], liveRes[1][j])
						}
					}
				}
			}
		}
	}
}

func TestDecompressFlavorsIgnoreStaleLanes(t *testing.T) {
	const n = 64
	vals := make([]int32, 4*n)
	for i := range vals {
		vals[i] = int32(i / 5)
	}
	sel := []int32{0, 3, 17, 40, 63}
	d := NewDictionary(Everything())
	ctx := core.NewExecCtx(hw.Machine1())
	for _, enc := range []storage.Encoding{storage.Dict, storage.RLE, storage.BitPack} {
		col, err := storage.EncodeColumnAs(vector.FromI32(vals), enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, fl := range d.MustLookup(DecompressSig(vector.I32)).Flavors {
			var live [2][]int32
			var cycles [2]float64
			for run, fill := range staleFills {
				res := filled(vector.I32, n, nil, nil, fill)
				c := &core.Call{N: n, Sel: sel, Res: res, Aux: &DecompressArgs{Col: col, Lo: n}}
				_, cycles[run] = fl.Fn(ctx, c)
				for _, i := range sel {
					live[run] = append(live[run], res.I32()[i])
				}
			}
			for j, i := range sel {
				if want := vals[n+int(i)]; live[0][j] != want || live[1][j] != want {
					t.Errorf("%s %s: live position %d = %d / %d, want %d", enc, fl.Name, i, live[0][j], live[1][j], want)
				}
			}
			if cycles[0] != cycles[1] {
				t.Errorf("%s %s: cycles %v vs %v depend on dead lanes", enc, fl.Name, cycles[0], cycles[1])
			}
		}
	}
}
