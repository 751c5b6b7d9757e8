package primitive

import (
	"math/rand"
	"testing"

	"microadapt/internal/bloom"
	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/vector"
)

// Wall-clock benchmarks of the real primitive kernels (the Go code itself,
// independent of the virtual cycle model).

func benchSession(b *testing.B, o Options) *core.Session {
	b.Helper()
	return core.NewSession(NewDictionary(o), hw.Machine1(), core.WithVectorSize(1024))
}

// Branching vs no-branching selection at 1%, 50% and 99% selectivity:
// on the host CPU the two genuinely diverge with selectivity (the Figure 1
// effect, measured rather than modelled).

func BenchmarkKernelSelectBranching(b *testing.B)        { benchSelect(b, 0, 50) }
func BenchmarkKernelSelectBranchingSel1(b *testing.B)    { benchSelect(b, 0, 1) }
func BenchmarkKernelSelectBranchingSel99(b *testing.B)   { benchSelect(b, 0, 99) }
func BenchmarkKernelSelectNoBranching(b *testing.B)      { benchSelect(b, 1, 50) }
func BenchmarkKernelSelectNoBranchingSel1(b *testing.B)  { benchSelect(b, 1, 1) }
func BenchmarkKernelSelectNoBranchingSel99(b *testing.B) { benchSelect(b, 1, 99) }

// benchSelect times one selection flavor over values uniform in [0,100)
// against the threshold selPct, so selPct percent of the tuples qualify.
func benchSelect(b *testing.B, arm, selPct int) {
	s := benchSession(b, BranchSet())
	inst := s.Instance("select_<_sint_col_sint_val", "bench")
	fl := inst.Prim.Flavors[arm]
	rng := rand.New(rand.NewSource(1))
	n := 1024
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(rng.Intn(100))
	}
	out := make([]int32, n)
	c := &core.Call{N: n, In: []*vector.Vector{vector.FromI32(col), vector.ConstI32(int32(selPct))}, SelOut: out, Inst: inst}
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Fn(s.Ctx, c)
	}
}

func BenchmarkKernelMapMulDense(b *testing.B) {
	s := benchSession(b, Defaults())
	inst := s.Instance("map_*_slng_col_slng_col", "bench")
	fl := inst.Prim.Flavors[0]
	n := 1024
	x := vector.New(vector.I64, n)
	y := vector.New(vector.I64, n)
	res := vector.New(vector.I64, n)
	x.SetLen(n)
	y.SetLen(n)
	res.SetLen(n)
	c := &core.Call{N: n, In: []*vector.Vector{x, y}, Res: res, Inst: inst}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Fn(s.Ctx, c)
	}
}

func BenchmarkKernelBloomProbe(b *testing.B) { benchBloom(b, 0) }

func BenchmarkKernelBloomProbeFission(b *testing.B) { benchBloom(b, 1) }

func benchBloom(b *testing.B, arm int) {
	s := benchSession(b, FissionSet())
	inst := s.Instance("sel_bloomfilter_slng_col", "bench")
	fl := inst.Prim.Flavors[arm]
	f := bloom.New(1<<20, 2)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		f.Add(rng.Int63())
	}
	n := 1024
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	out := make([]int32, n)
	c := &core.Call{N: n, In: []*vector.Vector{vector.FromI64(keys)}, SelOut: out, Aux: f, Inst: inst}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Fn(s.Ctx, c)
	}
}

func BenchmarkKernelInsertCheck(b *testing.B) {
	s := benchSession(b, Defaults())
	inst := s.Instance("hash_insertcheck_slng_col", "bench")
	fl := inst.Prim.Flavors[0]
	tab := NewGroupTableI64(1024)
	n := 1024
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i % 256)
	}
	gids := vector.New(vector.I32, n)
	c := &core.Call{N: n, In: []*vector.Vector{vector.FromI64(keys)}, Res: gids, Aux: tab, Inst: inst}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Fn(s.Ctx, c)
	}
}

func BenchmarkKernelMergeJoin(b *testing.B) {
	s := benchSession(b, Defaults())
	inst := s.Instance("mergejoin_slng_col_slng_col", "bench")
	fl := inst.Prim.Flavors[0]
	n := 1 << 16
	lk := make([]int64, n)
	rk := make([]int64, n)
	for i := range lk {
		lk[i] = int64(i)
		rk[i] = int64(i)
	}
	b.SetBytes(int64(16 * 1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewMergeState(lk, rk)
		st.LOut = make([]int32, 1024)
		st.ROut = make([]int32, 1024)
		c := &core.Call{N: 1024, Aux: st, Inst: inst}
		fl.Fn(s.Ctx, c)
	}
}
