package engine

import (
	"math/rand"
	"sync"
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/expr"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/vector"
)

// benchTable builds a 64K-row two-column table.
func benchTable() *Table {
	n := 1 << 16
	rng := rand.New(rand.NewSource(3))
	a := make([]int32, n)
	v := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = int32(rng.Intn(1000))
		v[i] = int64(rng.Intn(100_000))
	}
	return NewTable("bench",
		vector.Schema{{Name: "a", Type: vector.I32}, {Name: "v", Type: vector.I64}},
		[]*vector.Vector{vector.FromI32(a), vector.FromI64(v)})
}

// The benchmarks build their dictionary once, outside the timed loop: a
// dictionary is process-wide state (tens of milliseconds to register), while
// a session — which every iteration needs afresh, its instances learn — is
// microseconds.
var (
	benchDictAll      = sync.OnceValue(func() *core.Dictionary { return primitive.NewDictionary(primitive.Everything()) })
	benchDictDefaults = sync.OnceValue(func() *core.Dictionary { return primitive.NewDictionary(primitive.Defaults()) })
	benchSink         *core.Session
)

func benchEngSession() *core.Session {
	return core.NewSession(benchDictAll(), hw.Machine1(), core.WithVectorSize(1024), core.WithSeed(4))
}

// BenchmarkSessionBuild measures the fixed cost every query pays before its
// first batch: one session at the service's configuration.
func BenchmarkSessionBuild(b *testing.B) {
	d, m := benchDictAll(), hw.Machine1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = core.NewSession(d, m, core.WithVectorSize(128), core.WithSeed(int64(i)))
	}
}

// BenchmarkPipelineScanSelectAggAdaptive measures end-to-end operator
// throughput with vw-greedy flavor selection active on every primitive.
func BenchmarkPipelineScanSelectAggAdaptive(b *testing.B) {
	tab := benchTable()
	b.SetBytes(int64(tab.Rows() * 12))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchEngSession()
		sel := NewSelect(s, NewScan(s, tab), "b", CmpVal(0, "<", 500))
		proj := NewProject(s, sel, "p",
			ProjExpr{Name: "x", Expr: expr.Mul(&expr.Col{Idx: 1}, &expr.ConstI64{V: 3})})
		agg := NewHashAgg(s, proj, "a", nil, Agg(AggSum, 0, "s"))
		if _, err := Materialize(agg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineHashJoin(b *testing.B) {
	tab := benchTable()
	build := NewTable("b",
		vector.Schema{{Name: "k", Type: vector.I32}, {Name: "p", Type: vector.I64}},
		[]*vector.Vector{
			vector.FromI32(seq(1000)),
			vector.FromI64(seq64(1000)),
		})
	b.SetBytes(int64(tab.Rows() * 12))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchEngSession()
		j := NewJoin(s, NewScan(s, build), NewScan(s, tab), "j", "k", "a",
			[]string{"p"}, WithBloom(8))
		if _, err := Materialize(j); err != nil {
			b.Fatal(err)
		}
	}
}

func seq(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func seq64(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i * 7)
	}
	return out
}

// BenchmarkHashJoinProbeNext isolates the per-batch probe path of HashJoin
// over a wide probe schema — the benchmark behind hoisting the
// Schema.MustIndexOf probe-key lookup (a linear name scan per Next batch)
// into Open.
func BenchmarkHashJoinProbeNext(b *testing.B) {
	n := 1 << 16
	cols := make([]*vector.Vector, 0, 17)
	sch := make(vector.Schema, 0, 17)
	for c := 0; c < 16; c++ {
		sch = append(sch, vector.Col{Name: "pad" + string(rune('a'+c)), Type: vector.I64})
		cols = append(cols, vector.FromI64(seq64(n)))
	}
	sch = append(sch, vector.Col{Name: "key", Type: vector.I32})
	cols = append(cols, vector.FromI32(seq(n)))
	probeTab := NewTable("probe", sch, cols)
	buildTab := NewTable("build",
		vector.Schema{{Name: "k", Type: vector.I32}},
		[]*vector.Vector{vector.FromI32(seq(1024))})
	b.SetBytes(int64(n * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewSession(benchDictDefaults(), hw.Machine1(), core.WithVectorSize(64), core.WithSeed(4))
		j := NewJoin(s, NewScan(s, buildTab), NewScan(s, probeTab), "j",
			"k", "key", nil, WithKind(SemiJoin))
		if err := j.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			batch, err := j.Next()
			if err != nil {
				b.Fatal(err)
			}
			if batch == nil {
				break
			}
		}
		j.Close()
	}
}

// BenchmarkMaterializeDrain measures the streaming materialization drain
// (live tuples gathered straight into growing columns, no per-batch vector
// allocation) on a selective pipeline — the path every query's result
// assembly and every join build side takes.
func BenchmarkMaterializeDrain(b *testing.B) {
	tab := benchTable()
	b.SetBytes(int64(tab.Rows() * 12))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewSession(benchDictDefaults(), hw.Machine1(), core.WithVectorSize(128), core.WithSeed(4))
		sel := NewSelect(s, NewScan(s, tab), "b", CmpVal(0, "<", 500))
		if _, err := Materialize(sel); err != nil {
			b.Fatal(err)
		}
	}
}
