package plan

import (
	"fmt"
	"sync"
	"testing"

	"microadapt/internal/engine"
	"microadapt/internal/vector"
)

// fragTable builds an n-row table with I32/I64/F64/Str columns so every
// merge path (narrow ints, floats, strings) is exercised.
func fragTable(n int) *engine.Table {
	k := make([]int32, n)
	v := make([]int64, n)
	f := make([]float64, n)
	tag := make([]string, n)
	names := []string{"red", "green", "blue"}
	for i := 0; i < n; i++ {
		k[i] = int32(i)
		v[i] = int64((i*7)%23 - 11)
		f[i] = float64(i%13)*0.75 - 4
		tag[i] = names[i%3]
	}
	return engine.NewTable("t", vector.Schema{
		{Name: "k", Type: vector.I32},
		{Name: "v", Type: vector.I64},
		{Name: "f", Type: vector.F64},
		{Name: "tag", Type: vector.Str},
	}, []*vector.Vector{vector.FromI32(k), vector.FromI64(v), vector.FromF64(f), vector.FromStr(tag)})
}

// runDistributed is an in-process mini-coordinator: it derives the plan's
// fragment sites, runs each fragment over every contiguous row-range
// slice of its base table (through the JSON wire form, as a shard
// would), merges the partials, presets them, and runs the residual.
func runDistributed(t *testing.T, b *Builder, shards int, base *engine.Table) *engine.Table {
	t.Helper()
	sites := FragmentSites(b)
	if len(sites) == 0 {
		t.Fatal("no fragment sites derived")
	}
	ex := b.Bind(testSession(1))
	for _, site := range sites {
		wire, err := MarshalPlan(site.Fragment)
		if err != nil {
			t.Fatalf("marshal fragment: %v", err)
		}
		parts := make([]*engine.Table, shards)
		for i := 0; i < shards; i++ {
			lo, hi := base.Rows()*i/shards, base.Rows()*(i+1)/shards
			slice := base.Slice(lo, hi)
			fb, err := UnmarshalPlan(wire, func(name string) (*engine.Table, bool) {
				if name != base.Name {
					return nil, false
				}
				return slice, true
			})
			if err != nil {
				t.Fatalf("unmarshal fragment on shard %d: %v", i, err)
			}
			parts[i], err = fb.Bind(testSession(1)).Run(fb.MainRoot())
			if err != nil {
				t.Fatalf("shard %d fragment: %v", i, err)
			}
		}
		m, err := site.MergePartials(parts)
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		if err := ex.Preset(site.Node, m); err != nil {
			t.Fatalf("preset: %v", err)
		}
	}
	tab, err := ex.Run(b.MainRoot())
	if err != nil {
		t.Fatalf("residual run: %v", err)
	}
	return tab
}

func mustRun(t *testing.T, b *Builder) *engine.Table {
	t.Helper()
	tab, err := b.Bind(testSession(1)).Run(b.MainRoot())
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func requireIdentical(t *testing.T, got, want *engine.Table, label string) {
	t.Helper()
	g, w := engine.TableString(got, 0), engine.TableString(want, 0)
	if g != w || got.Rows() != want.Rows() {
		t.Errorf("%s: distributed result differs\n got (%d rows):\n%s\nwant (%d rows):\n%s",
			label, got.Rows(), g, want.Rows(), w)
	}
}

// TestPartialAggMergeIdentity: every decomposable aggregate — count,
// int sum, int avg (split into sum+count), min/max, grouped first — merges
// bit-identically across shard counts, including splits that leave some
// shards empty.
func TestPartialAggMergeIdentity(t *testing.T) {
	cases := []struct {
		name string
		rows int
		plan func(tab *engine.Table) *Builder
	}{
		{"grouped-all-fns", 97, func(tab *engine.Table) *Builder {
			b := New("G")
			n := b.Scan(tab, "k", "v", "f", "tag").
				Select(CmpVal(0, ">", 3)).
				Agg([]int{3},
					engine.Agg(engine.AggCount, -1, "n"),
					engine.Agg(engine.AggSum, 1, "sv"),
					engine.Agg(engine.AggAvg, 1, "av"),
					engine.Agg(engine.AggMin, 1, "mn"),
					engine.Agg(engine.AggMax, 2, "mx"),
					engine.Agg(engine.AggFirst, 0, "fk"))
			b.Root(n)
			return b
		}},
		{"global-int-aggs", 64, func(tab *engine.Table) *Builder {
			b := New("GL")
			n := b.Scan(tab, "k", "v").
				Agg(nil,
					engine.Agg(engine.AggCount, -1, "n"),
					engine.Agg(engine.AggSum, 1, "sv"),
					engine.Agg(engine.AggAvg, 1, "av"),
					engine.Agg(engine.AggMin, 1, "mn"),
					engine.Agg(engine.AggMax, 1, "mx"))
			b.Root(n)
			return b
		}},
		{"avg-zero-count-groups", 9, func(tab *engine.Table) *Builder {
			b := New("Z")
			n := b.Scan(tab, "v", "tag").
				Select(CmpVal(0, ">", 1000)). // selects nothing: empty input
				Agg(nil,
					engine.Agg(engine.AggCount, -1, "n"),
					engine.Agg(engine.AggAvg, 0, "av"))
			b.Root(n)
			return b
		}},
		{"count-distinct-two-level", 81, func(tab *engine.Table) *Builder {
			// Distributed count-distinct: the inner group-by (tag, k) is
			// the pushed-down partial; the outer count per tag runs on the
			// coordinator over the merged distinct pairs.
			b := New("CD")
			inner := b.Scan(tab, "tag", "k").Agg([]int{0, 1},
				engine.Agg(engine.AggCount, -1, "dup"))
			outer := inner.Agg([]int{0}, engine.Agg(engine.AggCount, -1, "distinct_k"))
			b.Root(outer)
			return b
		}},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2, 3, 5, 16} {
			t.Run(fmt.Sprintf("%s/N=%d", tc.name, shards), func(t *testing.T) {
				tab := fragTable(tc.rows)
				want := mustRun(t, tc.plan(tab))
				got := runDistributed(t, tc.plan(tab), shards, tab)
				requireIdentical(t, got, want, tc.name)
			})
		}
	}
}

// TestConcatMergeIdentity: plain select/project chains merge by ordered
// concatenation and reproduce global row order.
func TestConcatMergeIdentity(t *testing.T) {
	mkPlan := func(tab *engine.Table) *Builder {
		b := New("C")
		n := b.Scan(tab, "k", "v", "f", "tag").Select(CmpVal(1, ">", 0))
		b.Root(n)
		return b
	}
	tab := fragTable(103)
	want := mustRun(t, mkPlan(tab))
	for _, shards := range []int{1, 2, 4, 7} {
		got := runDistributed(t, mkPlan(tab), shards, tab)
		requireIdentical(t, got, want, fmt.Sprintf("concat N=%d", shards))
	}
}

// TestAggPushdownGates: aggregates whose partials do not merge exactly
// must stay on the coordinator (site merges by concat, not partial agg).
func TestAggPushdownGates(t *testing.T) {
	tab := fragTable(30)
	cases := []struct {
		name string
		aggs []engine.AggSpec
		grp  []int
		want MergeKind
	}{
		{"float-sum-held-back", []engine.AggSpec{engine.Agg(engine.AggSum, 2, "sf")}, []int{3}, MergeConcat},
		{"float-avg-held-back", []engine.AggSpec{engine.Agg(engine.AggAvg, 2, "af")}, []int{3}, MergeConcat},
		{"global-float-min-held-back", []engine.AggSpec{engine.Agg(engine.AggMin, 2, "mf")}, nil, MergeConcat},
		{"grouped-float-min-pushed", []engine.AggSpec{engine.Agg(engine.AggMin, 2, "mf")}, []int{3}, MergePartialAgg},
		{"global-first-held-back", []engine.AggSpec{engine.Agg(engine.AggFirst, 0, "fk")}, nil, MergeConcat},
		{"int-sum-pushed", []engine.AggSpec{engine.Agg(engine.AggSum, 1, "sv")}, nil, MergePartialAgg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := New("G8")
			n := b.Scan(tab, "k", "v", "f", "tag").Agg(tc.grp, tc.aggs...)
			b.Root(n)
			sites := FragmentSites(b)
			if len(sites) != 1 {
				t.Fatalf("%d sites, want 1", len(sites))
			}
			if sites[0].Merge() != tc.want {
				t.Errorf("merge kind %v, want %v", sites[0].Merge(), tc.want)
			}
			// Whatever the gate decided, the distributed result must match.
			mk := func(tab *engine.Table) *Builder {
				b := New("G8")
				n := b.Scan(tab, "k", "v", "f", "tag").Agg(tc.grp, tc.aggs...)
				b.Root(n)
				return b
			}
			want := mustRun(t, mk(tab))
			got := runDistributed(t, mk(tab), 3, tab)
			requireIdentical(t, got, want, tc.name)
		})
	}
}

// TestFragmentLabelsRoundTrip: fragment plans carry the original plan's
// node labels through the JSON wire form, so shard-side primitive
// instances key into the FlavorCache under single-process plan positions.
func TestFragmentLabelsRoundTrip(t *testing.T) {
	tab := fragTable(20)
	b := New("Q1")
	n := b.Scan(tab, "k", "v", "tag").
		Select(CmpVal(0, "<", 15)).
		Agg([]int{2}, engine.Agg(engine.AggSum, 1, "sv"))
	b.Root(n)
	sites := FragmentSites(b)
	if len(sites) != 1 {
		t.Fatalf("%d sites, want 1", len(sites))
	}
	wire, err := MarshalPlan(sites[0].Fragment)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := UnmarshalPlan(wire, func(string) (*engine.Table, bool) { return tab, true })
	if err != nil {
		t.Fatal(err)
	}
	orig := sites[0].Fragment.Nodes()
	decoded := fb.Nodes()
	if len(orig) != len(decoded) {
		t.Fatalf("node count changed over the wire: %d vs %d", len(orig), len(decoded))
	}
	for i := range orig {
		if orig[i].Label() != decoded[i].Label() {
			t.Errorf("node %d label %q decoded as %q", i, orig[i].Label(), decoded[i].Label())
		}
	}
	// And the fragment labels are the original plan's labels, not fresh
	// fragment-local ones.
	if got, want := orig[len(orig)-1].Label(), n.Label(); got != want {
		t.Errorf("fragment agg label %q, want original %q", got, want)
	}
}

// TestPresetValidation: preset rejects foreign nodes and wrong schemas.
func TestPresetValidation(t *testing.T) {
	tab := fragTable(10)
	b := New("P")
	n := b.Scan(tab, "k", "v")
	b.Root(n)
	ex := b.Bind(testSession(1))

	other := New("O")
	on := other.Scan(tab, "k")
	other.Root(on)
	if err := ex.Preset(on, tab); err == nil {
		t.Error("preset of a foreign plan's node did not error")
	}
	if err := ex.Preset(n, fragTable(5)); err == nil {
		t.Error("preset with mismatched schema did not error")
	}
	good := engine.NewTable("p", n.Schema(), []*vector.Vector{
		vector.FromI32([]int32{7}), vector.FromI64([]int64{9}),
	})
	if err := ex.Preset(n, good); err != nil {
		t.Fatalf("valid preset rejected: %v", err)
	}
	out, err := ex.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 1 || out.Cols[0].GetI64(0) != 7 {
		t.Errorf("run did not use preset table: %d rows", out.Rows())
	}
}

// chunked splits a partial table into row chunks of at most sz rows.
func chunked(p *engine.Table, sz int) []*engine.Table {
	var out []*engine.Table
	for lo := 0; lo < p.Rows(); lo += sz {
		hi := lo + sz
		if hi > p.Rows() {
			hi = p.Rows()
		}
		out = append(out, p.Slice(lo, hi))
	}
	if len(out) == 0 {
		out = append(out, p) // keep the zero-row partial visible
	}
	return out
}

// sitePartials runs a plan's single fragment site over every contiguous
// row-range of the base table and returns the site with its per-shard
// partials.
func sitePartials(t *testing.T, b *Builder, shards int, base *engine.Table) (*FragmentSite, []*engine.Table) {
	t.Helper()
	sites := FragmentSites(b)
	if len(sites) != 1 {
		t.Fatalf("%d sites, want 1", len(sites))
	}
	site := sites[0]
	parts := make([]*engine.Table, shards)
	for i := 0; i < shards; i++ {
		lo, hi := base.Rows()*i/shards, base.Rows()*(i+1)/shards
		slice := base.Slice(lo, hi)
		fb, err := UnmarshalPlan(mustMarshal(t, site.Fragment), func(name string) (*engine.Table, bool) {
			return slice, name == base.Name
		})
		if err != nil {
			t.Fatal(err)
		}
		parts[i], err = fb.Bind(testSession(1)).Run(fb.MainRoot())
		if err != nil {
			t.Fatal(err)
		}
	}
	return site, parts
}

func mustMarshal(t *testing.T, b *Builder) []byte {
	t.Helper()
	wire, err := MarshalPlan(b)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func accPlans() map[string]func(tab *engine.Table) *Builder {
	return map[string]func(tab *engine.Table) *Builder{
		"concat": func(tab *engine.Table) *Builder {
			b := New("C")
			b.Root(b.Scan(tab, "k", "v", "f", "tag").Select(CmpVal(1, ">", 0)))
			return b
		},
		"partial-agg": func(tab *engine.Table) *Builder {
			b := New("A")
			b.Root(b.Scan(tab, "k", "v", "f", "tag").Agg([]int{3},
				engine.Agg(engine.AggCount, -1, "n"),
				engine.Agg(engine.AggSum, 1, "sv"),
				engine.Agg(engine.AggAvg, 1, "av"),
				engine.Agg(engine.AggMin, 1, "mn"),
				engine.Agg(engine.AggMax, 1, "mx"),
				engine.Agg(engine.AggFirst, 0, "fk")))
			return b
		},
	}
}

// TestAccumulatorChunkedMatchesWhole: feeding row chunks incrementally —
// shards interleaved, finish order reversed — produces the exact table the
// whole-partial MergePartials path produces, for both merge kinds.
func TestAccumulatorChunkedMatchesWhole(t *testing.T) {
	tab := fragTable(97)
	for name, mk := range accPlans() {
		t.Run(name, func(t *testing.T) {
			site, parts := sitePartials(t, mk(tab), 4, tab)
			want, err := site.MergePartials(parts)
			if err != nil {
				t.Fatal(err)
			}
			acc := site.NewAccumulator(len(parts))
			chunks := make([][]*engine.Table, len(parts))
			for i, p := range parts {
				chunks[i] = chunked(p, 5)
			}
			// Round-robin chunk delivery across shards, then finish shards
			// in reverse order: the frontier must still fold in shard order.
			for ci := 0; ; ci++ {
				any := false
				for si := range chunks {
					if ci < len(chunks[si]) {
						any = true
						if err := acc.AddChunk(si, chunks[si][ci]); err != nil {
							t.Fatal(err)
						}
					}
				}
				if !any {
					break
				}
			}
			if _, err := acc.Result(); err == nil {
				t.Fatal("Result before FinishShard did not error")
			}
			for si := len(parts) - 1; si >= 0; si-- {
				if err := acc.FinishShard(si); err != nil {
					t.Fatal(err)
				}
			}
			got, err := acc.Result()
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, got, want, name)
		})
	}
}

// TestAccumulatorFinishedShard: whole-partial delivery, one chunk per
// shard, merges identically, and a finished shard refuses further chunks
// and a second FinishShard.
func TestAccumulatorFinishedShard(t *testing.T) {
	tab := fragTable(61)
	for name, mk := range accPlans() {
		t.Run(name, func(t *testing.T) {
			site, parts := sitePartials(t, mk(tab), 3, tab)
			want, err := site.MergePartials(parts)
			if err != nil {
				t.Fatal(err)
			}
			acc := site.NewAccumulator(len(parts))
			for si, p := range parts {
				if err := acc.AddChunk(si, p); err != nil {
					t.Fatal(err)
				}
				if err := acc.FinishShard(si); err != nil {
					t.Fatal(err)
				}
			}
			got, err := acc.Result()
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, got, want, name)

			if err := acc.AddChunk(1, parts[1]); err == nil {
				t.Error("AddChunk after FinishShard did not error")
			}
			if err := acc.FinishShard(1); err == nil {
				t.Error("double FinishShard did not error")
			}
		})
	}
}

// TestAccumulatorConcurrent: one goroutine per shard streaming chunks and
// finishing, merged result identical to the sequential whole-table path.
// This is the race coverage for the coordinator's concurrent-site merge.
func TestAccumulatorConcurrent(t *testing.T) {
	tab := fragTable(128)
	for name, mk := range accPlans() {
		t.Run(name, func(t *testing.T) {
			site, parts := sitePartials(t, mk(tab), 8, tab)
			want, err := site.MergePartials(parts)
			if err != nil {
				t.Fatal(err)
			}
			acc := site.NewAccumulator(len(parts))
			var wg sync.WaitGroup
			errs := make([]error, len(parts))
			for si, p := range parts {
				wg.Add(1)
				go func(si int, p *engine.Table) {
					defer wg.Done()
					for _, c := range chunked(p, 3) {
						if err := acc.AddChunk(si, c); err != nil {
							errs[si] = err
							return
						}
					}
					errs[si] = acc.FinishShard(si)
				}(si, p)
			}
			wg.Wait()
			for si, err := range errs {
				if err != nil {
					t.Fatalf("shard %d: %v", si, err)
				}
			}
			got, err := acc.Result()
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, got, want, name)
		})
	}
}

// TestAccumulatorRejectsBadChunks: schema mismatches and out-of-range
// shard ids fail loudly instead of corrupting the merge.
func TestAccumulatorRejectsBadChunks(t *testing.T) {
	tab := fragTable(20)
	mk := accPlans()["concat"]
	site, parts := sitePartials(t, mk(tab), 2, tab)
	acc := site.NewAccumulator(len(parts))
	if err := acc.AddChunk(0, fragTable(3).Project("k", "v")); err == nil {
		t.Error("schema-mismatched chunk accepted")
	}
	if err := acc.AddChunk(5, parts[0]); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := acc.FinishShard(-1); err == nil {
		t.Error("out-of-range FinishShard accepted")
	}
}

// TestPartialAggMergeCompositeKeyNoCollision: two shards each hold one
// tuple whose string key columns would join to the same bytes around a
// NUL; the merge keeps them two groups, as a single process does.
func TestPartialAggMergeCompositeKeyNoCollision(t *testing.T) {
	tab := engine.NewTable("nul", vector.Schema{
		{Name: "a", Type: vector.Str},
		{Name: "b", Type: vector.Str},
		{Name: "v", Type: vector.I64},
	}, []*vector.Vector{
		vector.FromStr([]string{"a\x00b", "a"}),
		vector.FromStr([]string{"c", "b\x00c"}),
		vector.FromI64([]int64{1, 2}),
	})
	mkPlan := func() *Builder {
		b := New("N")
		b.Root(b.Scan(tab, "a", "b", "v").Agg([]int{0, 1},
			engine.Agg(engine.AggCount, -1, "n"),
			engine.Agg(engine.AggSum, 2, "sv")))
		return b
	}
	site, parts := sitePartials(t, mkPlan(), 2, tab)
	if parts[0].Rows() != 1 || parts[1].Rows() != 1 {
		t.Fatalf("partials hold %d and %d groups, want one each", parts[0].Rows(), parts[1].Rows())
	}
	got, err := site.MergePartials(parts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 2 {
		t.Fatalf("merged groups = %d, want 2:\n%s", got.Rows(), engine.TableString(got, 0))
	}
	requireIdentical(t, got, mustRun(t, mkPlan()), "nul-keys")
}
