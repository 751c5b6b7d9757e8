package primitive

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"microadapt/internal/bloom"
	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/vector"
)

func testSetup(t testing.TB, o Options) (*core.Session, *core.ExecCtx) {
	t.Helper()
	d := NewDictionary(o)
	s := core.NewSession(d, hw.Machine1(), core.WithVectorSize(64), core.WithSeed(3))
	return s, s.Ctx
}

// runSel invokes one selection flavor and returns the selected positions.
func runSel(s *core.Session, sig string, arm int, label string, c *core.Call) []int32 {
	inst := s.Instance(sig, label)
	c.Inst = inst
	k, cycles := inst.Prim.Flavors[arm].Fn(s.Ctx, c)
	if cycles <= 0 {
		panic("non-positive cycle cost")
	}
	return c.SelOut[:k]
}

func TestRegistrationCounts(t *testing.T) {
	d := NewDictionary(Defaults())
	for _, sig := range d.Sigs() {
		if n := d.NumFlavors(sig); n != 1 {
			t.Errorf("%s: defaults registered %d flavors, want 1", sig, n)
		}
	}
	dAll := NewDictionary(Everything())
	// Selection comparisons: 2 branch x 3 compilers x 2 unroll = 12.
	if n := dAll.NumFlavors("select_<_sint_col_sint_val"); n != 12 {
		t.Errorf("selection flavors = %d, want 12", n)
	}
	// Maps: 2 compute x 3 compilers x 2 unroll = 12.
	if n := dAll.NumFlavors("map_*_slng_col_slng_col"); n != 12 {
		t.Errorf("map flavors = %d, want 12", n)
	}
	// Bloom: 2 fission x 3 compilers = 6.
	if n := dAll.NumFlavors("sel_bloomfilter_slng_col"); n != 6 {
		t.Errorf("bloom flavors = %d, want 6", n)
	}
	if len(dAll.Sigs()) < 120 {
		t.Errorf("signatures = %d, want a full library (>120)", len(dAll.Sigs()))
	}
}

func TestFlavorSetAxes(t *testing.T) {
	cases := []struct {
		o    Options
		sig  string
		want int
	}{
		{BranchSet(), "select_>=_sint_col_sint_val", 2},
		{CompilerSet(), "select_>=_sint_col_sint_val", 3},
		{UnrollSet(), "select_>=_sint_col_sint_val", 2},
		{ComputeSet(), "map_+_dbl_col_dbl_val", 2},
		{FissionSet(), "sel_bloomfilter_slng_col", 2},
		{BranchSet(), "map_+_dbl_col_dbl_val", 1}, // branch axis does not touch maps
		{ComputeSet(), "select_>=_sint_col_sint_val", 1},
	}
	for _, c := range cases {
		d := NewDictionary(c.o)
		if n := d.NumFlavors(c.sig); n != c.want {
			t.Errorf("%s: flavors = %d, want %d", c.sig, n, c.want)
		}
	}
}

// TestSelectionFlavorEquivalence: every flavor of every comparison op must
// select exactly the same positions (the defining property of flavors).
func TestSelectionFlavorEquivalence(t *testing.T) {
	s, _ := testSetup(t, Everything())
	rng := rand.New(rand.NewSource(9))
	n := 64
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(rng.Intn(8))
	}
	colV := vector.FromI32(col)
	val := vector.ConstI32(4)
	for _, op := range selOps {
		sig := SelSig(op, vector.I32, false)
		prim := s.Dict.MustLookup(sig)
		var want []int32
		for arm := range prim.Flavors {
			out := make([]int32, n)
			c := &core.Call{N: n, In: []*vector.Vector{colV, val}, SelOut: out}
			got := runSel(s, sig, arm, fmt.Sprintf("%s/a%d", sig, arm), c)
			if arm == 0 {
				want = append([]int32(nil), got...)
				continue
			}
			if !equalSel(got, want) {
				t.Errorf("%s flavor %s disagrees", sig, prim.Flavors[arm].Name)
			}
		}
		if len(want) == 0 || len(want) == n {
			t.Errorf("%s: degenerate test selectivity %d/%d", sig, len(want), n)
		}
	}
}

func equalSel(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSelectionUnderInputSel: selection primitives compose selection
// vectors correctly (positions stay in original coordinates).
func TestSelectionUnderInputSel(t *testing.T) {
	s, _ := testSetup(t, BranchSet())
	col := vector.FromI32([]int32{5, 15, 25, 35, 45, 55})
	val := vector.ConstI32(30)
	inSel := []int32{1, 3, 5} // only 15, 35, 55 are live
	for arm := 0; arm < 2; arm++ {
		out := make([]int32, 6)
		c := &core.Call{N: 6, Sel: inSel, In: []*vector.Vector{col, val}, SelOut: out}
		got := runSel(s, "select_>_sint_col_sint_val", arm, fmt.Sprintf("sub/a%d", arm), c)
		if !equalSel(got, []int32{3, 5}) {
			t.Errorf("arm %d: got %v, want [3 5]", arm, got)
		}
	}
}

// TestSelectionProperty: branching and no-branching agree on random data
// and both match a straightforward reference.
func TestSelectionProperty(t *testing.T) {
	s, _ := testSetup(t, BranchSet())
	idx := 0
	f := func(vals []int32, threshold int32) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		n := len(vals)
		colV := vector.FromI32(vals)
		valV := vector.ConstI32(threshold)
		var ref []int32
		for i, v := range vals {
			if v < threshold {
				ref = append(ref, int32(i))
			}
		}
		idx++
		for arm := 0; arm < 2; arm++ {
			out := make([]int32, n)
			c := &core.Call{N: n, In: []*vector.Vector{colV, valV}, SelOut: out}
			got := runSel(s, "select_<_sint_col_sint_val", arm, fmt.Sprintf("prop/%d/%d", idx, arm), c)
			if len(got) != len(ref) {
				return false
			}
			for i := range got {
				if got[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMapFlavorEquivalence: selective and full computation produce the
// same values at live positions, across compilers and unrolling.
func TestMapFlavorEquivalence(t *testing.T) {
	s, ctx := testSetup(t, Everything())
	n := 32
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = int64(i * 3)
		b[i] = int64(i + 7)
	}
	sel := []int32{0, 3, 9, 31}
	for _, op := range mapOps {
		sig := MapSig(op, vector.I64, "col_col")
		prim := s.Dict.MustLookup(sig)
		var want []int64
		for arm, fl := range prim.Flavors {
			res := vector.New(vector.I64, n)
			res.SetLen(n)
			c := &core.Call{N: n, Sel: sel, In: []*vector.Vector{vector.FromI64(a), vector.FromI64(b)}, Res: res,
				Inst: s.Instance(sig, fmt.Sprintf("%s/%d", sig, arm))}
			_, cyc := fl.Fn(ctx, c)
			if cyc <= 0 {
				t.Fatalf("%s: non-positive cost", sig)
			}
			vals := make([]int64, len(sel))
			for j, i := range sel {
				vals[j] = res.I64()[i]
			}
			if arm == 0 {
				want = vals
				continue
			}
			for j := range vals {
				if vals[j] != want[j] {
					t.Errorf("%s flavor %s disagrees at live position %d", sig, fl.Name, sel[j])
				}
			}
		}
	}
}

func TestMapShapesAndDivByZero(t *testing.T) {
	s, ctx := testSetup(t, Defaults())
	n := 4
	col := vector.FromI64([]int64{10, 20, 0, 40})
	val := vector.ConstI64(0)
	res := vector.New(vector.I64, n)
	res.SetLen(n)
	sig := MapSig("/", vector.I64, "col_val")
	inst := s.Instance(sig, "div")
	c := &core.Call{N: n, In: []*vector.Vector{col, val}, Res: res, Inst: inst}
	inst.Prim.Flavors[0].Fn(ctx, c)
	for i := 0; i < n; i++ {
		if res.I64()[i] != 0 {
			t.Error("division by zero must yield 0")
		}
	}
	// val_col shape: 100 - col.
	sig2 := MapSig("-", vector.I64, "val_col")
	inst2 := s.Instance(sig2, "sub")
	c2 := &core.Call{N: n, In: []*vector.Vector{vector.ConstI64(100), col}, Res: res, Inst: inst2}
	inst2.Prim.Flavors[0].Fn(ctx, c2)
	if res.I64()[0] != 90 || res.I64()[3] != 60 {
		t.Errorf("val_col shape wrong: %v", res.I64()[:n])
	}
}

func TestFetchGather(t *testing.T) {
	s, ctx := testSetup(t, Defaults())
	src := vector.FromStr([]string{"zero", "one", "two", "three", "four"})
	idx := vector.FromI32([]int32{4, 0, 2})
	res := vector.New(vector.Str, 3)
	res.SetLen(3)
	sig := FetchSig(vector.Str)
	inst := s.Instance(sig, "fetch")
	c := &core.Call{N: 3, In: []*vector.Vector{idx, src}, Res: res, Inst: inst}
	inst.Prim.Flavors[0].Fn(ctx, c)
	want := []string{"four", "zero", "two"}
	for i, w := range want {
		if res.Str()[i] != w {
			t.Errorf("fetch[%d] = %q, want %q", i, res.Str()[i], w)
		}
	}
}

func TestAggrKinds(t *testing.T) {
	s, ctx := testSetup(t, Defaults())
	vals := vector.FromI64([]int64{5, -2, 9, 5})
	gids := vector.FromI32([]int32{0, 1, 0, 1})
	check := func(sig string, acc *AccI64, want0, want1 int64) {
		inst := s.Instance(sig, sig+"/t")
		c := &core.Call{N: 4, In: []*vector.Vector{vals, gids}, Aux: acc, Inst: inst}
		inst.Prim.Flavors[0].Fn(ctx, c)
		if acc.Acc[0] != want0 || acc.Acc[1] != want1 {
			t.Errorf("%s = %v, want [%d %d]", sig, acc.Acc, want0, want1)
		}
	}
	sum := &AccI64{}
	sum.Grow(2, 0)
	check("aggr_sum_slng_col", sum, 14, 3)
	cnt := &AccI64{}
	cnt.Grow(2, 0)
	check("aggr_count_col", cnt, 2, 2)
	mn := &AccI64{}
	mn.Grow(2, 1<<62)
	check("aggr_min_slng_col", mn, 5, -2)
	mx := &AccI64{}
	mx.Grow(2, -(1 << 62))
	check("aggr_max_slng_col", mx, 9, 5)
}

func TestAggrF64AndGlobal(t *testing.T) {
	s, ctx := testSetup(t, Defaults())
	vals := vector.FromF64([]float64{1.5, 2.5, -1})
	acc := &AccF64{}
	acc.Grow(1, 0)
	inst := s.Instance("aggr_sum_dbl_col", "f64sum")
	c := &core.Call{N: 3, In: []*vector.Vector{vals, nil}, Aux: acc, Inst: inst}
	inst.Prim.Flavors[0].Fn(ctx, c)
	if acc.Acc[0] != 3 {
		t.Errorf("global f64 sum = %v, want 3", acc.Acc[0])
	}
}

func TestGroupTables(t *testing.T) {
	ti := NewGroupTableI64(4)
	keys := []int64{7, 7, -1, 42, 7, -1}
	var gids []int32
	for _, k := range keys {
		gids = append(gids, ti.InsertCheck(k))
	}
	if ti.Groups() != 3 {
		t.Fatalf("groups = %d, want 3", ti.Groups())
	}
	if gids[0] != gids[1] || gids[0] != gids[4] || gids[2] != gids[5] || gids[0] == gids[2] {
		t.Errorf("gids = %v", gids)
	}
	if ti.Key(gids[3]) != 42 {
		t.Error("key recovery wrong")
	}
	// Growth: many keys force rehash.
	for i := int64(0); i < 1000; i++ {
		ti.InsertCheck(i * 13)
	}
	if ti.Groups() < 1000 {
		t.Errorf("groups after growth = %d", ti.Groups())
	}
	if ti.InsertCheck(7) != gids[0] {
		t.Error("rehash lost a key")
	}
	if ti.ByteSize() <= 0 {
		t.Error("byte size must be positive")
	}

	ts := NewGroupTableStr(4)
	a := ts.InsertCheck("x")
	b := ts.InsertCheck("y")
	if ts.InsertCheck("x") != a || a == b || ts.Groups() != 2 {
		t.Error("string table wrong")
	}
	if ts.Key(b) != "y" {
		t.Error("string key recovery wrong")
	}
	for i := 0; i < 500; i++ {
		ts.InsertCheck(fmt.Sprintf("key-%d", i))
	}
	if ts.InsertCheck("x") != a {
		t.Error("string rehash lost a key")
	}
}

func TestGroupTableProperty(t *testing.T) {
	f := func(keys []int64) bool {
		tab := NewGroupTableI64(2)
		ref := map[int64]int32{}
		for _, k := range keys {
			gid := tab.InsertCheck(k)
			if want, ok := ref[k]; ok {
				if gid != want {
					return false
				}
			} else {
				if int(gid) != len(ref) {
					return false // ids must be dense in first-seen order
				}
				ref[k] = gid
			}
		}
		return tab.Groups() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJoinTable(t *testing.T) {
	keys := []int64{10, 20, 10, 30}
	jt := NewJoinTable(keys)
	if jt.Entries() != 4 {
		t.Fatalf("entries = %d", jt.Entries())
	}
	if jt.Lookup(30) != 3 || jt.Lookup(99) != -1 {
		t.Error("lookup wrong")
	}
	rows := jt.LookupAll(10, nil)
	if len(rows) != 2 {
		t.Fatalf("duplicate key rows = %v", rows)
	}
	if (rows[0] == 0) == (rows[1] == 0) {
		t.Errorf("rows = %v, want {0,2}", rows)
	}
	if jt.ByteSize() <= 0 {
		t.Error("byte size must be positive")
	}
}

func TestBloomProbeFlavorEquivalence(t *testing.T) {
	s, ctx := testSetup(t, FissionSet())
	f := bloom.New(4096, 2)
	for i := int64(0); i < 100; i += 2 {
		f.Add(i)
	}
	n := 64
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	prim := s.Dict.MustLookup("sel_bloomfilter_slng_col")
	var want []int32
	for arm, fl := range prim.Flavors {
		out := make([]int32, n)
		c := &core.Call{N: n, In: []*vector.Vector{vector.FromI64(keys)}, SelOut: out, Aux: f,
			Inst: s.Instance("sel_bloomfilter_slng_col", fmt.Sprintf("bp/%d", arm))}
		k, _ := fl.Fn(ctx, c)
		got := out[:k]
		if arm == 0 {
			want = append([]int32(nil), got...)
			continue
		}
		if !equalSel(got, want) {
			t.Errorf("bloom flavor %s disagrees", fl.Name)
		}
	}
	// All 32 even keys in [0,64) were inserted and must survive (no false
	// negatives).
	even := 0
	for _, p := range want {
		if p%2 == 0 {
			even++
		}
	}
	if even != 32 {
		t.Errorf("survivors include %d true positives, want 32", even)
	}
}

func TestBloomFissionCostModel(t *testing.T) {
	s, ctx := testSetup(t, FissionSet())
	m := ctx.Machine
	prim := s.Dict.MustLookup("sel_bloomfilter_slng_col")
	cost := func(arm int, filterBytes int) float64 {
		f := bloom.New(filterBytes, 2)
		n := 64
		keys := make([]int64, n)
		out := make([]int32, n)
		c := &core.Call{N: n, In: []*vector.Vector{vector.FromI64(keys)}, SelOut: out, Aux: f,
			Inst: s.Instance("sel_bloomfilter_slng_col", fmt.Sprintf("cm/%d/%d", arm, filterBytes))}
		_, cyc := prim.Flavors[arm].Fn(ctx, c)
		return cyc
	}
	small := m.BloomEffCache / 4
	big := m.BloomEffCache * 64
	if cost(1, small) <= cost(0, small) {
		t.Error("fission must be slower on cache-resident filters")
	}
	if cost(1, big) >= cost(0, big) {
		t.Error("fission must win on memory-resident filters")
	}
}

func TestMergeJoinKernel(t *testing.T) {
	s, ctx := testSetup(t, Defaults())
	st := NewMergeState(
		[]int64{1, 2, 2, 5},
		[]int64{2, 2, 3, 5, 5},
	)
	st.LOut = make([]int32, 3) // force multiple calls via tiny capacity
	st.ROut = make([]int32, 3)
	inst := s.Instance("mergejoin_slng_col_slng_col", "mj")
	type pair struct{ l, r int32 }
	var got []pair
	for !st.Done() {
		c := &core.Call{N: 3, Aux: st, Inst: inst}
		k, cyc := inst.Prim.Flavors[0].Fn(ctx, c)
		if cyc <= 0 {
			t.Fatal("non-positive cost")
		}
		for i := 0; i < k; i++ {
			got = append(got, pair{st.LOut[i], st.ROut[i]})
		}
	}
	want := []pair{{1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 3}, {3, 4}}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMergeJoinKernelProperty(t *testing.T) {
	s, ctx := testSetup(t, Defaults())
	idx := 0
	f := func(lraw, rraw []uint8) bool {
		lk := sortedKeys(lraw)
		rk := sortedKeys(rraw)
		want := 0
		counts := map[int64]int{}
		for _, k := range rk {
			counts[k]++
		}
		for _, k := range lk {
			want += counts[k]
		}
		st := NewMergeState(lk, rk)
		st.LOut = make([]int32, 7)
		st.ROut = make([]int32, 7)
		idx++
		inst := s.Instance("mergejoin_slng_col_slng_col", fmt.Sprintf("mjp/%d", idx))
		got := 0
		for !st.Done() {
			c := &core.Call{N: 7, Aux: st, Inst: inst}
			k, _ := inst.Prim.Flavors[0].Fn(ctx, c)
			got += k
			if k == 0 && !st.Done() {
				return false // no progress
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sortedKeys(raw []uint8) []int64 {
	out := make([]int64, len(raw))
	for i, r := range raw {
		out[i] = int64(r % 16)
	}
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			out[i] = out[i-1]
		}
	}
	return out
}

func TestInsertCheckPrimitive(t *testing.T) {
	s, ctx := testSetup(t, Defaults())
	tab := NewGroupTableI64(8)
	keys := vector.FromI64([]int64{100, 200, 100, 300})
	gids := vector.New(vector.I32, 4)
	inst := s.Instance("hash_insertcheck_slng_col", "ic")
	c := &core.Call{N: 4, In: []*vector.Vector{keys}, Res: gids, Aux: tab, Inst: inst}
	inst.Prim.Flavors[0].Fn(ctx, c)
	g := gids.I32()
	if g[0] != g[2] || g[0] == g[1] || tab.Groups() != 3 {
		t.Errorf("gids = %v", g[:4])
	}
}

func TestInsertCheckCostGrowsWithTable(t *testing.T) {
	s, ctx := testSetup(t, Defaults())
	inst := s.Instance("hash_insertcheck_slng_col", "growth")
	fl := inst.Prim.Flavors[0]
	small := NewGroupTableI64(8)
	keys := vector.FromI64(make([]int64, 64))
	gids := vector.New(vector.I32, 64)
	c := &core.Call{N: 64, In: []*vector.Vector{keys}, Res: gids, Aux: small, Inst: inst}
	_, cheap := fl.Fn(ctx, c)
	// A table far beyond the LLC must cost more per probe (Figure 4e).
	big := NewGroupTableI64(8)
	for i := int64(0); i < int64(ctx.Machine.LLCBytes); i += 2 {
		big.InsertCheck(i)
	}
	c2 := &core.Call{N: 64, In: []*vector.Vector{keys}, Res: gids, Aux: big, Inst: inst}
	_, costly := fl.Fn(ctx, c2)
	if costly <= cheap*2 {
		t.Errorf("insert-check cost should grow with table size: %v vs %v", cheap, costly)
	}
}

func TestLookupPrimitives(t *testing.T) {
	s, ctx := testSetup(t, Defaults())
	jt := NewJoinTable([]int64{10, 20, 30})
	keys := vector.FromI64([]int64{20, 99, 10})
	rows := vector.New(vector.I32, 3)
	out := make([]int32, 3)
	inst := s.Instance("sel_htlookup_slng_col", "lk")
	c := &core.Call{N: 3, In: []*vector.Vector{keys}, SelOut: out, Res: rows, Aux: jt, Inst: inst}
	k, _ := inst.Prim.Flavors[0].Fn(ctx, c)
	if k != 2 || out[0] != 0 || out[1] != 2 {
		t.Errorf("lookup sel = %v (k=%d)", out[:k], k)
	}
	if rows.I32()[0] != 1 || rows.I32()[2] != 0 {
		t.Error("lookup rows wrong")
	}
	miss := s.Instance("sel_htmiss_slng_col", "miss")
	c2 := &core.Call{N: 3, In: []*vector.Vector{keys}, SelOut: out, Aux: jt, Inst: miss}
	k2, _ := miss.Prim.Flavors[0].Fn(ctx, c2)
	if k2 != 1 || out[0] != 1 {
		t.Errorf("miss sel = %v (k=%d)", out[:k2], k2)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "hell", false},
		{"PROMO BRUSHED", "PROMO%", true},
		{"NOT PROMO", "PROMO%", false},
		{"LARGE BRASS", "%BRASS", true},
		{"BRASS PLATED", "%BRASS", false},
		{"a special deal requests more", "%special%requests%", true},
		{"special", "%special%requests%", false},
		{"MEDIUM POLISHED TIN", "MEDIUM POLISHED%", true},
		{"abc", "%", true},
		{"", "%", true},
		{"forest green", "forest%", true},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.pat); got != c.want {
			t.Errorf("LikeMatch(%q, %q) = %v", c.s, c.pat, c.want)
		}
	}
	// The in-place pattern walk must agree with the segment-splitting
	// definition on every short string and pattern over {a, b, %}.
	var words func(alphabet string, n int) []string
	words = func(alphabet string, n int) []string {
		out := []string{""}
		if n > 0 {
			for _, w := range words(alphabet, n-1) {
				for _, r := range alphabet {
					out = append(out, w+string(r))
				}
			}
		}
		return out
	}
	for _, pat := range words("ab%", 5) {
		for _, str := range words("ab", 4) {
			if got, want := LikeMatch(str, pat), likeMatchBySplit(str, pat); got != want {
				t.Fatalf("LikeMatch(%q, %q) = %v, split definition says %v", str, pat, got, want)
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { LikeMatch("a special deal requests more", "%special%requests%") }); a != 0 {
		t.Errorf("LikeMatch allocates %v objects per tuple, want 0", a)
	}
}

// likeMatchBySplit is the reference definition of LikeMatch.
func likeMatchBySplit(s, pattern string) bool {
	parts := strings.Split(pattern, "%")
	if len(parts) == 1 {
		return s == pattern
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	last := parts[len(parts)-1]
	if !strings.HasSuffix(s, last) {
		return false
	}
	s = s[:len(s)-len(last)]
	for _, mid := range parts[1 : len(parts)-1] {
		idx := strings.Index(s, mid)
		if idx < 0 {
			return false
		}
		s = s[idx+len(mid):]
	}
	return true
}

func TestWidenToI64(t *testing.T) {
	res := vector.New(vector.I64, 4)
	WidenToI64(vector.FromI16([]int16{-1, 2, 3, -4}), nil, 4, res)
	if res.I64()[0] != -1 || res.I64()[3] != -4 {
		t.Error("i16 widen wrong")
	}
	WidenToI64(vector.FromI32([]int32{7, 8, 9, 10}), []int32{1, 3}, 4, res)
	if res.I64()[1] != 8 || res.I64()[3] != 10 {
		t.Error("selective widen wrong")
	}
}

func TestHashFunctions(t *testing.T) {
	if HashI64(1) == HashI64(2) {
		t.Error("hash collision on trivial keys")
	}
	if HashStr("abc") == HashStr("abd") {
		t.Error("string hash collision on near keys")
	}
	if HashStr("") == 0 {
		t.Error("empty string should still hash")
	}
}

func TestMeasureDenseMulTable4Shape(t *testing.T) {
	m1, m3 := hw.Machine1(), hw.Machine3()
	// Machine 1: SIMD wins; hand unrolling blocks it.
	simd := MeasureDenseMul(m1, false, true, true, 1<<14)
	hand := MeasureDenseMul(m1, true, true, true, 1<<14)
	neither := MeasureDenseMul(m1, false, false, false, 1<<14)
	if simd >= hand {
		t.Errorf("machine1: SIMD (%v) should beat hand unrolling (%v)", simd, hand)
	}
	if hand >= neither {
		t.Errorf("machine1: hand unrolling (%v) should beat plain scalar (%v)", hand, neither)
	}
	// Machine 3: SIMD loses to unrolled scalar (the Table 4 surprise).
	simd3 := MeasureDenseMul(m3, false, true, false, 1<<14)
	hand3 := MeasureDenseMul(m3, true, false, false, 1<<14)
	if simd3 <= hand3 {
		t.Errorf("machine3: SIMD (%v) should lose to hand unrolling (%v)", simd3, hand3)
	}
}

// TestPrefetchFlavors covers the paper's future-work extension: prefetch
// distances for hash lookups, with machine/table-size-dependent winners.
func TestPrefetchFlavors(t *testing.T) {
	s, ctx := testSetup(t, PrefetchSet())
	prim := s.Dict.MustLookup("sel_htlookup_slng_col")
	if len(prim.Flavors) != 3 {
		t.Fatalf("prefetch flavors = %d, want 3", len(prim.Flavors))
	}
	cost := func(arm int, entries int) float64 {
		keys := make([]int64, entries)
		for i := range keys {
			keys[i] = int64(i)
		}
		jt := NewJoinTable(keys)
		probe := vector.FromI64(make([]int64, 64))
		out := make([]int32, 64)
		rows := vector.New(vector.I32, 64)
		c := &core.Call{N: 64, In: []*vector.Vector{probe}, SelOut: out, Res: rows, Aux: jt,
			Inst: s.Instance("sel_htlookup_slng_col", fmt.Sprintf("pf/%d/%d", arm, entries))}
		_, cyc := prim.Flavors[arm].Fn(ctx, c)
		return cyc
	}
	// Cache-resident table: prefetching is pure overhead.
	if cost(0, 100) >= cost(2, 100) {
		t.Error("no-prefetch should win on a cache-resident table")
	}
	// Memory-resident table: deep prefetch hides the stalls.
	big := ctx.Machine.LLCBytes / 4 // entries ~ 16B each -> 4x LLC
	if cost(2, big) >= cost(0, big) {
		t.Error("deep prefetch should win on a memory-resident table")
	}
	// Flavor results stay identical regardless of distance.
	if prim.Flavors[0].Tag("prefetch") != "p0" || prim.Flavors[2].Tag("prefetch") != "p16" {
		t.Error("prefetch tags wrong")
	}
}
