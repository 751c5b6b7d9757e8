package tpch

import (
	"fmt"
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
)

// testDB is shared across tests (generation is the expensive part).
var testDB = Generate(0.005, 42)

func newSession(o primitive.Options, opts ...core.SessionOption) *core.Session {
	opts = append([]core.SessionOption{core.WithVectorSize(128), core.WithSeed(7)}, opts...)
	return core.NewSession(primitive.NewDictionary(o), hw.Machine1(), opts...)
}

func TestGenerateShapes(t *testing.T) {
	db := testDB
	if db.Region.Rows() != 5 {
		t.Errorf("region rows = %d, want 5", db.Region.Rows())
	}
	if db.Nation.Rows() != 25 {
		t.Errorf("nation rows = %d, want 25", db.Nation.Rows())
	}
	if db.Orders.Rows() < 1000 {
		t.Errorf("orders rows = %d, want >= 1000", db.Orders.Rows())
	}
	if db.Lineitem.Rows() < 3*db.Orders.Rows() {
		t.Errorf("lineitem rows = %d, want >= 3x orders (%d)", db.Lineitem.Rows(), db.Orders.Rows())
	}
	if db.PartSupp.Rows() != 4*db.Part.Rows() {
		t.Errorf("partsupp rows = %d, want 4x part (%d)", db.PartSupp.Rows(), db.Part.Rows())
	}
}

func TestOrdersClusteredByDate(t *testing.T) {
	dates := testDB.Orders.Col("o_orderdate").I32()
	violations := 0
	for i := 1; i < len(dates); i++ {
		if dates[i] < dates[i-1]-31 {
			violations++
		}
	}
	if violations > 0 {
		t.Errorf("order dates not clustered: %d violations", violations)
	}
}

func TestLineitemDatesConsistent(t *testing.T) {
	li := testDB.Lineitem
	ship := li.Col("l_shipdate").I32()
	receipt := li.Col("l_receiptdate").I32()
	for i := 0; i < li.Rows(); i++ {
		if receipt[i] <= ship[i] {
			t.Fatalf("row %d: receiptdate %d <= shipdate %d", i, receipt[i], ship[i])
		}
	}
}

func TestLineitemSuppkeysExistInPartsupp(t *testing.T) {
	type pair struct{ p, s int32 }
	ps := make(map[pair]bool)
	pk := testDB.PartSupp.Col("ps_partkey").I32()
	sk := testDB.PartSupp.Col("ps_suppkey").I32()
	for i := 0; i < testDB.PartSupp.Rows(); i++ {
		ps[pair{pk[i], sk[i]}] = true
	}
	lp := testDB.Lineitem.Col("l_partkey").I32()
	ls := testDB.Lineitem.Col("l_suppkey").I32()
	for i := 0; i < testDB.Lineitem.Rows(); i++ {
		if !ps[pair{lp[i], ls[i]}] {
			t.Fatalf("lineitem %d references (%d,%d) missing from partsupp", i, lp[i], ls[i])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates three databases; skipped in -short mode")
	}
	lineitem := func(seed int64) string { return engine.TableString(Generate(0.002, seed).Lineitem, 0) }
	a := lineitem(7)
	if a != lineitem(7) {
		t.Error("same seed produced different lineitem data")
	}
	if a == lineitem(8) {
		t.Error("different seed produced identical lineitem data")
	}
}

// TestAllQueriesRun executes every query on the default (single-flavor)
// build and checks it produces a well-formed result.
func TestAllQueriesRun(t *testing.T) {
	for _, q := range Queries() {
		t.Run(q.Name, func(t *testing.T) {
			s := newSession(primitive.Defaults())
			tab, err := q.Run(testDB, s)
			if err != nil {
				t.Fatalf("%s failed: %v", q.Name, err)
			}
			if tab == nil {
				t.Fatalf("%s returned nil table", q.Name)
			}
			if len(tab.Sch) == 0 {
				t.Fatalf("%s returned empty schema", q.Name)
			}
			if s.Ctx.PrimCycles <= 0 {
				t.Errorf("%s consumed no primitive cycles", q.Name)
			}
		})
	}
}

// eachQuery runs check as one subtest per TPC-H query, under -short only
// on query short.
func eachQuery(t *testing.T, short int, check func(t *testing.T, q Spec)) {
	for _, q := range Queries() {
		if !testing.Short() || q.ID == short {
			t.Run(q.Name, func(t *testing.T) { check(t, q) })
		}
	}
}

// runQuery runs q over db on a primitive.Everything() session with the
// given extra options.
func runQuery(t *testing.T, q Spec, db *DB, opts ...core.SessionOption) *core.Session {
	t.Helper()
	s := newSession(primitive.Everything(), opts...)
	if _, err := q.Run(db, s); err != nil {
		t.Fatalf("%s: %v", q.Name, err)
	}
	return s
}

// Result identity across flavors, decision arms, pipeline parallelism and
// storage encoding is one harness, TestIdentityOracle in internal/dist.
// The per-axis tests below check that each axis is really exercised, so
// the oracle's rows are not identical by construction.

// TestQueriesFlavorEquivalence: under primitive.Everything() with a
// round-robin chooser, every query spends calls off its instances'
// measured-best flavors, i.e. it really switches flavors.
func TestQueriesFlavorEquivalence(t *testing.T) {
	eachQuery(t, 1, func(t *testing.T, q Spec) {
		s := runQuery(t, q, testDB, core.WithChooser(func(n int) core.Chooser { return core.NewRoundRobin(n) }))
		if _, offBest := core.AdaptationCost(s.AllInstances()); offBest == 0 {
			t.Errorf("%s: no primitive instance called more than one flavor", q.Name)
		}
	})
}

// TestQueriesJoinStrategyEquivalence: an arm forced through
// WithInstanceChooser is the arm every decision of the query takes,
// fragments included (they inherit the factory). Indices past a
// decision's arm count clamp to 0 (the anti-join decision has no
// bloomhash arm).
func TestQueriesJoinStrategyEquivalence(t *testing.T) {
	eachQuery(t, 5, func(t *testing.T, q Spec) {
		for arm := 0; arm < 3; arm++ {
			forced := core.WithInstanceChooser(func(sig, label string, arms []string) core.Chooser {
				if core.IsDecisionSig(sig) {
					return core.NewFixed(arm)
				}
				return core.NewFixed(0)
			})
			for _, d := range runQuery(t, q, testDB, forced, core.WithParallelism(4)).AllDecisions() {
				want := arm
				if want >= len(d.Arms) {
					want = 0
				}
				if d.PerArm[want].Calls != d.Calls {
					t.Errorf("%s: forced arm %d, decision %s took arm %s on %d of %d calls",
						q.Name, arm, d.Label, d.Arms[want], d.PerArm[want].Calls, d.Calls)
				}
			}
		}
	})
}

// TestParallelMatchesSerial: a serial run spawns no fragments, and every
// fragment session of a P=4 run carries its partition tag.
func TestParallelMatchesSerial(t *testing.T) {
	eachQuery(t, 1, func(t *testing.T, q Spec) {
		if n := len(runQuery(t, q, testDB).Fragments()); n != 0 {
			t.Errorf("%s: serial run spawned %d fragments", q.Name, n)
		}
		for _, fs := range runQuery(t, q, testDB, core.WithParallelism(4)).Fragments() {
			if fs.Partition() < 0 {
				t.Errorf("%s: fragment session without partition tag", q.Name)
			}
		}
	})
}

// TestQ1Values cross-checks Q1 aggregates against a straightforward Go
// reimplementation of the query.
func TestQ1Values(t *testing.T) {
	s := newSession(primitive.Everything())
	tab, err := Q1(testDB, s)
	if err != nil {
		t.Fatal(err)
	}
	// Reference computation.
	li := testDB.Lineitem
	cutoff := Date(1998, 9, 2)
	type acc struct {
		qty, base, disc, charge, count int64
	}
	ref := map[string]*acc{}
	ship := li.Col("l_shipdate").I32()
	rf := li.Col("l_returnflag").Str()
	ls := li.Col("l_linestatus").Str()
	qty := li.Col("l_quantity").I32()
	price := li.Col("l_extendedprice").I64()
	disc := li.Col("l_discount").I64()
	tax := li.Col("l_tax").I64()
	for i := 0; i < li.Rows(); i++ {
		if ship[i] > cutoff {
			continue
		}
		k := rf[i] + "|" + ls[i]
		a := ref[k]
		if a == nil {
			a = &acc{}
			ref[k] = a
		}
		dp := price[i] * (100 - disc[i]) / 100
		ch := dp * (100 + tax[i]) / 100
		a.qty += int64(qty[i])
		a.base += price[i]
		a.disc += dp
		a.charge += ch
		a.count++
	}
	if tab.Rows() != len(ref) {
		t.Fatalf("Q1 groups = %d, want %d", tab.Rows(), len(ref))
	}
	for r := 0; r < tab.Rows(); r++ {
		k := tab.Col("l_returnflag").GetStr(r) + "|" + tab.Col("l_linestatus").GetStr(r)
		a := ref[k]
		if a == nil {
			t.Fatalf("unexpected group %q", k)
		}
		if got := tab.Col("sum_qty").GetI64(r); got != a.qty {
			t.Errorf("group %s sum_qty = %d, want %d", k, got, a.qty)
		}
		if got := tab.Col("sum_base_price").GetI64(r); got != a.base {
			t.Errorf("group %s sum_base = %d, want %d", k, got, a.base)
		}
		if got := tab.Col("sum_disc_price").GetI64(r); got != a.disc {
			t.Errorf("group %s sum_disc_price = %d, want %d", k, got, a.disc)
		}
		if got := tab.Col("sum_charge").GetI64(r); got != a.charge {
			t.Errorf("group %s sum_charge = %d, want %d", k, got, a.charge)
		}
		if got := tab.Col("count_order").GetI64(r); got != a.count {
			t.Errorf("group %s count = %d, want %d", k, got, a.count)
		}
	}
}

// TestQ6Value cross-checks the Q6 scalar.
func TestQ6Value(t *testing.T) {
	s := newSession(primitive.Everything())
	tab, err := Q6(testDB, s)
	if err != nil {
		t.Fatal(err)
	}
	li := testDB.Lineitem
	ship := li.Col("l_shipdate").I32()
	disc := li.Col("l_discount").I64()
	qty := li.Col("l_quantity").I32()
	price := li.Col("l_extendedprice").I64()
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)
	var want int64
	for i := 0; i < li.Rows(); i++ {
		if ship[i] >= lo && ship[i] < hi && disc[i] >= 5 && disc[i] <= 7 && qty[i] < 24 {
			want += price[i] * disc[i] / 100
		}
	}
	if got := tab.Col("revenue").GetI64(0); got != want {
		t.Errorf("Q6 revenue = %d, want %d", got, want)
	}
}

// TestQ12Values cross-checks Q12 counts.
func TestQ12Values(t *testing.T) {
	s := newSession(primitive.Everything())
	tab, err := Q12(testDB, s)
	if err != nil {
		t.Fatal(err)
	}
	li := testDB.Lineitem
	ord := testDB.Orders
	prio := ord.Col("o_orderpriority").Str()
	mode := li.Col("l_shipmode").Str()
	okey := li.Col("l_orderkey").I32()
	shipd := li.Col("l_shipdate").I32()
	commitd := li.Col("l_commitdate").I32()
	receiptd := li.Col("l_receiptdate").I32()
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)
	want := map[string][2]int64{}
	for i := 0; i < li.Rows(); i++ {
		if (mode[i] != "MAIL" && mode[i] != "SHIP") ||
			commitd[i] >= receiptd[i] || shipd[i] >= commitd[i] ||
			receiptd[i] < lo || receiptd[i] >= hi {
			continue
		}
		p := prio[okey[i]-1]
		hl := want[mode[i]]
		if p == "1-URGENT" || p == "2-HIGH" {
			hl[0]++
		} else {
			hl[1]++
		}
		want[mode[i]] = hl
	}
	if tab.Rows() != len(want) {
		t.Fatalf("Q12 groups = %d, want %d", tab.Rows(), len(want))
	}
	for r := 0; r < tab.Rows(); r++ {
		m := tab.Col("l_shipmode").GetStr(r)
		if got := tab.Col("high_line_count").GetI64(r); got != want[m][0] {
			t.Errorf("%s high = %d, want %d", m, got, want[m][0])
		}
		if got := tab.Col("low_line_count").GetI64(r); got != want[m][1] {
			t.Errorf("%s low = %d, want %d", m, got, want[m][1])
		}
	}
}

func TestDateHelpers(t *testing.T) {
	if Date(1992, 1, 1) != 0 {
		t.Errorf("epoch day = %d, want 0", Date(1992, 1, 1))
	}
	if Date(1992, 12, 31) != 365 {
		t.Errorf("1992-12-31 = %d, want 365 (leap year)", Date(1992, 12, 31))
	}
	if got := Date(1993, 1, 1); got != 366 {
		t.Errorf("1993-01-01 = %d, want 366", got)
	}
	if got := YearOf(int64(Date(1995, 6, 17))); got != 1995 {
		t.Errorf("YearOf(1995-06-17) = %d", got)
	}
	for _, d := range []struct{ y, m, day int }{{1994, 1, 1}, {1996, 2, 29}, {1998, 8, 2}} {
		day := Date(d.y, d.m, d.day)
		want := fmt.Sprintf("%04d-%02d-%02d", d.y, d.m, d.day)
		if got := DateString(day); got != want {
			t.Errorf("DateString(%d) = %s, want %s", day, got, want)
		}
	}
	if got := AddMonths(Date(1995, 10, 1), 3); got != Date(1996, 1, 1) {
		t.Errorf("AddMonths(1995-10-01, 3) = %s", DateString(got))
	}
}
