package aph

import (
	"testing"
	"testing/quick"
)

func TestAddWithinBudget(t *testing.T) {
	h := NewSize(8)
	for i := 0; i < 8; i++ {
		h.Add(100, float64(i))
	}
	if len(h.buckets) != 8 || h.span != 1 {
		t.Fatalf("buckets/span = %d/%d, want 8/1", len(h.buckets), h.span)
	}
	for i, b := range h.buckets {
		if b.Calls != 1 || b.Cycles != float64(i) {
			t.Errorf("bucket %d = %+v", i, b)
		}
	}
}

func TestMergeHalvesBuckets(t *testing.T) {
	h := NewSize(8)
	for i := 0; i < 9; i++ {
		h.Add(10, 1)
	}
	// The 9th call triggers a merge to 4 buckets, then appends one.
	if len(h.buckets) != 5 {
		t.Fatalf("buckets = %d, want 5", len(h.buckets))
	}
	if h.span != 2 {
		t.Fatalf("span = %d, want 2", h.span)
	}
	b0 := h.buckets[0]
	if b0.Calls != 2 || b0.Tuples != 20 || b0.Cycles != 2 {
		t.Errorf("merged bucket = %+v", b0)
	}
}

func TestRepeatedMergesKeepSpanPowerOfTwo(t *testing.T) {
	h := NewSize(4)
	for i := 0; i < 100; i++ {
		h.Add(1, 1)
	}
	if h.span != 32 {
		t.Errorf("span = %d, want 32", h.span)
	}
	if tuples, _ := h.Totals(); tuples != 100 {
		t.Errorf("calls = %d, want 100", tuples)
	}
}

// TestNeverExceedsBudget is the paper's APH invariant: at most 512 buckets
// regardless of call count, each spanning 2^k calls.
func TestNeverExceedsBudget(t *testing.T) {
	f := func(calls uint16) bool {
		h := NewSize(16)
		for i := 0; i < int(calls); i++ {
			h.Add(1, 1)
		}
		if len(h.buckets) > 16 {
			return false
		}
		tuples, _ := h.Totals()
		return tuples == int64(calls)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTotalsPreserved: merging never loses tuples or cycles.
func TestTotalsPreserved(t *testing.T) {
	f := func(entries []uint8) bool {
		h := NewSize(8)
		var wantT int64
		var wantC float64
		for _, e := range entries {
			h.Add(int(e), float64(e)*2)
			wantT += int64(e)
			wantC += float64(e) * 2
		}
		gotT, gotC := h.Totals()
		return gotT == wantT && gotC == wantC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDefaultBudgetIs512(t *testing.T) {
	h := New()
	for i := 0; i < 100000; i++ {
		h.Add(1, 1)
	}
	if len(h.buckets) > DefaultBuckets {
		t.Errorf("buckets = %d, want <= 512", len(h.buckets))
	}
	// After 100K calls: span must be 256 (512*256 = 131072 >= 100000).
	if h.span != 256 {
		t.Errorf("span = %d, want 256", h.span)
	}
}

func TestSeries(t *testing.T) {
	h := NewSize(4)
	h.Add(10, 50) // 5 cycles/tuple
	h.Add(10, 30) // 3 cycles/tuple
	s := h.Series()
	if len(s) != 2 || s[0] != 5 || s[1] != 3 {
		t.Errorf("series = %v", s)
	}
	if (Bucket{}).CyclesPerTuple() != 0 {
		t.Error("empty bucket cost should be 0")
	}
}

func TestMinWithAndOptCycles(t *testing.T) {
	a, b := NewSize(4), NewSize(4)
	// Flavor a: cheap then expensive; flavor b: the reverse.
	a.Add(10, 10)
	a.Add(10, 100)
	b.Add(10, 80)
	b.Add(10, 20)
	// The envelope is a's first bucket (10 cycles) and b's second (20).
	if got := OptCycles(a, b); got != 30 {
		t.Errorf("OPT cycles = %v, want 30", got)
	}
	if OptCycles() != 0 {
		t.Error("OptCycles() should be 0")
	}
}

func TestMinWithTruncatesToShortest(t *testing.T) {
	a, b := NewSize(8), NewSize(8)
	for i := 0; i < 5; i++ {
		a.Add(1, 1)
	}
	for i := 0; i < 3; i++ {
		b.Add(1, 2)
	}
	// Three aligned buckets of 1 cycle each; a's last two have no partner.
	if got := OptCycles(a, b); got != 3 {
		t.Errorf("OPT cycles = %v, want 3 (envelope truncated to the shortest history)", got)
	}
	if got := OptCycles(b, a); got != 3 {
		t.Errorf("OPT cycles (flipped) = %v, want 3", got)
	}
}

// TestMinWithAlignsDifferentMergeDepths: two histories of the same call
// sequence whose budgets forced different merge depths must be compared on
// a common span, not bucket index by bucket index, or bucket 1 of the
// merged history (calls 3-4) meets bucket 1 of the unmerged one (call 2):
// an OPT envelope over unrelated call ranges.
func TestMinWithAlignsDifferentMergeDepths(t *testing.T) {
	costs := []float64{10, 10, 30, 30}
	merged, flat := NewSize(2), NewSize(8)
	for _, c := range costs {
		merged.Add(1, c)
		flat.Add(1, c)
	}
	if merged.span == flat.span {
		t.Fatal("test needs histories of different merge depth")
	}
	// Both histories recorded the identical sequence, so OPT equals either
	// history's total, 80. Comparing bucket index by bucket index would
	// give min(20, 10) + min(60, 10) = 20.
	if opt := OptCycles(merged, flat); opt != 80 {
		t.Errorf("OptCycles = %v, want 80", opt)
	}
	// Alignment holds with the argument order flipped, too.
	if opt := OptCycles(flat, merged); opt != 80 {
		t.Errorf("OptCycles (flipped) = %v, want 80", opt)
	}
}

// TestAlignedTrailingPartialBucket: a partial trailing bucket groups like a
// history's own trailing bucket — fewer calls, same call alignment.
func TestAlignedTrailingPartialBucket(t *testing.T) {
	merged, flat := NewSize(2), NewSize(8)
	for _, c := range []float64{4, 4, 8, 8, 2} {
		merged.Add(1, c)
		flat.Add(1, c)
	}
	// merged reaches span 4: buckets (4,4,8,8) and the partial (2); flat's
	// five span-1 buckets must group identically — including the trailer.
	if merged.span != 4 {
		t.Fatalf("merged span = %d, want 4", merged.span)
	}
	// Aligned buckets: 24 cycles over four calls, then the trailer's 2.
	// Dropping or misgrouping flat's trailer would lose or shift the 2.
	if got := OptCycles(merged, flat); got != 26 {
		t.Errorf("OPT cycles = %v, want 26", got)
	}
	if got := OptCycles(flat, merged); got != 26 {
		t.Errorf("OPT cycles (flipped) = %v, want 26", got)
	}
}

func TestNewSizeValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, -2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSize(%d) should panic", n)
				}
			}()
			NewSize(n)
		}()
	}
}

// TestHistoryGrowMatchesPresized: a history that grows its bucket slice on
// demand is indistinguishable, bucket for bucket, from one that allocated
// its whole budget up front — across several merge rounds — and never holds
// more capacity than the budget.
func TestHistoryGrowMatchesPresized(t *testing.T) {
	for _, budget := range []int{2, 6, 8, DefaultBuckets} {
		grown := NewSize(budget)
		sized := &History{max: budget, span: 1, buckets: make([]Bucket, 0, budget)}
		for i := 0; i < budget*9; i++ { // > 3 merge rounds
			grown.Add(100+i%7, float64(i)*1.5)
			sized.Add(100+i%7, float64(i)*1.5)
			if cap(grown.buckets) > budget {
				t.Fatalf("budget %d: capacity %d after %d calls", budget, cap(grown.buckets), i+1)
			}
			if grown.span != sized.span || len(grown.buckets) != len(sized.buckets) {
				t.Fatalf("budget %d call %d: span/len %d/%d, want %d/%d", budget, i,
					grown.span, len(grown.buckets), sized.span, len(sized.buckets))
			}
		}
		if grown.span < 8 {
			t.Fatalf("budget %d: span %d, test must cross >= 3 merges", budget, grown.span)
		}
		for i, b := range grown.buckets {
			if b != sized.buckets[i] {
				t.Fatalf("budget %d bucket %d = %+v, want %+v", budget, i, b, sized.buckets[i])
			}
		}
	}
	if h := New(); cap(h.buckets) != 0 {
		t.Errorf("a fresh history holds %d buckets of capacity, want 0", cap(h.buckets))
	}
}
