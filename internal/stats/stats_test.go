package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{2, 8}), 4) {
		t.Error("geomean(2,8) != 4")
	}
	if !almost(GeoMean([]float64{1, 1, 1}), 1) {
		t.Error("geomean of ones != 1")
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{1, -1}) != 0 {
		t.Error("degenerate geomean should be 0")
	}
}

func TestGeoMeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint8) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		return g >= slices.Min(xs)-1e-9 && g <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMax(t *testing.T) {
	if Max([]float64{3, 1, 2}) != 3 {
		t.Error("max of {3, 1, 2} should be 3")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("empty max should be -Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 20, 30} // unsorted on purpose
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("p0 = %v, want 10", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Errorf("p100 = %v, want 40", got)
	}
	if got := Percentile(xs, 50); got != 25 {
		t.Errorf("p50 = %v, want 25 (interpolated)", got)
	}
	if got := Percentile(xs, 75); got != 32.5 {
		t.Errorf("p75 = %v, want 32.5", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if Percentile([]float64{7}, 95) != 7 {
		t.Error("single element percentile")
	}
	if xs[0] != 40 {
		t.Error("Percentile must not mutate its input")
	}
}

func TestResample(t *testing.T) {
	up := Resample([]float64{0, 10}, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if !almost(up[i], want[i]) {
			t.Fatalf("up[%d] = %v, want %v", i, up[i], want[i])
		}
	}
	down := Resample([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3)
	if !almost(down[0], 1) || !almost(down[2], 9) {
		t.Errorf("down = %v", down)
	}
	if Resample(nil, 4) != nil {
		t.Error("resample of nil should be nil")
	}
	one := Resample([]float64{7}, 3)
	if one[0] != 7 || one[2] != 7 {
		t.Error("resample of singleton should repeat")
	}
}

// TestPercentileBoundaries pins the edge behavior the latency reporting
// relies on: clamping outside [0,100], tiny inputs, and exact two-element
// interpolation.
func TestPercentileBoundaries(t *testing.T) {
	two := []float64{10, 20}
	cases := []struct {
		p    float64
		want float64
	}{
		{-5, 10},                         // below range clamps to the minimum
		{0, 10},                          // p0 is the minimum
		{25, 12.5}, {50, 15}, {75, 17.5}, // linear between the two ranks
		{100, 20}, // p100 is the maximum
		{250, 20}, // above range clamps to the maximum
	}
	for _, c := range cases {
		if got := Percentile(two, c.p); !almost(got, c.want) {
			t.Errorf("two-element p%v = %v, want %v", c.p, got, c.want)
		}
	}
	single := []float64{7}
	for _, p := range []float64{0, 50, 100} {
		if got := Percentile(single, p); got != 7 {
			t.Errorf("single-element p%v = %v, want 7", p, got)
		}
	}
	for _, p := range []float64{0, 50, 100} {
		if got := Percentile(nil, p); got != 0 {
			t.Errorf("empty p%v = %v, want 0", p, got)
		}
	}
}

// TestResampleBoundaries pins the degenerate shapes: zero/negative targets,
// single-point targets, and exact endpoint preservation for two elements.
func TestResampleBoundaries(t *testing.T) {
	if Resample([]float64{1, 2}, 0) != nil {
		t.Error("n=0 should yield nil")
	}
	if Resample([]float64{1, 2}, -3) != nil {
		t.Error("n<0 should yield nil")
	}
	if got := Resample([]float64{3, 9}, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("n=1 = %v, want [3] (the first point)", got)
	}
	got := Resample([]float64{3, 9}, 2)
	if len(got) != 2 || got[0] != 3 || got[1] != 9 {
		t.Errorf("two-to-two = %v, want endpoints preserved", got)
	}
	up := Resample([]float64{3, 9}, 4)
	if up[0] != 3 || up[3] != 9 {
		t.Errorf("upsample endpoints = %v, want 3..9", up)
	}
	for i := 1; i < len(up); i++ {
		if up[i] <= up[i-1] {
			t.Errorf("upsample of increasing pair not monotone: %v", up)
		}
	}
}

func TestASCIIChart(t *testing.T) {
	out := ASCIIChart("title", []Series{
		{Name: "up", Values: []float64{1, 2, 3}},
		{Name: "down", Values: []float64{3, 2, 1}},
	}, 24, 6)
	if !strings.Contains(out, "title") || !strings.Contains(out, "*=up") || !strings.Contains(out, "+=down") {
		t.Errorf("chart missing pieces:\n%s", out)
	}
	if len(strings.Split(out, "\n")) < 8 {
		t.Error("chart too short")
	}
	// Degenerate inputs must not panic.
	_ = ASCIIChart("flat", []Series{{Name: "c", Values: []float64{5, 5}}}, 10, 4)
	_ = ASCIIChart("empty", nil, 10, 4)
	_ = ASCIIChart("nan", []Series{{Name: "n", Values: []float64{math.NaN(), math.Inf(1)}}}, 10, 4)
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([][]string{
		{"name", "value"},
		{"a", "1"},
		{"longer", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Error("missing header rule")
	}
	if FormatTable(nil) != "" {
		t.Error("empty table should render empty")
	}
}
