package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1024, 2)
	keys := []int64{0, 1, -5, 1 << 40, -1 << 50, 42}
	for _, k := range keys {
		f.Add(k)
	}
	for _, k := range keys {
		if !f.Test(k) {
			t.Errorf("false negative for %d", k)
		}
	}
	if f.items != len(keys) {
		t.Errorf("items = %d", f.items)
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	check := func(keys []int64) bool {
		f := New(4096, 3)
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.Test(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	// 10 bits per key, k=2: FP rate should be small.
	n := 10000
	f := New(n*10/8, 2)
	rng := rand.New(rand.NewSource(1))
	present := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		k := rng.Int63()
		present[k] = true
		f.Add(k)
	}
	fp := 0
	trials := 100000
	for i := 0; i < trials; i++ {
		k := rng.Int63()
		if !present[k] && f.Test(k) {
			fp++
		}
	}
	rate := float64(fp) / float64(trials)
	if rate > 0.10 {
		t.Errorf("false positive rate = %v, want < 0.10", rate)
	}
}

func TestSizeRounding(t *testing.T) {
	if got := New(1000, 2).SizeBytes(); got != 1024 {
		t.Errorf("size = %d, want 1024", got)
	}
	if got := New(1, 2).SizeBytes(); got != 64 {
		t.Errorf("minimum size = %d, want 64", got)
	}
	if New(64, 0).k != 1 {
		t.Error("k should clamp to >= 1")
	}
}

func TestTestHashMatchesTest(t *testing.T) {
	f := New(2048, 3)
	for i := int64(0); i < 100; i += 3 {
		f.Add(i)
	}
	for i := int64(0); i < 200; i++ {
		if f.Test(i) != f.TestHash(Hash(i)) {
			t.Fatalf("Test and TestHash disagree for %d", i)
		}
	}
}

func TestHashAvalanche(t *testing.T) {
	// Neighbouring keys must map to very different hashes.
	h1, h2 := Hash(1), Hash(2)
	diff := h1 ^ h2
	bits := 0
	for diff != 0 {
		bits += int(diff & 1)
		diff >>= 1
	}
	if bits < 16 {
		t.Errorf("avalanche bits = %d, want >= 16", bits)
	}
}

func TestEmptyFilterRejects(t *testing.T) {
	f := New(1024, 2)
	hits := 0
	for i := int64(0); i < 1000; i++ {
		if f.Test(i) {
			hits++
		}
	}
	if hits != 0 {
		t.Errorf("empty filter accepted %d keys", hits)
	}
}
