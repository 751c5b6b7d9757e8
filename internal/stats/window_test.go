package stats

import (
	"sync"
	"testing"
)

func TestWindowEmpty(t *testing.T) {
	w := NewWindow(8)
	if got := w.Percentile(50); got != 0 {
		t.Errorf("empty window p50 = %v, want 0", got)
	}
	if got := w.Max(); got != 0 {
		t.Errorf("empty window max = %v, want 0", got)
	}
	if w.Len() != 0 || w.count != 0 {
		t.Errorf("empty window len=%d count=%d", w.Len(), w.count)
	}
}

func TestWindowSingleSample(t *testing.T) {
	w := NewWindow(4)
	w.Add(7)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := w.Percentile(p); got != 7 {
			t.Errorf("p%v = %v, want 7", p, got)
		}
	}
}

// TestWindowMatchesBatchBeforeWrap pins the contract that a non-full
// window computes exactly what the batch Percentile computes.
func TestWindowMatchesBatchBeforeWrap(t *testing.T) {
	w := NewWindow(100)
	var xs []float64
	for i := 0; i < 37; i++ {
		x := float64((i * 31) % 17)
		w.Add(x)
		xs = append(xs, x)
	}
	for _, p := range []float64{0, 25, 50, 90, 95, 99, 100} {
		if got, want := w.Percentile(p), Percentile(xs, p); got != want {
			t.Errorf("p%v = %v, batch = %v", p, got, want)
		}
	}
}

// TestWindowEvictsOldest is the wrap-around boundary: once capacity
// samples have passed, only the newest capacity-many remain.
func TestWindowEvictsOldest(t *testing.T) {
	w := NewWindow(4)
	for i := 1; i <= 10; i++ {
		w.Add(float64(i))
	}
	// Window holds {7, 8, 9, 10}.
	if got := w.Percentile(0); got != 7 {
		t.Errorf("min of window = %v, want 7", got)
	}
	if got := w.Percentile(100); got != 10 {
		t.Errorf("max of window = %v, want 10", got)
	}
	if got := w.Max(); got != 10 {
		t.Errorf("Max = %v, want 10", got)
	}
	if w.Len() != 4 {
		t.Errorf("len = %d, want 4", w.Len())
	}
	if w.count != 10 {
		t.Errorf("count = %d, want 10", w.count)
	}
}

// TestWindowExactlyFull is the boundary between append and overwrite: a
// window filled to exactly capacity holds everything.
func TestWindowExactlyFull(t *testing.T) {
	w := NewWindow(3)
	w.Add(3)
	w.Add(1)
	w.Add(2)
	if got, want := w.Percentile(50), 2.0; got != want {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	w.Add(10) // evicts 3; window {1, 2, 10}
	if got, want := w.Percentile(0), 1.0; got != want {
		t.Errorf("p0 after first eviction = %v, want %v", got, want)
	}
}

func TestWindowCapacityFloor(t *testing.T) {
	w := NewWindow(0)
	w.Add(1)
	w.Add(2)
	if got := w.Percentile(50); got != 2 {
		t.Errorf("capacity-1 window p50 = %v, want newest sample 2", got)
	}
}

func TestWindowPercentiles(t *testing.T) {
	w := NewWindow(16)
	for i := 1; i <= 10; i++ {
		w.Add(float64(i))
	}
	got := w.Percentiles(0, 50, 100)
	want := []float64{1, 5.5, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Percentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestWindowConcurrentAdd exercises the lock under -race: a metrics
// window sees adds from every request goroutine.
func TestWindowConcurrentAdd(t *testing.T) {
	w := NewWindow(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				w.Add(float64(g*100 + i))
				_ = w.Percentile(99)
			}
		}(g)
	}
	wg.Wait()
	if w.count != 800 {
		t.Errorf("count = %d, want 800", w.count)
	}
	if w.Len() != 64 {
		t.Errorf("len = %d, want 64", w.Len())
	}
}

func TestWindowMerge(t *testing.T) {
	a, b := NewWindow(8), NewWindow(8)
	for i := 1; i <= 4; i++ {
		a.Add(float64(i))      // a: 1 2 3 4
		b.Add(float64(i * 10)) // b: 10 20 30 40
	}
	a.Merge(b)
	if a.Len() != 8 {
		t.Fatalf("merged len = %d, want 8", a.Len())
	}
	if got := a.Percentile(100); got != 40 {
		t.Errorf("merged max = %v, want 40", got)
	}
	if got := a.Percentile(0); got != 1 {
		t.Errorf("merged min = %v, want 1", got)
	}
}

func TestWindowMergeWrappedRing(t *testing.T) {
	// other's ring has wrapped; Merge must unwind oldest-first so the
	// receiver's eviction order stays chronological.
	other := NewWindow(4)
	for i := 1; i <= 6; i++ {
		other.Add(float64(i)) // holds 3 4 5 6, ring-rotated
	}
	w := NewWindow(4)
	w.Merge(other)
	// Receiver capacity 4 and 4 merged samples: exactly 3 4 5 6, and a
	// subsequent Add must evict the oldest merged sample (3).
	w.Add(7)
	if got := w.Percentile(0); got != 4 {
		t.Errorf("post-merge eviction dropped %v, want oldest (3) gone, min 4", got)
	}
	if got := w.Percentile(100); got != 7 {
		t.Errorf("merged+added max = %v, want 7", got)
	}
}

func TestWindowMergeSelfAndNil(t *testing.T) {
	w := NewWindow(4)
	w.Add(1)
	w.Merge(nil)
	w.Merge(w)
	if w.Len() != 1 {
		t.Errorf("self/nil merge changed len to %d", w.Len())
	}
}

func TestWindowMergeConcurrent(t *testing.T) {
	dst := NewWindow(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		src := NewWindow(64)
		for i := 0; i < 64; i++ {
			src.Add(float64(i))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst.Merge(src)
		}()
	}
	wg.Wait()
	if dst.Len() != 256 {
		t.Errorf("concurrent merge len = %d, want 256", dst.Len())
	}
}
