package stats

import "sync"

// Window is a bounded-memory streaming variant of Percentile: it keeps the
// most recent capacity samples in a ring buffer and computes percentiles
// over that sliding window. A long-running server pushes millions of
// latencies through its metrics; the unbounded []float64 the batch
// Percentile wants would grow without limit, while a Window holds exactly
// capacity float64s forever and still tracks the current latency
// distribution (recent-biased, which is what a live /metrics endpoint
// should report anyway).
//
// Window is safe for concurrent use: many request goroutines Add while
// /metrics reads. Percentile copies the window under the lock and sorts
// outside critical work — O(capacity) per scrape, zero cost per Add beyond
// the mutex.
type Window struct {
	mu    sync.Mutex
	buf   []float64
	next  int   // ring position of the next write
	count int64 // total samples ever added
}

// NewWindow returns a window holding the last capacity samples; capacity
// < 1 is rounded up to 1.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{buf: make([]float64, 0, capacity)}
}

// Add records one sample, evicting the oldest once the window is full.
func (w *Window) Add(x float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, x)
	} else {
		w.buf[w.next] = x
	}
	w.next = (w.next + 1) % cap(w.buf)
	w.count++
}

// Len returns how many samples the window currently holds (<= capacity).
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf)
}

// Percentile returns the p-th percentile over the samples currently in the
// window, with the same interpolation (and the same empty-input result, 0)
// as the batch Percentile.
func (w *Window) Percentile(p float64) float64 {
	w.mu.Lock()
	snapshot := make([]float64, len(w.buf))
	copy(snapshot, w.buf)
	w.mu.Unlock()
	return Percentile(snapshot, p)
}

// Percentiles computes several percentiles from one snapshot, so a metrics
// scrape reporting p50/p95/p99 pays for one copy instead of three.
func (w *Window) Percentiles(ps ...float64) []float64 {
	w.mu.Lock()
	snapshot := make([]float64, len(w.buf))
	copy(snapshot, w.buf)
	w.mu.Unlock()
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = Percentile(snapshot, p)
	}
	return out
}

// Merge adds the samples currently held by other into w, oldest first, so
// the receiver's ring evicts in global-ish chronological order. The
// coordinator uses it to fold per-shard latency windows into one
// fleet-wide distribution for /metrics: percentiles over the merged
// window reflect every shard's recent samples, not just the local tier's.
// Merging a window into itself is a no-op.
func (w *Window) Merge(other *Window) {
	if other == nil || other == w {
		return
	}
	other.mu.Lock()
	snapshot := make([]float64, len(other.buf))
	// Unwind the ring: oldest sample first. When the buffer is not yet
	// full, next == len(buf) and the copy below is identity order.
	if len(other.buf) < cap(other.buf) {
		copy(snapshot, other.buf)
	} else {
		n := copy(snapshot, other.buf[other.next:])
		copy(snapshot[n:], other.buf[:other.next])
	}
	other.mu.Unlock()
	for _, x := range snapshot {
		w.Add(x)
	}
}

// Max returns the maximum sample currently in the window; 0 when empty
// (matching Percentile's empty-input convention rather than Min/Max's
// infinities, since this feeds a metrics report).
func (w *Window) Max() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) == 0 {
		return 0
	}
	m := w.buf[0]
	for _, x := range w.buf[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
