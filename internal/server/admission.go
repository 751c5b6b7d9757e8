// Admission control: the bounded request queue between the HTTP front end
// and the query workers. Everything the server promises about overload
// behavior lives here — a full queue sheds instead of buffering without
// bound, a request whose deadline passes while queued is cancelled before
// it ever reaches a session, and draining lets in-flight (queued or
// executing) work finish while new work bounces.
package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"microadapt/internal/stats"
)

// ErrShed reports a request rejected because the queue was full; the HTTP
// layer maps it to 429 + Retry-After.
var ErrShed = errors.New("server: overloaded, queue full")

// ErrDraining reports a request rejected because the server is shutting
// down; the HTTP layer maps it to 503.
var ErrDraining = errors.New("server: draining")

// AdmissionConfig sizes the controller.
type AdmissionConfig struct {
	// Workers is the number of concurrent query executors (default:
	// GOMAXPROCS).
	Workers int
	// QueueDepth is how many admitted requests may wait beyond the ones
	// executing (default 64). 0 is legal and means a request is admitted
	// only when a worker is ready to take it immediately.
	QueueDepth int
	// WaitWindow is the sample capacity of the queue-wait distribution
	// (default 1024).
	WaitWindow int
}

// ticket is one admitted request traveling from Do to a worker.
type ticket struct {
	ctx      context.Context
	job      func() error
	done     chan error
	enqueued time.Time
}

// Admission is the bounded queue plus worker pool. Jobs submitted through
// Do run on the pool; the calling goroutine blocks until its job finishes
// or its context expires.
type Admission struct {
	queue chan *ticket
	wait  *stats.Window // queue wait, nanoseconds

	// drainMu serializes "may I still enqueue?" against Drain: senders
	// hold it shared around the check-and-send, Drain holds it exclusive
	// while flipping draining, so no send can race the channel close.
	drainMu  sync.RWMutex
	draining bool
	workers  sync.WaitGroup

	executed atomic.Int64 // jobs that ran
	shed     atomic.Int64 // rejected: queue full
	expired  atomic.Int64 // cancelled while queued (deadline passed)
	rejected atomic.Int64 // rejected: draining
}

// NewAdmission builds the controller and starts its workers.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	} else if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.WaitWindow < 1 {
		cfg.WaitWindow = 1024
	}
	a := &Admission{
		queue: make(chan *ticket, cfg.QueueDepth),
		wait:  stats.NewWindow(cfg.WaitWindow),
	}
	a.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go a.worker()
	}
	return a
}

// Do admits job, waits for a worker to run it, and returns its error.
//
//   - ErrDraining: the server is shutting down; job did not run.
//   - ErrShed: the queue was full; job did not run.
//   - ctx.Err(): the deadline passed while queued. The caller stops
//     waiting immediately; the worker that eventually dequeues the ticket
//     observes the dead context and skips execution, so an expired request
//     never touches a session.
func (a *Admission) Do(ctx context.Context, job func() error) error {
	t := &ticket{ctx: ctx, job: job, done: make(chan error, 1), enqueued: time.Now()}

	a.drainMu.RLock()
	if a.draining {
		a.drainMu.RUnlock()
		a.rejected.Add(1)
		return ErrDraining
	}
	select {
	case a.queue <- t:
		a.drainMu.RUnlock()
	default:
		a.drainMu.RUnlock()
		a.shed.Add(1)
		return ErrShed
	}

	select {
	case err := <-t.done:
		return err
	case <-ctx.Done():
		// The ticket stays queued; the worker skips it on dequeue.
		return ctx.Err()
	}
}

func (a *Admission) worker() {
	defer a.workers.Done()
	for t := range a.queue {
		a.wait.Add(float64(time.Since(t.enqueued)))
		if err := t.ctx.Err(); err != nil {
			a.expired.Add(1)
			t.done <- err
			continue
		}
		a.executed.Add(1)
		t.done <- t.job()
	}
}

// Drain stops admitting, lets every queued and executing job finish, and
// returns when the pool is idle. Jobs queued before Drain complete — the
// graceful-shutdown contract — and Do calls racing Drain either enqueue
// before the flag flips (and complete) or observe ErrDraining.
func (a *Admission) Drain() {
	a.drainMu.Lock()
	if a.draining {
		a.drainMu.Unlock()
		a.workers.Wait()
		return
	}
	a.draining = true
	a.drainMu.Unlock()
	// No sender can be inside the enqueue critical section now, and every
	// future one sees draining, so closing is race-free.
	close(a.queue)
	a.workers.Wait()
}

// Draining reports whether Drain has begun.
func (a *Admission) Draining() bool {
	a.drainMu.RLock()
	defer a.drainMu.RUnlock()
	return a.draining
}

// QueueDepth returns how many admitted requests are waiting right now.
func (a *Admission) QueueDepth() int { return len(a.queue) }

// AdmissionStats is a counter snapshot for /metrics.
type AdmissionStats struct {
	Executed int64 `json:"executed"`
	Shed     int64 `json:"shed"`
	Expired  int64 `json:"expired"`
	Rejected int64 `json:"rejected_draining"`
}

// Stats snapshots the counters.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		Executed: a.executed.Load(),
		Shed:     a.shed.Load(),
		Expired:  a.expired.Load(),
		Rejected: a.rejected.Load(),
	}
}

// QueueWait returns the p-th percentile of recent queue waits.
func (a *Admission) QueueWait(p float64) time.Duration {
	return time.Duration(a.wait.Percentile(p))
}
