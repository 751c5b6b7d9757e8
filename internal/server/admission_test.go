package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// pinWorker occupies the only worker of a zero-depth admission queue
// until release is called. Such a queue admits a job only while its
// worker waits on it, and a worker that has not started yet, or is
// finishing a job, does not: the blocker retries its sheds until it is
// admitted.
func pinWorker(t *testing.T, a *Admission) (release func()) {
	t.Helper()
	running, unblock, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			err := a.Do(context.Background(), func() error { close(running); <-unblock; return nil })
			if !errors.Is(err, ErrShed) {
				done <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-running:
	case err := <-done:
		t.Fatalf("blocker job was not admitted: %v", err)
	}
	return func() {
		close(unblock)
		if err := <-done; err != nil {
			t.Fatalf("blocker job: %v", err)
		}
	}
}

// TestAdmissionShedsWhenFull pins the 429 path: with one busy worker and
// the one queue slot occupied, the next request is shed immediately —
// never queued, never executed.
func TestAdmissionShedsWhenFull(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Workers: 1, QueueDepth: 1})
	defer a.Drain()
	release := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := a.Do(context.Background(), func() error { close(running); <-release; return nil }); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	<-running // the worker is now busy executing the blocker
	go func() {
		defer wg.Done()
		if err := a.Do(context.Background(), func() error { return nil }); err != nil {
			t.Errorf("queued request: %v", err)
		}
	}()
	waitFor(t, "queue slot occupied", func() bool { return a.QueueDepth() == 1 })

	if err := a.Do(context.Background(), func() error { return nil }); !errors.Is(err, ErrShed) {
		t.Fatalf("Do while saturated = %v, want ErrShed", err)
	}
	close(release)
	wg.Wait()

	st := a.Stats()
	if st.Executed != 2 || st.Shed != 1 {
		t.Errorf("stats = %+v, want executed=2 shed=1", st)
	}
}

// TestAdmissionExpiredWhileQueued pins the deadline contract: a request
// whose context expires while it waits in the queue returns the context
// error to its caller and is skipped — not executed — when a worker
// finally reaches it.
func TestAdmissionExpiredWhileQueued(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Workers: 1, QueueDepth: 1})
	defer a.Drain()
	release := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = a.Do(context.Background(), func() error { close(running); <-release; return nil })
	}()
	<-running

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	executed := false
	err := a.Do(ctx, func() error { executed = true; return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Do = %v, want DeadlineExceeded", err)
	}

	close(release)
	wg.Wait()
	waitFor(t, "expired ticket to be skipped", func() bool { return a.Stats().Expired == 1 })
	if executed {
		t.Error("expired request's job ran anyway")
	}
	if st := a.Stats(); st.Executed != 1 {
		t.Errorf("executed = %d, want 1 (only the blocker)", st.Executed)
	}
}

// TestAdmissionDrain pins graceful shutdown: Drain completes everything
// already admitted (executing and queued), rejects everything new with
// ErrDraining, and returns only once the pool is idle.
func TestAdmissionDrain(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Workers: 2, QueueDepth: 4})
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = a.Do(context.Background(), func() error { started <- struct{}{}; <-release; return nil })
		}()
	}
	<-started
	<-started
	waitFor(t, "two requests queued", func() bool { return a.QueueDepth() == 2 })

	drained := make(chan struct{})
	go func() { a.Drain(); close(drained) }()
	waitFor(t, "draining flag", a.Draining)

	if err := a.Do(context.Background(), func() error { return nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("Do while draining = %v, want ErrDraining", err)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while admitted work was still blocked")
	default:
	}

	close(release)
	<-drained
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("admitted request %d failed: %v", i, err)
		}
	}
	st := a.Stats()
	if st.Executed != 4 || st.Rejected != 1 {
		t.Errorf("stats = %+v, want executed=4 rejected=1", st)
	}
	a.Drain() // idempotent
}

// TestAdmissionPropagatesJobError: a job's own error comes back verbatim.
func TestAdmissionPropagatesJobError(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Workers: 1, QueueDepth: 1})
	defer a.Drain()
	boom := errors.New("boom")
	if err := a.Do(context.Background(), func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want boom", err)
	}
}

// TestAdmissionQueueWait: queue-wait percentiles are recorded for
// executed work.
func TestAdmissionQueueWait(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Workers: 1, QueueDepth: 4})
	defer a.Drain()
	for i := 0; i < 8; i++ {
		if err := a.Do(context.Background(), func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if a.QueueWait(99) < 0 {
		t.Error("negative queue wait")
	}
	if got := a.Stats().Executed; got != 8 {
		t.Errorf("executed = %d, want 8", got)
	}
}
