package server

import (
	"net/http"
	"testing"
	"time"
)

// TestRetryPolicyDelay: capped exponential, floored by Retry-After.
func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{Max: 4, Base: 25 * time.Millisecond, Cap: time.Second}
	cases := []struct {
		attempt    int
		retryAfter time.Duration
		want       time.Duration
	}{
		{0, 0, 25 * time.Millisecond},
		{1, 0, 50 * time.Millisecond},
		{2, 0, 100 * time.Millisecond},
		{10, 0, time.Second},                                // capped
		{0, 400 * time.Millisecond, 400 * time.Millisecond}, // server hint wins
		{10, 5 * time.Second, time.Second},                  // hint still capped
	}
	for _, tc := range cases {
		if got := p.delay(tc.attempt, tc.retryAfter); got != tc.want {
			t.Errorf("delay(%d, %v) = %v, want %v", tc.attempt, tc.retryAfter, got, tc.want)
		}
	}
	zero := RetryPolicy{}
	if got := zero.delay(0, 0); got != 25*time.Millisecond {
		t.Errorf("zero-policy base delay = %v, want 25ms default", got)
	}
}

// TestClientRetriesSheds: a shed answer is retried with backoff and
// succeeds once the worker frees up — the caller never sees the 429.
func TestClientRetriesSheds(t *testing.T) {
	run, c := startTestServer(t, Config{Workers: 1, QueueDepth: -1, RetryAfter: 10 * time.Millisecond})
	c.WithRetry(RetryPolicy{Max: 50, Base: 5 * time.Millisecond, Cap: 20 * time.Millisecond})
	release := pinWorker(t, run.Server.adm)

	done := make(chan struct{})
	var out *Outcome
	var err error
	go func() {
		defer close(done)
		out, err = c.Query(QueryRequest{Query: 6})
	}()
	// Hold the worker long enough that the client must shed at least once.
	time.Sleep(50 * time.Millisecond)
	release()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("retrying query never completed")
	}
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !out.OK() {
		t.Fatalf("status %d after retries, want 200", out.Status)
	}
	if c.retries.Load() == 0 {
		t.Error("client reports zero retries despite a pinned worker")
	}
}

// TestClientDoesNotRetryDrain: 503 from a draining server surfaces
// immediately — retrying a server that is going away is wrong.
func TestClientDoesNotRetryDrain(t *testing.T) {
	run, c := startTestServer(t, Config{Workers: 1})
	run.Server.Drain()
	start := time.Now()
	out, err := c.Query(QueryRequest{Query: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", out.Status)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("drain answer took %v — the client appears to have retried it", elapsed)
	}
}
