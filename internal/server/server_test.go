package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/service"
	"microadapt/internal/tpch"
)

// testDB is shared across tests; generation dominates test wall time.
var testDB = tpch.Generate(0.002, 42)

func testService(warm bool) *service.Service {
	cfg := service.DefaultConfig()
	cfg.WarmStart = warm
	cfg.Seed = 7
	return service.New(testDB, cfg)
}

// getMetrics reads the server's /metrics document over HTTP.
func getMetrics(t *testing.T, run *Running) (m MetricsSnapshot) {
	t.Helper()
	resp, err := http.Get(run.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d, %v", resp.StatusCode, err)
	}
	return m
}

// startTestServer runs a real listening server with the shared lifecycle
// helpers (Start / WaitReady / Shutdown) and cleans it up after the test.
func startTestServer(t *testing.T, cfg Config) (*Running, *Client) {
	t.Helper()
	if cfg.Service == nil {
		cfg.Service = testService(true)
	}
	run, err := Start(NewServer(cfg), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// A dialed but never used keep-alive connection stays "new" to the
		// server, and Shutdown waits up to 5s for it; drop the client side.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := run.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	c := NewClient(run.URL)
	t.Cleanup(c.CloseIdleConnections) // runs before the shutdown above
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return run, c
}

// TestServerQueryBitIdentical: a /v1/query response carries the query's
// latency in its stats. That the wire result and its fingerprint equal
// in-process execution is the http-query row of TestIdentityOracle
// (internal/dist).
func TestServerQueryBitIdentical(t *testing.T) {
	_, c := startTestServer(t, Config{})
	out, err := c.Query(QueryRequest{Query: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("status %d: %+v", out.Status, out.Err)
	}
	if out.Response.Stats.LatencyUS <= 0 {
		t.Error("missing latency in stats")
	}
}

// TestServerPlanEndpoint ships a client-built plan over the wire and
// checks the server validates and executes it, naming the plan in its
// response. That the result equals in-process execution is the http-plan
// row of TestIdentityOracle (internal/dist).
func TestServerPlanEndpoint(t *testing.T) {
	_, c := startTestServer(t, Config{})
	out, err := c.PlanEncoded(planBody(t, PlanRequest{Plan: marshalQueryPlan(t, 6)}))
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("plan status %d: %+v", out.Status, out.Err)
	}
	if out.Response.Plan == "" {
		t.Error("response missing plan name")
	}

	// A malformed plan is rejected 400 before it consumes a queue slot.
	bad, err := c.PlanEncoded(planBody(t, PlanRequest{Plan: []byte(`{"name":"X","nodes":[],"roots":[]}`)}))
	if err != nil {
		t.Fatal(err)
	}
	if bad.Status != http.StatusBadRequest {
		t.Errorf("malformed plan status = %d, want 400", bad.Status)
	}
}

// TestServerRejectsBadRequests covers the 400 surface. The server keeps
// no per-client state, so a body naming a session is an unknown field: an
// old client fails loudly instead of silently losing its attribution.
func TestServerRejectsBadRequests(t *testing.T) {
	run, c := startTestServer(t, Config{})
	for _, q := range []int{0, 23, -1} {
		out, err := c.Query(QueryRequest{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if out.Status != http.StatusBadRequest {
			t.Errorf("query %d status = %d, want 400", q, out.Status)
		}
	}
	// Each body must answer 400 with an error naming the offending field.
	for _, tc := range []struct{ body, field string }{
		{"{", ""}, {`{"quer":6}`, `"quer"`}, {`{"query":6,"session":"x"}`, `"session"`},
	} {
		resp, err := http.Post(run.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := decodeOutcome(resp)
		if err != nil {
			t.Fatal(err)
		}
		if out.Status != http.StatusBadRequest || out.Err == nil || !strings.Contains(out.Err.Error, tc.field) {
			t.Errorf("body %q: status %d, error %+v; want 400 naming %s", tc.body, out.Status, out.Err, tc.field)
		}
	}
}

// TestServerConcurrentClients is the -race workhorse: many clients hammer
// the server concurrently; every result must match the in-process
// baseline, the shared FlavorCache must have harvested knowledge, and the
// adaptation stats each client adds up over its own responses must sum to
// the server's totals exactly.
func TestServerConcurrentClients(t *testing.T) {
	run, c := startTestServer(t, Config{Workers: 4, QueueDepth: 256})
	queries := []int{1, 6, 12, 14}
	want := make(map[int]string) // in process on a single-flavor build
	for _, q := range queries {
		s := core.NewSession(primitive.NewDictionary(primitive.Defaults()), hw.Machine1(), core.WithVectorSize(128), core.WithSeed(3))
		tab, err := tpch.Query(q).Run(testDB, s)
		if err != nil {
			t.Fatalf("baseline Q%02d: %v", q, err)
		}
		want[q] = Fingerprint(tab)
	}

	const clients, perClient = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	sums := make([]StatsJSON, clients) // per-client totals of response stats
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := queries[(ci+i)%len(queries)]
				out, err := c.Query(QueryRequest{Query: q})
				if err != nil {
					errs <- err
					return
				}
				if !out.OK() {
					errs <- fmt.Errorf("client %d Q%02d: status %d: %+v", ci, q, out.Status, out.Err)
					return
				}
				if out.Response.Fingerprint != want[q] {
					errs <- fmt.Errorf("client %d Q%02d: result differs from baseline", ci, q)
					return
				}
				sums[ci].AdaptiveCalls += out.Response.Stats.AdaptiveCalls
				sums[ci].OffBestCalls += out.Response.Stats.OffBestCalls
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := getMetrics(t, run)
	if m.Admission.Executed != clients*perClient {
		t.Errorf("executed = %d, want %d", m.Admission.Executed, clients*perClient)
	}
	if m.AdaptiveCalls == 0 {
		t.Error("no adaptive calls recorded")
	}
	var adaptive, offBest int64
	for _, st := range sums {
		adaptive += st.AdaptiveCalls
		offBest += st.OffBestCalls
	}
	if adaptive != m.AdaptiveCalls || offBest != m.OffBestCalls {
		t.Errorf("clients' response stats sum to adaptive %d, off-best %d; /metrics reports %d, %d",
			adaptive, offBest, m.AdaptiveCalls, m.OffBestCalls)
	}
	if m.CacheInstanceKeys == 0 {
		t.Error("FlavorCache empty after concurrent load: harvest broken")
	}
	if m.LatencyP99US <= 0 || m.LatencyP50US > m.LatencyP99US {
		t.Errorf("implausible latency percentiles: p50=%v p99=%v", m.LatencyP50US, m.LatencyP99US)
	}
}

// TestServerWarmStartAcrossClients mirrors the service-level warm-start
// acceptance property at the HTTP layer: a second client pays a
// measurably smaller exploration tax than the first, because the first
// query's harvest seeded the shared FlavorCache.
func TestServerWarmStartAcrossClients(t *testing.T) {
	run, c := startTestServer(t, Config{Service: testService(true)})
	cold, err := c.Query(QueryRequest{Query: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.OK() {
		t.Fatalf("cold status %d", cold.Status)
	}
	if cold.Response.Stats.OffBestCalls == 0 {
		t.Fatal("cold run paid no exploration tax; test is vacuous")
	}
	c2 := NewClient(run.URL)
	t.Cleanup(c2.CloseIdleConnections)
	warm, err := c2.Query(QueryRequest{Query: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.OK() {
		t.Fatalf("warm status %d", warm.Status)
	}
	if warm.Response.Stats.OffBestCalls >= cold.Response.Stats.OffBestCalls {
		t.Errorf("warm client off-best = %d, want < cold %d",
			warm.Response.Stats.OffBestCalls, cold.Response.Stats.OffBestCalls)
	}
	m := getMetrics(t, run)
	if m.CacheSeededInsts == 0 {
		t.Error("no instances seeded from the cache")
	}
	if m.CacheHitRatePct <= 0 {
		t.Error("cache hit rate not reported")
	}
}

// TestServerShedsUnderSaturation pins down a one-worker, zero-queue
// server by occupying its only worker directly, then floods it over HTTP:
// every flooded request must come back as a well-formed 429 with
// Retry-After, and the server recovers once the worker frees up. (Pinning
// the worker rather than racing real queries keeps the test deterministic
// under arbitrary scheduler load.)
func TestServerShedsUnderSaturation(t *testing.T) {
	run, c := startTestServer(t, Config{Workers: 1, QueueDepth: -1, RetryAfter: 25 * time.Millisecond})
	// Retries off: this test counts raw sheds, so the client's backoff
	// loop must not absorb (and re-trigger) them.
	c.WithRetry(RetryPolicy{})
	release := pinWorker(t, run.Server.adm)
	shedBefore := run.Server.adm.Stats().Shed // the blocker's own sheds

	const n = 16
	outcomes := make([]*Outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[i], errs[i] = c.Query(QueryRequest{Query: 1})
		}()
	}
	wg.Wait()
	release()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: protocol error %v", i, errs[i])
		}
		if !outcomes[i].Shed() {
			t.Errorf("request %d: status %d, want 429 while the worker is pinned", i, outcomes[i].Status)
		} else if outcomes[i].RetryAfter <= 0 {
			t.Error("shed response missing Retry-After")
		}
	}
	m := getMetrics(t, run)
	if got := m.Admission.Shed - shedBefore; got != int64(n) {
		t.Errorf("metrics shed = %d, want %d", got, n)
	}
	// The server is not wedged: a lone query succeeds, retrying only the
	// sheds of the moment the freed worker takes to wait on the queue.
	out, err := c.WithRetry(DefaultRetry).Query(QueryRequest{Query: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Errorf("post-flood retry status %d, want 200", out.Status)
	}
}

// TestServerDrainRejectsNew: after Drain, health flips to draining and
// the query endpoints answer 503 while the process stays up.
func TestServerDrainRejectsNew(t *testing.T) {
	run, c := startTestServer(t, Config{})
	if out, err := c.Query(QueryRequest{Query: 6}); err != nil || !out.OK() {
		t.Fatalf("pre-drain query: %v / %+v", err, out)
	}
	run.Server.Drain()
	if c.Healthy() {
		t.Error("healthz still 200 after Drain")
	}
	out, err := c.Query(QueryRequest{Query: 6})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != http.StatusServiceUnavailable {
		t.Errorf("post-drain query status = %d, want 503", out.Status)
	}
	out, err = c.PlanEncoded(planBody(t, PlanRequest{Plan: marshalQueryPlan(t, 6)}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != http.StatusServiceUnavailable {
		t.Errorf("post-drain plan status = %d, want 503", out.Status)
	}
	m := getMetrics(t, run)
	if !m.Draining {
		t.Error("metrics does not report draining")
	}
}

// TestErrorMapping pins the error -> HTTP status table.
func TestErrorMapping(t *testing.T) {
	s := NewServer(Config{Service: testService(true), RetryAfter: 1500 * time.Millisecond})
	cases := []struct {
		err        error
		status     int
		retryAfter string
	}{
		{ErrShed, http.StatusTooManyRequests, "2"}, // 1500ms rounds up to 2s
		{ErrDraining, http.StatusServiceUnavailable, ""},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, ""},
		{context.Canceled, http.StatusGatewayTimeout, ""},
		{errors.New("kaboom"), http.StatusInternalServerError, ""},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.writeError(rec, tc.err)
		if rec.Code != tc.status {
			t.Errorf("%v -> %d, want %d", tc.err, rec.Code, tc.status)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("%v Retry-After = %q, want %q", tc.err, got, tc.retryAfter)
		}
	}
}
