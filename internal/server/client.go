package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"microadapt/internal/service"
)

// RetryPolicy governs automatic retry of load-shed (429) answers inside
// the client. Backoff is capped exponential — Base doubling per attempt
// up to Cap — but never shorter than the server's Retry-After hint, and
// jittered ±50% so a herd of shed clients does not re-arrive in phase.
// Drain (503) answers are never retried: a draining server is going
// away, not momentarily busy.
type RetryPolicy struct {
	// Max is how many retries follow the first attempt; 0 disables
	// retrying entirely and surfaces every shed to the caller.
	Max int
	// Base is the first backoff (default 25ms). Attempt k waits
	// min(Base<<k, Cap), floored by the server's Retry-After.
	Base time.Duration
	// Cap bounds the backoff (default 1s).
	Cap time.Duration
}

func (p RetryPolicy) delay(attempt int, retryAfter time.Duration) time.Duration {
	base, cap := p.Base, p.Cap
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	if cap <= 0 {
		cap = time.Second
	}
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if retryAfter > d {
		d = retryAfter
	}
	if d > cap {
		d = cap
	}
	return d
}

// DefaultRetry is what NewClient installs: a handful of attempts capped
// at a second, enough to ride out a transient queue-full without hiding
// a persistently saturated server.
var DefaultRetry = RetryPolicy{Max: 4, Base: 25 * time.Millisecond, Cap: time.Second}

// Client talks madaptd's wire protocol. A shed (429) or drain (503)
// answer is a well-formed protocol outcome, not an error: a caller must
// distinguish "the server said back off" (expected under overload) from
// a genuinely broken exchange. Sheds are retried with
// backoff per the client's RetryPolicy before being surfaced.
type Client struct {
	base    string
	http    *http.Client
	retry   RetryPolicy
	retries atomic.Int64
	dials   atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand
}

// idleConnsPerHost is how many keep-alive connections a client pools: at
// least as many as a coordinator streams to one shard at once (its site
// fan-out of 4), so a warm client dials nothing.
const idleConnsPerHost = 8

// NewClient builds a client for a server base URL ("http://host:port")
// with DefaultRetry installed. Each client has its own connection pool
// and counts the connections it dials.
func NewClient(base string) *Client {
	c := &Client{
		base:  base,
		retry: DefaultRetry,
		rng:   rand.New(rand.NewSource(int64(len(base)) + 0x9e3779b9)),
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = idleConnsPerHost
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dial(ctx, network, addr)
		if err == nil {
			c.dials.Add(1)
		}
		return conn, err
	}
	c.http = &http.Client{Timeout: 2 * time.Minute, Transport: tr}
	return c
}

// ConnectionsOpened reports how many connections the client has dialed.
func (c *Client) ConnectionsOpened() int64 { return c.dials.Load() }

// CloseIdleConnections closes the client's pooled keep-alive connections,
// so a server shutting down does not wait on them.
func (c *Client) CloseIdleConnections() { c.http.CloseIdleConnections() }

// WithRetry replaces the retry policy and returns the client, so callers
// can chain it off NewClient. RetryPolicy{} turns retrying off.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	c.retry = p
	return c
}

// WithBinaryWire does nothing and returns the client: streamed chunks are
// always binary and the buffered endpoints always answer JSON. It is kept
// only because benchmark/ calls it, and goes in the next benchmark-only
// change.
func (c *Client) WithBinaryWire(bool) *Client { return c }

// jitter spreads d over [d/2, 3d/2) so retries from many clients decohere.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.rngMu.Lock()
	f := 0.5 + c.rng.Float64()
	c.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// Outcome is one request's protocol-level result.
type Outcome struct {
	Status int
	// Response is set on 200.
	Response *QueryResponse
	// Err is set on non-2xx, decoded from the error body.
	Err *ErrorResponse
	// RetryAfter is the suggested backoff on 429.
	RetryAfter time.Duration
}

// Shed reports a 429 load-shed answer.
func (o *Outcome) Shed() bool { return o.Status == http.StatusTooManyRequests }

// OK reports a 200 answer.
func (o *Outcome) OK() bool { return o.Status == http.StatusOK }

func (c *Client) post(path string, body any) (*Outcome, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return c.postBytes(path, data)
}

// postJSON issues one POST of a JSON request body.
func (c *Client) postJSON(path string, data []byte) (*http.Response, error) {
	return c.http.Post(c.base+path, "application/json", bytes.NewReader(data))
}

func (c *Client) postBytes(path string, data []byte) (*Outcome, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.postJSON(path, data)
		if err != nil {
			return nil, err
		}
		out, err := decodeOutcome(resp)
		if err != nil || !out.Shed() || attempt >= c.retry.Max {
			return out, err
		}
		c.retries.Add(1)
		time.Sleep(c.jitter(c.retry.delay(attempt, out.RetryAfter)))
	}
}

func decodeOutcome(resp *http.Response) (*Outcome, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var qr QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			return nil, fmt.Errorf("server: malformed 200 body %q: %w", raw, err)
		}
		out.Response = &qr
		return out, nil
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		return nil, fmt.Errorf("server: malformed error body (status %d) %q: %w", resp.StatusCode, raw, err)
	}
	out.Err = &er
	if er.RetryAfterMS > 0 {
		out.RetryAfter = time.Duration(er.RetryAfterMS) * time.Millisecond
	}
	return out, nil
}

// Query runs one TPC-H query.
func (c *Client) Query(req QueryRequest) (*Outcome, error) { return c.post("/v1/query", req) }

// Flavors pulls the server's flavor-knowledge snapshot — one half of the
// federation gossip exchange.
func (c *Client) Flavors() (service.KnowledgeSnapshot, error) {
	resp, err := c.http.Get(c.base + "/v1/flavors")
	if err != nil {
		return service.KnowledgeSnapshot{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return service.KnowledgeSnapshot{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return service.KnowledgeSnapshot{}, fmt.Errorf("server: flavors: status %d: %s", resp.StatusCode, raw)
	}
	var snap service.KnowledgeSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return service.KnowledgeSnapshot{}, err
	}
	return snap, nil
}

// PushFlavors merges a knowledge snapshot into the server's cache and
// returns how many estimates it accepted — the other half of gossip.
func (c *Client) PushFlavors(snap service.KnowledgeSnapshot) (int, error) {
	data, err := json.Marshal(snap)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Post(c.base+"/v1/flavors", "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("server: push flavors: status %d: %s", resp.StatusCode, raw)
	}
	var pr FlavorsPushResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		return 0, err
	}
	return pr.Accepted, nil
}

// Healthy reports whether /healthz answers 200.
func (c *Client) Healthy() bool {
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// WaitReady polls /healthz until it answers 200 or the timeout passes —
// the shared readiness helper for tests, the coordinator, distverify,
// and the benchmark.
func (c *Client) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Healthy() {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("server: %s not ready after %v", c.base, timeout)
}
