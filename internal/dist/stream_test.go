package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"microadapt/internal/server"
	"microadapt/internal/service"
)

// proxyShard fronts a real shard and reverse-proxies everything to it,
// except that while broken is set its /v1/plan/stream requests go to
// stream instead, so tests can break one shard's stream and heal it.
func proxyShard(t *testing.T, backend string, broken *atomic.Bool, stream http.HandlerFunc) string {
	t.Helper()
	target, err := url.Parse(backend)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/plan/stream" && broken.Load() {
			stream(w, r)
			return
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// relayStream forwards the streaming request to the backend and relays
// its frames (header first, at index 0) through edit, which may rewrite a
// frame's payload or return nil to cut the connection before it. Frames
// are read by their 5-byte prefix: a kind byte and a uint32
// little-endian payload length.
func relayStream(backend string, edit func(i int, kind byte, payload []byte) []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		resp, err := http.Post(backend+"/v1/plan/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		var prefix [5]byte
		for i := 0; ; i++ {
			if _, err := io.ReadFull(resp.Body, prefix[:]); err != nil {
				return
			}
			payload := make([]byte, binary.LittleEndian.Uint32(prefix[1:]))
			if _, err := io.ReadFull(resp.Body, payload); err != nil {
				return
			}
			if payload = edit(i, prefix[0], payload); payload == nil {
				panic(http.ErrAbortHandler) // cut the connection mid-stream
			}
			binary.LittleEndian.PutUint32(prefix[1:], uint32(len(payload)))
			w.Write(prefix[:])
			w.Write(payload)
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
		}
	}
}

// cutAfterFirstChunk relays the header and at most one chunk frame: a
// shard dying mid-stream after real rows were already delivered.
func cutAfterFirstChunk(i int, _ byte, payload []byte) []byte {
	if i >= 2 {
		return nil
	}
	return payload
}

// lieAboutDigest relays the stream intact except for the trailer's
// sha256, which no longer matches the chunk payloads.
func lieAboutDigest(_ int, kind byte, payload []byte) []byte {
	if kind != 'T' {
		return payload
	}
	return bytes.Replace(payload, []byte(`"sha256":"`), []byte(`"sha256":"0`), 1)
}

// TestStreamingFallback: there is no fallback. A shard whose stream
// fails — endpoint missing, connection cut after a real chunk was
// folded, or a trailer digest that does not match the chunks — fails the
// query with an error naming that shard, and leaves nothing behind: once
// the shard is healthy again, the same coordinator's next queries are
// fingerprint-equal to single-process execution.
func TestStreamingFallback(t *testing.T) {
	svcCfg := service.DefaultConfig()
	single := service.New(testDB, svcCfg)

	cases := []struct {
		name   string
		stream func(backend string) http.HandlerFunc
		want   string
	}{
		{"endpoint-missing", func(string) http.HandlerFunc { return http.NotFound }, "status 404"},
		{"dies-mid-stream", func(b string) http.HandlerFunc { return relayStream(b, cutAfterFirstChunk) }, "truncated"},
		{"bad-digest", func(b string) http.HandlerFunc { return relayStream(b, lieAboutDigest) }, "digest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Tiny stream chunks so the mid-stream cut happens after a real
			// chunk was folded into the merge.
			urls := startShards(t, testDB, 2, svcCfg, server.Config{StreamChunkRows: 16})
			var broken atomic.Bool
			broken.Store(true)
			urls[1] = proxyShard(t, urls[1], &broken, tc.stream(urls[1]))
			c := newCoordinator(t, Config{Shards: urls, DB: testDB, Service: svcCfg})
			for _, q := range []int{1, 14} {
				_, _, err := c.Execute(q)
				if err == nil {
					t.Fatalf("Q%02d: query over a broken shard stream succeeded", q)
				}
				if !strings.Contains(err.Error(), "shard "+urls[1]) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("Q%02d: err = %v; want it to name shard %s and mention %q", q, err, urls[1], tc.want)
				}
			}

			broken.Store(false)
			for _, q := range []int{1, 6, 14} {
				want, _, err := single.Execute(q)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := c.Execute(q)
				if err != nil {
					t.Fatalf("Q%02d after the shard healed: %v", q, err)
				}
				if server.Fingerprint(got) != server.Fingerprint(want) {
					t.Errorf("Q%02d: fingerprint differs after a failed %s query", q, tc.name)
				}
			}
		})
	}
}

// TestStreamingFallbackCounters: the fleet counters stay coherent while
// streams fail. fragments_sent counts every dispatched fragment, the
// attempts figure equals it (one transport, no retry), and only streams
// that verified end to end leave a time-to-first-chunk or round-trip
// sample: shard 1's streams die after delivering a first chunk, and their
// provisional samples must not reach the windows.
func TestStreamingFallbackCounters(t *testing.T) {
	svcCfg := service.DefaultConfig()
	urls := startShards(t, testDB, 2, svcCfg, server.Config{StreamChunkRows: 16})
	var broken atomic.Bool
	broken.Store(true)
	urls[1] = proxyShard(t, urls[1], &broken, relayStream(urls[1], cutAfterFirstChunk))
	c := newCoordinator(t, Config{Shards: urls, DB: testDB, Service: svcCfg})
	for _, q := range []int{1, 6, 14} {
		if _, _, err := c.Execute(q); err == nil {
			t.Fatalf("Q%02d: query over a dying shard succeeded", q)
		}
	}
	fleet := c.Fleet()
	if fleet.FragmentsSent == 0 {
		t.Fatal("no fragments sent")
	}
	if fleet.FragmentAttempts != fleet.FragmentsSent {
		t.Errorf("fragment attempts = %d, want fragments_sent = %d", fleet.FragmentAttempts, fleet.FragmentsSent)
	}
	// Every site sent one fragment per shard; shard 0 completed all of
	// them and shard 1 none.
	perShard := fleet.FragmentsSent / 2
	if got := c.ttfc.Count(); got != perShard {
		t.Errorf("TTFC window holds %d samples, want %d (completed streams only)", got, perShard)
	}
	if got := c.shards[0].lat.Count(); got != perShard {
		t.Errorf("healthy shard's round-trip window holds %d samples, want %d", got, perShard)
	}
	if got := c.shards[1].lat.Count(); got != 0 {
		t.Errorf("dying shard's round-trip window holds %d samples, want 0", got)
	}
}

// recordBodies wraps a shard so every fragment request body's digest is
// captured.
func recordBodies(t *testing.T, backend string, mu *sync.Mutex, got *[]string) string {
	t.Helper()
	target, _ := url.Parse(backend)
	rp := httputil.NewSingleHostReverseProxy(target)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/plan/stream" || r.URL.Path == "/v1/plan" {
			body, err := io.ReadAll(r.Body)
			r.Body.Close()
			if err != nil {
				t.Errorf("read fragment body: %v", err)
			}
			h := sha256.Sum256(body)
			mu.Lock()
			*got = append(*got, string(h[:]))
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestFragmentEncodeOncePerSite is the regression guard for the
// encode-once fix: every shard receives byte-identical fragment bodies,
// one per site. TestFragmentEncodeAllocsIndependentOfFleet checks the
// allocation side.
func TestFragmentEncodeOncePerSite(t *testing.T) {
	svcCfg := service.DefaultConfig()
	urls := startShards(t, testDB, 2, svcCfg, server.Config{})
	var mu sync.Mutex
	bodies := make([][]string, 2)
	for i := range urls {
		urls[i] = recordBodies(t, urls[i], &mu, &bodies[i])
	}
	c := newCoordinator(t, Config{Shards: urls, DB: testDB, Service: svcCfg})
	if _, _, err := c.Execute(14); err != nil { // two base tables -> two sites
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies[0]) < 2 {
		t.Fatalf("shard 0 saw %d fragment requests, want >= 2 (one per site)", len(bodies[0]))
	}
	sort.Strings(bodies[0])
	sort.Strings(bodies[1])
	if len(bodies[0]) != len(bodies[1]) {
		t.Fatalf("shards saw %d vs %d fragment requests", len(bodies[0]), len(bodies[1]))
	}
	for i := range bodies[0] {
		if bodies[0][i] != bodies[1][i] {
			t.Fatal("shards received different fragment body bytes for the same site")
		}
	}
}
