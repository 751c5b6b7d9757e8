package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"microadapt/internal/plan"
	"microadapt/internal/tpch"
)

func marshalQueryPlan(t *testing.T, q int) []byte {
	t.Helper()
	data, err := plan.MarshalPlan(tpch.Query(q).Plan(testDB))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPlanStreamBitIdentical: a small chunk cap splits the result into
// frames of at most that many rows, the header carries the schema and the
// trailer the stats. That the stitched chunks and the trailer fingerprint
// equal in-process execution is the http-stream row of TestIdentityOracle
// (internal/dist).
func TestPlanStreamBitIdentical(t *testing.T) {
	_, c := startTestServer(t, Config{StreamChunkRows: 7})
	var sizes []int
	res, err := c.PlanStream(PlanRequest{Plan: marshalQueryPlan(t, 13)}, func(tj *TableJSON) error {
		sizes = append(sizes, tj.Rows)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows <= 7 {
		t.Fatalf("Q13 returned %d rows; the chunk cap 7 cannot show", res.Rows)
	}
	if slices.Max(sizes) > 7 {
		t.Errorf("chunk sizes %v exceed the cap 7", sizes)
	}
	if res.Schema == nil || len(res.Schema.Cols) == 0 {
		t.Error("header carried no schema")
	}
	if res.Stats.LatencyUS <= 0 {
		t.Error("trailer carried no stats")
	}
}

// TestPlanStreamEmptyResult: a zero-row result is a header and a trailer
// with no chunk frames, and still verifies.
func TestPlanStreamEmptyResult(t *testing.T) {
	_, c := startTestServer(t, Config{})
	b := plan.New("empty")
	tab := testDB.Tables()[0]
	b.Root(b.Scan(tab, tab.Sch[0].Name).Select(plan.CmpVal(0, "<", -1e15)))
	wire, err := plan.MarshalPlan(b)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	res, err := c.PlanStream(PlanRequest{Plan: wire}, func(*TableJSON) error { calls++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 || res.Chunks != 0 || res.Rows != 0 {
		t.Errorf("empty result: %d callbacks, %d chunks, %d rows; want all zero", calls, res.Chunks, res.Rows)
	}
}

// TestPlanStreamSessionAndErrors: bad plans, unknown sessions and a
// peer without the endpoint all answer with ordinary status errors
// before any frame.
func TestPlanStreamSessionAndErrors(t *testing.T) {
	_, c := startTestServer(t, Config{})
	if _, err := c.PlanStream(PlanRequest{Plan: []byte(`{"name":"X","nodes":[],"roots":[]}`)}, nil); err == nil {
		t.Error("malformed plan streamed without error")
	}
	_, err := c.PlanStream(PlanRequest{Plan: marshalQueryPlan(t, 6), Session: "nope"}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Errorf("unknown session: err = %v, want the server's unknown-session error", err)
	}

	// A peer without the endpoint: plain-text 404 from its mux.
	missing := httptest.NewServer(http.NotFoundHandler())
	defer missing.Close()
	if _, err := NewClient(missing.URL).PlanStreamEncoded([]byte(`{}`), nil); err == nil ||
		!strings.Contains(err.Error(), "status 404") {
		t.Errorf("missing endpoint: err = %v, want a status 404 error", err)
	}
}

// chunkLine is one binary chunk frame line holding a one-column table.
func chunkLine(t *testing.T, vals ...int64) string {
	t.Helper()
	data, err := MarshalTableBin(&TableJSON{
		Name: "t", Rows: len(vals), Cols: []ColumnJSON{{Name: "k", Type: "slng", I64: vals}},
	})
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(StreamFrame{Frame: FrameChunk, Bin: data})
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

// streamLines builds a valid frame sequence for a tiny table: header,
// one chunk, trailer.
func streamLines(t *testing.T) []string {
	t.Helper()
	chunk := chunkLine(t, 1, 2)
	h := sha256.Sum256([]byte(chunk))
	header, _ := json.Marshal(StreamFrame{Frame: FrameHeader, Plan: "t", Schema: &TableJSON{Name: "t"}})
	trailer, _ := json.Marshal(StreamFrame{Frame: FrameTrailer, Rows: 2, Chunks: 1,
		SHA256: hex.EncodeToString(h[:]), Fingerprint: "f"})
	return []string{string(header), chunk, string(trailer)}
}

// serveFrames answers every request with the given raw lines.
func serveFrames(lines []string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, ln := range lines {
			fmt.Fprintf(w, "%s\n", ln)
		}
	}))
}

// TestPlanStreamFailureModes: truncation mid-stream and mid-chunk, digest
// mismatch, remote error frames, and chunks without a valid binary body
// all fail the call. A chunk whose body is missing (such as a JSON
// "table" chunk) or corrupt is rejected before onChunk sees it.
func TestPlanStreamFailureModes(t *testing.T) {
	lines := streamLines(t)
	cases := []struct {
		name        string
		lines       []string
		raw         string // overrides lines when set, written verbatim
		want        string
		undelivered bool // the call must fail before onChunk runs
	}{
		{name: "truncated-before-trailer", lines: lines[:2], want: "truncated"},
		{name: "truncated-mid-chunk", raw: lines[0] + "\n" + lines[1][:len(lines[1])/2], want: "truncated"},
		{name: "digest-mismatch", lines: []string{lines[0], chunkLine(t, 1, 3), lines[2]}, want: "digest"},
		{name: "remote-error-frame", lines: []string{lines[0], `{"frame":"error","error":"shard exploded"}`},
			want: "shard exploded"},
		{name: "chunk-before-header", lines: lines[1:], want: "chunk before header"},
		{name: "trailer-count-lie", lines: []string{lines[0],
			strings.Replace(lines[2], `"rows":2`, `"rows":0`, 1)}, want: "digest"},
		{name: "chunk-without-bin", lines: []string{lines[0],
			`{"frame":"chunk","table":{"name":"t","rows":2,"cols":[{"name":"k","type":"slng","i64":[1,2]}]}}`, lines[2]},
			want: "no bin body", undelivered: true},
		{name: "corrupt-bin", lines: []string{lines[0], `{"frame":"chunk","bin":"WFhYWA=="}`, lines[2]},
			want: "bad magic", undelivered: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var srv *httptest.Server
			if tc.raw != "" {
				srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					fmt.Fprint(w, tc.raw)
				}))
			} else {
				srv = serveFrames(tc.lines)
			}
			defer srv.Close()
			delivered := 0
			_, err := NewClient(srv.URL).PlanStreamEncoded([]byte(`{}`), func(*TableJSON) error {
				delivered++
				return nil
			})
			if err == nil {
				t.Fatalf("corrupt stream verified cleanly (%d chunks delivered)", delivered)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
			if tc.undelivered && delivered != 0 {
				t.Errorf("%d chunks reached onChunk before the stream was rejected", delivered)
			}
		})
	}
}

// TestPlanStreamShedRetry: a 429 before any frame retries with backoff
// inside the client, exactly like the buffered path.
func TestPlanStreamShedRetry(t *testing.T) {
	lines := streamLines(t)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "shed", RetryAfterMS: 1})
			return
		}
		for _, ln := range lines {
			fmt.Fprintf(w, "%s\n", ln)
		}
	}))
	defer srv.Close()
	c := NewClient(srv.URL).WithRetry(RetryPolicy{Max: 4, Base: time.Millisecond, Cap: 5 * time.Millisecond})
	res, err := c.PlanStreamEncoded([]byte(`{}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 2 {
		t.Errorf("rows = %d, want 2", res.Rows)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	if c.Retries() != 2 {
		t.Errorf("client recorded %d retries, want 2", c.Retries())
	}
}
