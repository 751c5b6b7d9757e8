package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"microadapt/internal/engine"
	"microadapt/internal/plan"
	"microadapt/internal/tpch"
	"microadapt/internal/vector"
)

func marshalQueryPlan(t *testing.T, q int) []byte {
	t.Helper()
	data, err := plan.MarshalPlan(tpch.Query(q).Plan(testDB))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// planBody encodes a plan request the way the coordinator and the
// benchmark do, for PlanEncoded and PlanStreamEncoded.
func planBody(t *testing.T, req PlanRequest) []byte {
	t.Helper()
	body, err := EncodePlanRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestPlanStreamBitIdentical: a small chunk cap splits the result into
// frames of at most that many rows, the header carries the schema and the
// trailer the stats. That the stitched chunks equal in-process execution
// is the http-stream row of TestIdentityOracle (internal/dist).
func TestPlanStreamBitIdentical(t *testing.T) {
	_, c := startTestServer(t, Config{StreamChunkRows: 7})
	var sizes []int
	res, err := c.PlanStreamEncoded(planBody(t, PlanRequest{Plan: marshalQueryPlan(t, 13)}), func(tj *TableJSON) error {
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
	res, err := c.PlanStreamEncoded(planBody(t, PlanRequest{Plan: wire}), func(*TableJSON) error { calls++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 || res.Chunks != 0 || res.Rows != 0 {
		t.Errorf("empty result: %d callbacks, %d chunks, %d rows; want all zero", calls, res.Chunks, res.Rows)
	}
}

// TestPlanStreamErrors: bad plans, unknown fields and a peer without
// the endpoint all answer with ordinary status errors before any frame.
func TestPlanStreamErrors(t *testing.T) {
	_, c := startTestServer(t, Config{})
	if _, err := c.PlanStreamEncoded(planBody(t, PlanRequest{Plan: []byte(`{"name":"X","nodes":[],"roots":[]}`)}), nil); err == nil {
		t.Error("malformed plan streamed without error")
	}
	body := `{"plan":` + string(marshalQueryPlan(t, 6)) + `,"session":"x"}`
	_, err := c.PlanStreamEncoded([]byte(body), nil)
	if err == nil || !strings.Contains(err.Error(), "status 400") || !strings.Contains(err.Error(), `"session"`) {
		t.Errorf("session field: err = %v, want a 400 naming the field", err)
	}

	// A peer without the endpoint: plain-text 404 from its mux.
	missing := httptest.NewServer(http.NotFoundHandler())
	defer missing.Close()
	if _, err := NewClient(missing.URL).PlanStreamEncoded([]byte(`{}`), nil); err == nil ||
		!strings.Contains(err.Error(), "status 404") {
		t.Errorf("missing endpoint: err = %v, want a status 404 error", err)
	}
}

// TestPlanStreamABI pins the exact bytes of a stream — header, two
// chunks, trailer — for a three-row table at a two-row chunk cap, so a
// change to the frame layout, the MWT1 body or the trailer cannot pass
// silently.
func TestPlanStreamABI(t *testing.T) {
	tab := engine.NewTable("t",
		vector.Schema{{Name: "k", Type: vector.I64}, {Name: "s", Type: vector.Str}},
		[]*vector.Vector{vector.FromI64([]int64{1, -1, 258}), vector.FromStr([]string{"a", "", "bc"})})
	st := StatsJSON{LatencyUS: 5, PrimCycles: 1.5, Instances: 2, AdaptiveCalls: 3, OffBestCalls: 1}
	rec := httptest.NewRecorder()
	streamTable(rec, tab, 2, st)

	unhex := func(s string) []byte {
		b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	trailer := `{"rows":3,"chunks":2,"sha256":"` +
		`fd071968335df8129cf572388149c7374486fccd628b8117948291836f351471",` + // sha256 of both chunk payloads

		`"stats":{"latency_us":5,"prim_cycles":1.5,"instances":2,"adaptive_calls":3,"off_best_calls":1}}`
	want := slices.Concat(
		// 'H', 14 bytes: MWT1, name "t", 0 rows, 2 cols: k slng, s str.
		unhex("48 0e000000"), unhex("4d575431 0174 00 02 016b 03 0173 05"),
		// 'C', 33 bytes: 2 rows; k = 1, -1; s = "a", "".
		unhex("43 21000000"), unhex("4d575431 0174 02 02 016b 03 0100000000000000 ffffffffffffffff 0173 05 0161 00"),
		// 'C', 25 bytes: 1 row; k = 258; s = "bc".
		unhex("43 19000000"), unhex("4d575431 0174 01 02 016b 03 0201000000000000 0173 05 026263"),
		// 'T', the JSON trailer.
		unhex("54"), binary.LittleEndian.AppendUint32(nil, uint32(len(trailer))), []byte(trailer),
	)
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("stream bytes\n got %x\nwant %x", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type %q, want application/octet-stream", ct)
	}

	var got []*TableJSON
	res, err := readStream(bytes.NewReader(want), func(tj *TableJSON) error {
		got = append(got, tj)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 3 || res.Chunks != 2 || res.Stats != st || len(res.Schema.Cols) != 2 {
		t.Errorf("read back %+v", res)
	}
	if len(got) != 2 || bitDiff(got[0], EncodeTable(tab.Slice(0, 2))) != "" ||
		bitDiff(got[1], EncodeTable(tab.Slice(2, 3))) != "" {
		t.Errorf("chunks read back differ from the table's slices: %+v", got)
	}
}

// frame is one stream frame: kind, uint32 little-endian length, payload.
func frame(kind byte, payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32([]byte{kind}, uint32(len(payload))), payload...)
}

// chunkPayload is the MWT1 body of a one-column table holding vals.
func chunkPayload(t *testing.T, vals ...int64) []byte {
	t.Helper()
	data, err := MarshalTableBin(&TableJSON{
		Name: "t", Rows: len(vals), Cols: []ColumnJSON{{Name: "k", Type: "slng", I64: vals}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// trailerFrame is a trailer claiming rows over the given chunk payloads.
func trailerFrame(t *testing.T, rows int, chunks ...[]byte) []byte {
	t.Helper()
	h := sha256.New()
	for _, c := range chunks {
		h.Write(c)
	}
	data, err := json.Marshal(streamTrailer{Rows: rows, Chunks: len(chunks), SHA256: hex.EncodeToString(h.Sum(nil))})
	if err != nil {
		t.Fatal(err)
	}
	return frame(frameTrailer, data)
}

// streamFrames is a valid stream of a tiny table: header, one chunk,
// trailer.
func streamFrames(t *testing.T) (header, chunk, trailer []byte) {
	t.Helper()
	payload := chunkPayload(t, 1, 2)
	return frame(frameHeader, chunkPayload(t)), frame(frameChunk, payload), trailerFrame(t, 2, payload)
}

// TestPlanStreamFailureModes: truncation anywhere, digest or count
// mismatch, remote error frames, frames out of order or of unknown kind,
// bytes after the trailer, and chunks without a valid binary body all
// fail the read. A chunk whose body is missing or corrupt is rejected
// before onChunk sees it.
func TestPlanStreamFailureModes(t *testing.T) {
	header, chunk, trailer := streamFrames(t)
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	cases := []struct {
		name        string
		stream      []byte
		want        string
		undelivered bool // the read must fail before onChunk runs
	}{
		{name: "truncated-before-trailer", stream: cat(header, chunk), want: "truncated"},
		{name: "truncated-in-prefix", stream: cat(header, chunk[:3]), want: "truncated", undelivered: true},
		{name: "truncated-mid-chunk", stream: cat(header, chunk[:len(chunk)-2]), want: "truncated", undelivered: true},
		{name: "digest-mismatch", stream: cat(header, frame(frameChunk, chunkPayload(t, 1, 3)), trailer), want: "digest"},
		{name: "trailer-count-lie", stream: cat(header, chunk, trailerFrame(t, 3, chunkPayload(t, 1, 2))),
			want: "trailer claims 3"},
		{name: "remote-error-frame", stream: cat(header, frame(frameError, []byte("shard exploded"))),
			want: "shard exploded"},
		{name: "chunk-before-header", stream: cat(chunk, trailer), want: "'C' frame before header", undelivered: true},
		{name: "first-frame-not-header", stream: cat(trailerFrame(t, 0)), want: "'T' frame before header"},
		{name: "unknown-kind", stream: cat(header, frame('X', chunkPayload(t, 1, 2)), trailer),
			want: "unknown frame kind 'X'", undelivered: true},
		{name: "data-after-trailer", stream: cat(header, chunk, trailer, header), want: "after trailer"},
		{name: "chunk-without-bin", stream: cat(header, frame(frameChunk, nil), trailer),
			want: "bad magic", undelivered: true},
		{name: "corrupt-bin", stream: cat(header, frame(frameChunk, []byte("XXXX")), trailer),
			want: "bad magic", undelivered: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			delivered := 0
			_, err := readStream(bytes.NewReader(tc.stream), func(*TableJSON) error {
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

	// A length claim over the cap is rejected from the prefix alone,
	// before anything is allocated for it or read past it.
	t.Run("length-over-cap", func(t *testing.T) {
		over := binary.LittleEndian.AppendUint32([]byte{frameChunk}, maxFrameBytes+1)
		tail := []byte("payload bytes that must stay unread")
		r := bytes.NewReader(cat(header, over, tail))
		_, err := readStream(r, nil)
		if err == nil || !strings.Contains(err.Error(), "maxFrameBytes") {
			t.Errorf("err = %v, want it to name maxFrameBytes", err)
		}
		if r.Len() != len(tail) {
			t.Errorf("reader consumed %d bytes past the prefix", len(tail)-r.Len())
		}
	})
}

// TestPlanStreamShedRetry: a 429 before any frame retries with backoff
// inside the client, exactly like the buffered path.
func TestPlanStreamShedRetry(t *testing.T) {
	header, chunk, trailer := streamFrames(t)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "shed", RetryAfterMS: 1})
			return
		}
		w.Write(bytes.Join([][]byte{header, chunk, trailer}, nil))
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
	if c.retries.Load() != 2 {
		t.Errorf("client recorded %d retries, want 2", c.retries.Load())
	}
}

// FuzzPlanStream: arbitrary bytes never panic the stream reader, every
// chunk it delivers re-marshals and decodes to an equal table, and a
// stream it accepts delivered exactly the rows and chunks its trailer
// claims. Seeds are the writer's streams of every wireBinCases table at a
// two-row chunk cap, plus the empty stream.
func FuzzPlanStream(f *testing.F) {
	for _, tj := range wireBinCases() {
		tab, err := DecodeTable(tj)
		if err != nil {
			f.Fatalf("%s: %v", tj.Name, err)
		}
		rec := httptest.NewRecorder()
		streamTable(rec, tab, 2, StatsJSON{})
		if _, err := readStream(bytes.NewReader(rec.Body.Bytes()), nil); err != nil {
			f.Fatalf("%s: seed stream does not verify: %v", tj.Name, err)
		}
		f.Add(rec.Body.Bytes())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, chunks := 0, 0
		res, err := readStream(bytes.NewReader(data), func(tj *TableJSON) error {
			re, err := MarshalTableBin(tj)
			if err != nil {
				t.Fatalf("delivered chunk does not re-marshal: %v", err)
			}
			back, err := UnmarshalTableBin(re)
			if err != nil || bitDiff(back, tj) != "" {
				t.Fatalf("delivered chunk does not survive a re-marshal (err %v)", err)
			}
			rows += tj.Rows
			chunks++
			return nil
		})
		if err == nil && (res.Rows != rows || res.Chunks != chunks) {
			t.Fatalf("accepted stream delivered %d rows in %d chunks, trailer claims %d in %d",
				rows, chunks, res.Rows, res.Chunks)
		}
	})
}
