// Streaming variant of /v1/plan: the result travels as NDJSON frames —
// one schema header, size-capped row chunks in the binary columnar form
// (wirebin.go), then a trailer carrying the stats, the result
// fingerprint, and a sha256 over the exact chunk-line bytes — so a
// coordinator can fold partial tables into its merge while later chunks
// are still in flight. It is the only way one tier fetches a result from
// another; a stream that does not verify is an error, with no fallback.
package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"microadapt/internal/engine"
	"microadapt/internal/plan"
	"microadapt/internal/service"
)

// Frame discriminators of the NDJSON stream.
const (
	FrameHeader  = "header"
	FrameChunk   = "chunk"
	FrameTrailer = "trailer"
	FrameError   = "error"
)

// StreamFrame is one NDJSON line of a streaming plan response. Frame says
// which of the field groups is populated.
type StreamFrame struct {
	Frame string `json:"frame"`

	// Header fields: the plan name, the result schema as a zero-row wire
	// table, and the server's row cap per chunk.
	Plan      string     `json:"plan,omitempty"`
	Schema    *TableJSON `json:"schema,omitempty"`
	ChunkRows int        `json:"chunk_rows,omitempty"`

	// Chunk field: one size-capped slice of the result, in row order, in
	// the binary columnar form (wirebin.go), base64 on the wire. The chunk
	// digest hashes the frame's exact line bytes.
	Bin []byte `json:"bin,omitempty"`

	// Trailer fields: totals, the hex sha256 over the exact bytes of every
	// chunk line (newlines excluded), the whole-result fingerprint, and
	// the execution stats.
	Rows        int        `json:"rows,omitempty"`
	Chunks      int        `json:"chunks,omitempty"`
	SHA256      string     `json:"sha256,omitempty"`
	Fingerprint string     `json:"fingerprint,omitempty"`
	Stats       *StatsJSON `json:"stats,omitempty"`
	Session     string     `json:"session,omitempty"`

	// Error field: a mid-stream failure after the 200 status is committed.
	Error string `json:"error,omitempty"`
}

// handlePlanStream validates and executes a plan exactly like /v1/plan —
// same admission, deadline, shed and session semantics, all resolved
// before the status line is written — then streams the result instead of
// buffering it into one body.
func (s *Server) handlePlanStream(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	b, err := plan.UnmarshalPlan(req.Plan, s.svc.DB().TableByName)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if !s.checkSession(w, req.Session) {
		return
	}
	timeout := s.defaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	var tab *engine.Table
	var st service.JobStats
	if err := s.adm.Do(ctx, func() error {
		var jerr error
		tab, st, jerr = s.svc.ExecutePlan(b)
		return jerr
	}); err != nil {
		s.writeError(w, err)
		return
	}
	s.latency.Add(float64(time.Since(start)))
	s.adaptive.Add(st.AdaptiveCalls)
	s.offBest.Add(st.OffBestCalls)
	if req.Session != "" {
		s.sess.record(req.Session, st.AdaptiveCalls, st.OffBestCalls)
	}
	s.streamTable(w, b.Name(), req.Session, tab, statsJSON(st))
}

// streamTable writes the frame sequence for one result table. The 200 is
// committed before the first frame; any later failure can only be
// reported in-band as an error frame. Chunk frames carry the binary
// columnar body; the header's zero-row schema and the trailer are JSON
// (they hold no column values to speak of).
func (s *Server) streamTable(w http.ResponseWriter, name, session string, tab *engine.Table, st StatsJSON) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	writeLine := func(line []byte) bool {
		if _, err := w.Write(append(line, '\n')); err != nil {
			return false // client went away; nothing more to say
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	}
	fail := func(err error) {
		el, _ := json.Marshal(StreamFrame{Frame: FrameError, Error: err.Error()})
		writeLine(el)
	}
	writeFrame := func(f *StreamFrame) bool {
		line, err := json.Marshal(f)
		if err != nil {
			fail(err)
			return false
		}
		return writeLine(line)
	}

	schema := EncodeTable(tab.Slice(0, 0))
	if !writeFrame(&StreamFrame{Frame: FrameHeader, Plan: name, Schema: schema, ChunkRows: s.streamChunkRows}) {
		return
	}
	h := sha256.New()
	chunks := 0
	for lo := 0; lo < tab.Rows(); lo += s.streamChunkRows {
		hi := min(lo+s.streamChunkRows, tab.Rows())
		data, err := MarshalTableBin(EncodeTable(tab.Slice(lo, hi)))
		if err != nil {
			fail(err)
			return
		}
		line, err := json.Marshal(StreamFrame{Frame: FrameChunk, Bin: data})
		if err != nil {
			fail(err)
			return
		}
		h.Write(line)
		if !writeLine(line) {
			return
		}
		chunks++
	}
	writeFrame(&StreamFrame{
		Frame:       FrameTrailer,
		Rows:        tab.Rows(),
		Chunks:      chunks,
		SHA256:      hex.EncodeToString(h.Sum(nil)),
		Fingerprint: Fingerprint(tab),
		Stats:       &st,
		Session:     session,
	})
}

// StreamResult is the verified outcome of one streamed plan execution:
// what the trailer claimed, cross-checked against what actually arrived.
type StreamResult struct {
	Plan        string
	Session     string
	Schema      *TableJSON
	Rows        int
	Chunks      int
	Fingerprint string
	Stats       StatsJSON
}

// shedStreamError carries a 429 out of one streaming attempt so the retry
// loop can back off; it never escapes to callers.
type shedStreamError struct{ retryAfter time.Duration }

func (e *shedStreamError) Error() string { return "server: stream: shed" }

// EncodePlanRequest marshals a plan request once, so a coordinator can
// send identical bytes to every shard without re-encoding per shard.
func EncodePlanRequest(req PlanRequest) ([]byte, error) { return json.Marshal(req) }

// PlanEncoded is Plan with a pre-encoded request body.
func (c *Client) PlanEncoded(body []byte) (*Outcome, error) {
	return c.postBytes("/v1/plan", body)
}

// PlanStream ships a plan to the streaming endpoint, invoking onChunk for
// every decoded chunk in arrival (row) order, and returns the verified
// trailer. See PlanStreamEncoded for semantics.
func (c *Client) PlanStream(req PlanRequest, onChunk func(*TableJSON) error) (*StreamResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return c.PlanStreamEncoded(body, onChunk)
}

// PlanStreamEncoded is PlanStream with a pre-encoded request body. Shed
// (429) answers retry with backoff exactly like the buffered client —
// safely, because a shed is decided before any chunk is delivered. Any
// other non-200 answer, and any failure after the first frame
// (truncation, a chunk without a valid binary body, hash or count
// mismatch, remote error frame, onChunk error), surfaces as an error;
// rows already delivered to onChunk are unverified and the caller must
// discard them.
func (c *Client) PlanStreamEncoded(body []byte, onChunk func(*TableJSON) error) (*StreamResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := c.planStreamOnce(body, onChunk)
		var shed *shedStreamError
		if err == nil || !errors.As(err, &shed) {
			return res, err
		}
		if attempt >= c.retry.Max {
			return nil, fmt.Errorf("server: stream: shed %d times, giving up", attempt+1)
		}
		c.retries.Add(1)
		time.Sleep(c.jitter(c.retry.delay(attempt, shed.retryAfter)))
	}
}

func (c *Client) planStreamOnce(body []byte, onChunk func(*TableJSON) error) (*StreamResult, error) {
	resp, err := c.postJSON("/v1/plan/stream", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			return nil, fmt.Errorf("server: stream: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			return nil, &shedStreamError{retryAfter: time.Duration(er.RetryAfterMS) * time.Millisecond}
		}
		return nil, fmt.Errorf("server: stream: status %d: %s", resp.StatusCode, er.Error)
	}

	br := bufio.NewReader(resp.Body)
	h := sha256.New()
	res := &StreamResult{}
	sawHeader := false
	rows, chunks := 0, 0
	for {
		line, err := readFrameLine(br)
		if err != nil {
			// EOF (or any read error) before the trailer: the peer died
			// mid-stream or the connection was cut — the result is
			// unverifiable and must be discarded.
			return nil, fmt.Errorf("server: stream: truncated after %d chunks: %w", chunks, err)
		}
		var f StreamFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, fmt.Errorf("server: stream: malformed frame %q: %w", line, err)
		}
		switch f.Frame {
		case FrameHeader:
			if sawHeader {
				return nil, errors.New("server: stream: duplicate header frame")
			}
			sawHeader = true
			res.Plan, res.Schema = f.Plan, f.Schema
		case FrameChunk:
			if !sawHeader {
				return nil, errors.New("server: stream: chunk before header")
			}
			if len(f.Bin) == 0 {
				return nil, fmt.Errorf("server: stream: chunk %d has no bin body", chunks)
			}
			tab, err := UnmarshalTableBin(f.Bin)
			if err != nil {
				return nil, fmt.Errorf("server: stream: chunk %d: %w", chunks, err)
			}
			// Digest the exact line bytes, same as the server.
			h.Write(line)
			rows += tab.Rows
			chunks++
			if onChunk != nil {
				if err := onChunk(tab); err != nil {
					return nil, err
				}
			}
		case FrameTrailer:
			if !sawHeader {
				return nil, errors.New("server: stream: trailer before header")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != f.SHA256 {
				return nil, fmt.Errorf("server: stream: chunk digest %s does not match trailer %s", got, f.SHA256)
			}
			if rows != f.Rows || chunks != f.Chunks {
				return nil, fmt.Errorf("server: stream: received %d rows in %d chunks, trailer claims %d in %d",
					rows, chunks, f.Rows, f.Chunks)
			}
			res.Session, res.Rows, res.Chunks, res.Fingerprint = f.Session, f.Rows, f.Chunks, f.Fingerprint
			if f.Stats != nil {
				res.Stats = *f.Stats
			}
			return res, nil
		case FrameError:
			return nil, fmt.Errorf("server: stream: remote error: %s", f.Error)
		default:
			return nil, fmt.Errorf("server: stream: unknown frame kind %q", f.Frame)
		}
	}
}

// readFrameLine reads one NDJSON line without a size cap (a chunk line is
// bounded by the server's chunk-row cap, not by bufio.Scanner's token
// limit), returning it with the trailing newline stripped.
func readFrameLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		if err == io.EOF && len(bytes.TrimSpace(line)) > 0 {
			return nil, fmt.Errorf("partial frame at EOF: %w", err)
		}
		return nil, err
	}
	return bytes.TrimSuffix(line, []byte{'\n'}), nil
}
