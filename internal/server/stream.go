// Streaming variant of /v1/plan: the result travels as a sequence of
// length-prefixed binary frames — one schema header, size-capped row
// chunks whose payloads are the binary columnar form (wirebin.go)
// itself, then a trailer carrying the totals, the stats and a sha256 over
// the chunk payloads — so a coordinator can fold partial tables into its
// merge while later chunks are still in flight. It is the only way one
// tier fetches a result from another; a stream that does not verify is an
// error, with no fallback.
//
// Every frame is
//
//	kind    1 byte: 'H' header, 'C' chunk, 'T' trailer, 'E' error
//	length  uint32 little-endian payload length, at most maxFrameBytes
//	payload length bytes
//
// The header's payload is the MWT1 encoding of the zero-row result table
// (the schema); each chunk's is the MWT1 encoding of at most
// Config.StreamChunkRows rows, in row order; the trailer's is a JSON
// streamTrailer (it holds no column values); an error frame's is a UTF-8
// message, sent when a failure follows the committed 200.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"microadapt/internal/engine"
	"microadapt/internal/service"
)

// Frame kinds of a /v1/plan/stream body.
const (
	frameHeader  byte = 'H'
	frameChunk   byte = 'C'
	frameTrailer byte = 'T'
	frameError   byte = 'E'
)

// framePrefixLen is the size of every frame's kind-and-length prefix.
const framePrefixLen = 5

// maxFrameBytes caps one frame's payload. The reader rejects a larger
// length claim before allocating for it, and the writer sends an error
// frame instead of a larger frame. At the default 4096-row chunk cap it
// allows 4 KiB per row; the widest TPC-H row, a whole lineitem row, is
// about 140 bytes in MWT1, so its chunks stay below 600 KiB.
const maxFrameBytes = 16 << 20

// streamTrailer is the trailer frame's payload: the totals, the hex sha256
// over every chunk payload in order, and the execution stats.
type streamTrailer struct {
	Rows   int       `json:"rows"`
	Chunks int       `json:"chunks"`
	SHA256 string    `json:"sha256"`
	Stats  StatsJSON `json:"stats"`
}

// handlePlanStream validates and executes a plan exactly like /v1/plan —
// same admission, deadline and shed semantics, all resolved before the
// status line is written — then streams the result instead of buffering
// it into one body. Frames are written after the admission slot
// is released, so a slow reader does not hold a worker.
func (s *Server) handlePlanStream(w http.ResponseWriter, r *http.Request) {
	req, b, ok := s.decodePlan(w, r)
	if !ok {
		return
	}
	var tab *engine.Table
	var st service.JobStats
	if s.execute(w, r, req.TimeoutMS, func() (_ service.JobStats, err error) {
		tab, st, err = s.svc.ExecutePlan(b)
		return st, err
	}) {
		streamTable(w, tab, s.streamChunkRows, statsJSON(st))
	}
}

// streamTable writes the frame sequence for one result table, in chunks
// of at most chunkRows rows. The 200 is committed before the first frame;
// any later failure can only be reported in-band as an error frame.
func streamTable(w http.ResponseWriter, tab *engine.Table, chunkRows int, st StatsJSON) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	// send writes one frame, or an error frame in its place if err is set
	// or the payload is over the cap, and flushes it so every frame
	// reaches the client as soon as it is produced. It reports whether
	// the stream may go on.
	send := func(kind byte, payload []byte, err error) bool {
		if err == nil && len(payload) > maxFrameBytes {
			err = fmt.Errorf("server: stream: %d-byte frame exceeds maxFrameBytes (%d)", len(payload), maxFrameBytes)
		}
		if err != nil {
			kind, payload = frameError, []byte(err.Error())
		}
		prefix := [framePrefixLen]byte{kind}
		binary.LittleEndian.PutUint32(prefix[1:], uint32(len(payload)))
		if _, werr := w.Write(prefix[:]); werr != nil {
			return false // client went away; nothing more to say
		}
		if _, werr := w.Write(payload); werr != nil {
			return false
		}
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		return err == nil
	}

	schema, err := MarshalTableBin(EncodeTable(tab.Slice(0, 0)))
	if !send(frameHeader, schema, err) {
		return
	}
	h := sha256.New()
	chunks := 0
	for lo := 0; lo < tab.Rows(); lo += chunkRows {
		hi := min(lo+chunkRows, tab.Rows())
		data, err := MarshalTableBin(EncodeTable(tab.Slice(lo, hi)))
		if !send(frameChunk, data, err) {
			return
		}
		h.Write(data)
		chunks++
	}
	trailer, err := json.Marshal(streamTrailer{
		Rows:   tab.Rows(),
		Chunks: chunks,
		SHA256: hex.EncodeToString(h.Sum(nil)),
		Stats:  st,
	})
	send(frameTrailer, trailer, err)
}

// StreamResult is the verified outcome of one streamed plan execution:
// what the trailer claimed, cross-checked against what actually arrived.
type StreamResult struct {
	// Schema is the header's zero-row result table.
	Schema *TableJSON
	Rows   int
	Chunks int
	Stats  StatsJSON
}

// shedStreamError carries a 429 out of one streaming attempt so the retry
// loop can back off; it never escapes to callers.
type shedStreamError struct{ retryAfter time.Duration }

func (e *shedStreamError) Error() string { return "server: stream: shed" }

// EncodePlanRequest marshals a plan request once, so a coordinator can
// send identical bytes to every shard without re-encoding per shard.
func EncodePlanRequest(req PlanRequest) ([]byte, error) { return json.Marshal(req) }

// PlanEncoded ships a plan request body built by EncodePlanRequest to
// /v1/plan for server-side validation and execution.
func (c *Client) PlanEncoded(body []byte) (*Outcome, error) {
	return c.postBytes("/v1/plan", body)
}

// PlanStreamEncoded ships a plan request body built by EncodePlanRequest to
// the streaming endpoint, invoking onChunk for every decoded chunk in
// arrival (row) order, and returns the verified trailer. Shed (429)
// answers retry with backoff exactly like the buffered client — safely,
// because a shed is decided before any chunk is delivered. Any other
// non-200 answer, and any failure after the status line (truncation, a
// malformed frame, a chunk that does not decode, hash or count mismatch,
// remote error frame, onChunk error), surfaces as an error; rows already
// delivered to onChunk are unverified and the caller must discard them.
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
	return readStream(resp.Body, onChunk)
}

// readStream reads one stream body from r: a header, chunks decoded and
// handed to onChunk in order, then a trailer they must match, then the
// end of r. A frame is checked for its kind, its place in the sequence and
// its length claim before any of its payload is read.
func readStream(r io.Reader, onChunk func(*TableJSON) error) (*StreamResult, error) {
	h := sha256.New()
	res := &StreamResult{}
	var prefix [framePrefixLen]byte
	for {
		if _, err := io.ReadFull(r, prefix[:]); err != nil {
			// EOF (or any read error) before the trailer: the peer died
			// mid-stream or the connection was cut — the result is
			// unverifiable and must be discarded.
			return nil, fmt.Errorf("server: stream: truncated after %d chunks: %w", res.Chunks, err)
		}
		kind, n := prefix[0], binary.LittleEndian.Uint32(prefix[1:])
		switch {
		case kind != frameHeader && kind != frameChunk && kind != frameTrailer && kind != frameError:
			return nil, fmt.Errorf("server: stream: unknown frame kind %q", kind)
		case n > maxFrameBytes:
			return nil, fmt.Errorf("server: stream: %q frame claims %d bytes, over maxFrameBytes (%d)", kind, n, maxFrameBytes)
		case kind == frameHeader && res.Schema != nil:
			return nil, errors.New("server: stream: duplicate header frame")
		case kind != frameHeader && kind != frameError && res.Schema == nil:
			return nil, fmt.Errorf("server: stream: %q frame before header", kind)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("server: stream: truncated in %q frame after %d chunks: %w", kind, res.Chunks, err)
		}

		switch kind {
		case frameHeader:
			schema, err := UnmarshalTableBin(payload)
			if err != nil {
				return nil, fmt.Errorf("server: stream: header: %w", err)
			}
			res.Schema = schema
		case frameChunk:
			tab, err := UnmarshalTableBin(payload)
			if err != nil {
				return nil, fmt.Errorf("server: stream: chunk %d: %w", res.Chunks, err)
			}
			h.Write(payload)
			res.Rows += tab.Rows
			res.Chunks++
			if onChunk != nil {
				if err := onChunk(tab); err != nil {
					return nil, err
				}
			}
		case frameTrailer:
			var tr streamTrailer
			if err := json.Unmarshal(payload, &tr); err != nil {
				return nil, fmt.Errorf("server: stream: malformed trailer: %w", err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tr.SHA256 {
				return nil, fmt.Errorf("server: stream: chunk digest %s does not match trailer %s", got, tr.SHA256)
			}
			if res.Rows != tr.Rows || res.Chunks != tr.Chunks {
				return nil, fmt.Errorf("server: stream: received %d rows in %d chunks, trailer claims %d in %d",
					res.Rows, res.Chunks, tr.Rows, tr.Chunks)
			}
			// The trailer ends the body. Reading up to the end also lets
			// the transport reuse the connection; a read error there
			// cannot change a result that has already verified.
			if n, _ := io.ReadFull(r, prefix[:1]); n > 0 {
				return nil, errors.New("server: stream: data after trailer")
			}
			res.Stats = tr.Stats
			return res, nil
		case frameError:
			return nil, fmt.Errorf("server: stream: remote error: %s", payload)
		}
	}
}
