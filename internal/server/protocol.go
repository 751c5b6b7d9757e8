// Wire protocol of madaptd: the JSON request/response bodies, the result
// fingerprint, and a typed-column table encoding that survives a wire
// round trip bit-identically. Finite floats survive JSON because
// encoding/json prints float64 in shortest form, which decodes back to
// the same bits; non-finite floats (NaN, ±Inf) cannot be represented in
// JSON at all, so on the JSON path (/v1/query, /v1/plan) they travel
// losslessly as raw IEEE-754 bits in the F64Bits escape column (see
// EscapeNonFinite). Streamed chunks between tiers use the binary form
// (wirebin.go), where every float ships as raw bits to begin with.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"microadapt/internal/engine"
	"microadapt/internal/service"
	"microadapt/internal/vector"
)

// QueryRequest asks the server to run one TPC-H query by number.
type QueryRequest struct {
	// Session is a session id from POST /v1/session; empty runs
	// sessionless (still warm-started from the shared cache, but not
	// counted against any client session).
	Session string `json:"session,omitempty"`
	// Query is the TPC-H query number, 1-22.
	Query int `json:"query"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// IncludeResult returns the full result table, not just its
	// fingerprint. The soak harness samples with this on to prove wire
	// results bit-identical to in-process execution.
	IncludeResult bool `json:"include_result,omitempty"`
}

// PlanRequest ships a client-built logical plan (the plan JSON wire form
// produced by plan.MarshalPlan) for server-side validation and execution.
type PlanRequest struct {
	Session       string          `json:"session,omitempty"`
	Plan          json.RawMessage `json:"plan"`
	TimeoutMS     int             `json:"timeout_ms,omitempty"`
	IncludeResult bool            `json:"include_result,omitempty"`
}

// StatsJSON is the per-job execution statistics in wire form.
type StatsJSON struct {
	LatencyUS     int64   `json:"latency_us"`
	PrimCycles    float64 `json:"prim_cycles"`
	Instances     int     `json:"instances"`
	AdaptiveCalls int64   `json:"adaptive_calls"`
	OffBestCalls  int64   `json:"off_best_calls"`
}

func statsJSON(st service.JobStats) StatsJSON {
	return StatsJSON{
		LatencyUS:     st.Latency.Microseconds(),
		PrimCycles:    st.PrimCycles,
		Instances:     st.Instances,
		AdaptiveCalls: st.AdaptiveCalls,
		OffBestCalls:  st.OffBestCalls,
	}
}

// QueryResponse is the success body of /v1/query and /v1/plan.
type QueryResponse struct {
	Query       int        `json:"query,omitempty"` // 0 for plan requests
	Plan        string     `json:"plan,omitempty"`  // plan name for plan requests
	Session     string     `json:"session,omitempty"`
	Rows        int        `json:"rows"`
	Fingerprint string     `json:"fingerprint"`
	Stats       StatsJSON  `json:"stats"`
	Result      *TableJSON `json:"result,omitempty"`
}

// ResultTable returns the response's result table in wire form. nil
// means the response carried no result (the request did not set
// IncludeResult). The error is always nil; it stays in the signature for
// existing callers.
func (r *QueryResponse) ResultTable() (*TableJSON, error) {
	return r.Result, nil
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterMS accompanies 429 (load shed): how long the client
	// should back off. Mirrors the Retry-After header in milliseconds,
	// since the header's granularity is whole seconds.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// SessionResponse is the body of POST /v1/session.
type SessionResponse struct {
	Session string `json:"session"`
}

// Fingerprint digests a result table — full render plus row count, the
// same material the service equivalence tests compare — into a short hex
// string clients can check without shipping the table.
func Fingerprint(t *engine.Table) string {
	h := sha256.New()
	fmt.Fprintf(h, "%srows=%d", engine.TableString(t, 0), t.Rows())
	return hex.EncodeToString(h.Sum(nil))
}

// ColumnJSON is one typed column of a wire-encoded result. Exactly one of
// the value arrays is set, per Type.
type ColumnJSON struct {
	Name string `json:"name"`
	// Type uses the engine's type names: schr, sint, slng, dbl, str.
	// Integer columns of every width travel in I64.
	Type string    `json:"type"`
	I64  []int64   `json:"i64,omitempty"`
	F64  []float64 `json:"f64,omitempty"`
	Str  []string  `json:"str,omitempty"`
	// F64Bits replaces F64 when the column holds any non-finite value:
	// encoding/json rejects NaN and ±Inf outright, so such columns travel
	// as raw IEEE-754 bits (exactly representable as JSON integers).
	// Exactly one of F64 and F64Bits is set on a dbl column.
	F64Bits []uint64 `json:"f64b,omitempty"`
}

// f64Len is the row count of a dbl column in either representation.
func (c *ColumnJSON) f64Len() int {
	if len(c.F64Bits) > 0 {
		return len(c.F64Bits)
	}
	return len(c.F64)
}

// f64Bit is row r's raw bits in either representation.
func (c *ColumnJSON) f64Bit(r int) uint64 {
	if len(c.F64Bits) > 0 {
		return c.F64Bits[r]
	}
	return math.Float64bits(c.F64[r])
}

// TableJSON is a result table in wire form.
type TableJSON struct {
	Name string       `json:"name"`
	Rows int          `json:"rows"`
	Cols []ColumnJSON `json:"cols"`
}

// EscapeNonFinite rewrites every dbl column containing a NaN or ±Inf
// into its F64Bits form, so the table survives json.Marshal losslessly.
// Columns of only finite values keep the readable F64 form. It returns
// the table for chaining and must be called on every table bound for a
// JSON response body — json.Marshal fails outright on non-finite floats.
func (t *TableJSON) EscapeNonFinite() *TableJSON {
	if t == nil {
		return nil
	}
	for ci := range t.Cols {
		c := &t.Cols[ci]
		finite := true
		for _, v := range c.F64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
				break
			}
		}
		if finite {
			continue
		}
		c.F64Bits = make([]uint64, len(c.F64))
		for r, v := range c.F64 {
			c.F64Bits[r] = math.Float64bits(v)
		}
		c.F64 = nil
	}
	return t
}

// EncodeTable converts a result table to wire form.
func EncodeTable(t *engine.Table) *TableJSON {
	out := &TableJSON{Name: t.Name, Rows: t.Rows(), Cols: make([]ColumnJSON, len(t.Sch))}
	for ci, f := range t.Sch {
		col := ColumnJSON{Name: f.Name, Type: f.Type.String()}
		v := t.Cols[ci]
		switch f.Type {
		case vector.I16, vector.I32, vector.I64:
			col.I64 = make([]int64, t.Rows())
			for r := range col.I64 {
				col.I64[r] = v.GetI64(r)
			}
		case vector.F64:
			col.F64 = make([]float64, t.Rows())
			for r := range col.F64 {
				col.F64[r] = v.GetF64(r)
			}
		case vector.Str:
			col.Str = make([]string, t.Rows())
			for r := range col.Str {
				col.Str[r] = v.GetStr(r)
			}
		}
		out.Cols[ci] = col
	}
	return out
}

// DecodeTable rebuilds an engine table from its wire form — the inverse
// of EncodeTable. Integer columns travel widened to I64, so decode
// narrows them back per the declared type name, rejecting out-of-range
// values rather than silently truncating: the coordinator feeds decoded
// shard partials straight into merge and Preset, and a corrupt wire
// table must fail loudly there, not fingerprint-mismatch later.
func DecodeTable(tj *TableJSON) (*engine.Table, error) {
	if tj == nil {
		return nil, fmt.Errorf("server: decode table: nil table")
	}
	sch := make(vector.Schema, len(tj.Cols))
	cols := make([]*vector.Vector, len(tj.Cols))
	for ci := range tj.Cols {
		c := &tj.Cols[ci]
		typ, err := typeByName(c.Type)
		if err != nil {
			return nil, fmt.Errorf("server: decode table %s col %s: %w", tj.Name, c.Name, err)
		}
		sch[ci] = vector.Col{Name: c.Name, Type: typ}
		var vals int
		switch typ {
		case vector.F64:
			if len(c.F64) > 0 && len(c.F64Bits) > 0 {
				return nil, fmt.Errorf("server: decode table %s col %s: both f64 and f64b set", tj.Name, c.Name)
			}
			vals = c.f64Len()
		case vector.Str:
			vals = len(c.Str)
		default:
			vals = len(c.I64)
		}
		if vals != tj.Rows {
			return nil, fmt.Errorf("server: decode table %s col %s: %d values, want %d rows",
				tj.Name, c.Name, vals, tj.Rows)
		}
		switch typ {
		case vector.I16:
			xs := make([]int16, vals)
			for r, v := range c.I64 {
				if v < math.MinInt16 || v > math.MaxInt16 {
					return nil, fmt.Errorf("server: decode table %s col %s row %d: %d overflows %s",
						tj.Name, c.Name, r, v, c.Type)
				}
				xs[r] = int16(v)
			}
			cols[ci] = vector.FromI16(xs)
		case vector.I32:
			xs := make([]int32, vals)
			for r, v := range c.I64 {
				if v < math.MinInt32 || v > math.MaxInt32 {
					return nil, fmt.Errorf("server: decode table %s col %s row %d: %d overflows %s",
						tj.Name, c.Name, r, v, c.Type)
				}
				xs[r] = int32(v)
			}
			cols[ci] = vector.FromI32(xs)
		case vector.I64:
			xs := make([]int64, vals)
			copy(xs, c.I64)
			cols[ci] = vector.FromI64(xs)
		case vector.F64:
			xs := make([]float64, vals)
			if len(c.F64Bits) > 0 {
				for r, b := range c.F64Bits {
					xs[r] = math.Float64frombits(b)
				}
			} else {
				copy(xs, c.F64)
			}
			cols[ci] = vector.FromF64(xs)
		case vector.Str:
			xs := make([]string, vals)
			copy(xs, c.Str)
			cols[ci] = vector.FromStr(xs)
		}
	}
	return engine.NewTable(tj.Name, sch, cols), nil
}

func typeByName(name string) (vector.Type, error) {
	switch name {
	case vector.I16.String():
		return vector.I16, nil
	case vector.I32.String():
		return vector.I32, nil
	case vector.I64.String():
		return vector.I64, nil
	case vector.F64.String():
		return vector.F64, nil
	case vector.Str.String():
		return vector.Str, nil
	}
	return 0, fmt.Errorf("unknown column type %q", name)
}

// Equal reports whether two wire tables hold bit-identical results.
// Float comparison is over raw IEEE-754 bits (math.Float64bits), not ==:
// the wire encoding preserves float64 bits exactly, so any bit
// difference is a real divergence — and a NaN-bearing table must still
// compare equal to itself, which == would deny (NaN != NaN). The bits
// comparison also distinguishes +0 from -0, deliberately: those are
// different bit patterns a correct round trip must preserve. A column in
// F64Bits escape form compares equal to its plain-F64 twin.
func (t *TableJSON) Equal(o *TableJSON) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Rows != o.Rows || len(t.Cols) != len(o.Cols) {
		return false
	}
	for i := range t.Cols {
		a, b := &t.Cols[i], &o.Cols[i]
		if a.Name != b.Name || a.Type != b.Type ||
			len(a.I64) != len(b.I64) || a.f64Len() != b.f64Len() || len(a.Str) != len(b.Str) {
			return false
		}
		for r := range a.I64 {
			if a.I64[r] != b.I64[r] {
				return false
			}
		}
		for r := 0; r < a.f64Len(); r++ {
			if a.f64Bit(r) != b.f64Bit(r) {
				return false
			}
		}
		for r := range a.Str {
			if a.Str[r] != b.Str[r] {
				return false
			}
		}
	}
	return true
}
