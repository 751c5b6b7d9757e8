// Package server is madaptd's HTTP/JSON front end over internal/service:
// per-client sessions, a bounded admission queue with per-request
// deadlines, load shedding under saturation, graceful drain, and a
// /metrics endpoint reporting latency percentiles, off-best fraction and
// flavor-cache warm-start rates.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"microadapt/internal/engine"
	"microadapt/internal/plan"
	"microadapt/internal/service"
	"microadapt/internal/stats"
	"microadapt/internal/tpch"
)

// Executor is the execution backend a Server fronts. *service.Service is
// the single-process implementation; dist.Coordinator implements the same
// contract over a fleet of shard processes, so madaptd serves an
// identical HTTP surface whether it executes locally or distributes
// fragments.
type Executor interface {
	// Execute runs TPC-H query q (1-22).
	Execute(q int) (*engine.Table, service.JobStats, error)
	// ExecutePlan runs an already-validated logical plan.
	ExecutePlan(b *plan.Builder) (*engine.Table, service.JobStats, error)
	// DB exposes the table catalog plans are validated against. For a
	// coordinator this is a schema-only view — fragment execution happens
	// on the shards, so the coordinator's own tables may hold zero rows.
	DB() *tpch.DB
	// SeededInstances reports warm-start counters for /metrics.
	SeededInstances() (seeded, cold int64)
	// Cache is the flavor-knowledge store /v1/flavors exports and imports.
	Cache() *service.FlavorCache
}

// FleetMetrics extends /metrics when the executor fronts a shard fleet.
type FleetMetrics struct {
	Shards int `json:"shards"`
	// FragmentsSent counts fragments dispatched, one per site x shard,
	// each streamed over /v1/plan/stream.
	FragmentsSent int64 `json:"fragments_sent"`
	// FragmentAttempts always equals FragmentsSent: a fragment has one
	// transport and no retry. It is kept only because benchmark/ reads it,
	// and goes in the next benchmark-only change.
	FragmentAttempts int64 `json:"-"`
	GossipRounds     int64 `json:"gossip_rounds"`
	// GossipImported counts flavor estimates accepted from shards across
	// all gossip rounds.
	GossipImported int64 `json:"gossip_imported"`
	// Fragment round-trip latency percentiles across every shard, from
	// per-shard windows folded with stats.Window.Merge.
	FragmentP50US float64 `json:"fragment_p50_us"`
	FragmentP99US float64 `json:"fragment_p99_us"`
	// Time-to-first-chunk percentiles of streamed fragments: how long the
	// coordinator waited before its merge had rows to fold.
	TTFCP50US float64 `json:"ttfc_p50_us"`
	TTFCP99US float64 `json:"ttfc_p99_us"`
	// ConnectionsOpened counts connections dialed to shards; a warm
	// coordinator reuses pooled ones.
	ConnectionsOpened int64 `json:"connections_opened"`
}

// FleetReporter is an optional Executor capability: executors that fan
// work out to shards report fleet-wide numbers in /metrics.
type FleetReporter interface {
	Fleet() FleetMetrics
}

// Config parameterizes a Server. Only Service is required.
type Config struct {
	// Service executes the queries. Required. *service.Service for a
	// single-process server, dist.Coordinator for the front of a fleet.
	Service Executor
	// Workers is the number of concurrent query executors (default:
	// GOMAXPROCS via the admission controller).
	Workers int
	// QueueDepth bounds how many admitted requests may wait beyond the
	// executing ones (default 64; -1 means zero queue — admit only when a
	// worker is free).
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the client sends no
	// timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// RetryAfter is the backoff the server suggests on 429 (default 50ms).
	RetryAfter time.Duration
	// MaxSessions caps live sessions; beyond it the LRU session is
	// evicted (default 256).
	MaxSessions int
	// SessionTTL expires idle sessions (default 10m).
	SessionTTL time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// LatencyWindow is the sample capacity of the latency distribution
	// (default 4096).
	LatencyWindow int
	// StreamChunkRows caps the rows per binary chunk frame on
	// /v1/plan/stream (default 4096).
	StreamChunkRows int
	// Clock is injectable time for session-eviction tests (default
	// time.Now).
	Clock func() time.Time
}

// Server is the handler plus its admission controller and session map. It
// implements http.Handler; use Start for a listening instance with
// lifecycle helpers.
type Server struct {
	svc  Executor
	adm  *Admission
	sess *sessionMap
	mux  *http.ServeMux

	defaultTimeout  time.Duration
	retryAfter      time.Duration
	maxBody         int64
	streamChunkRows int

	latency  *stats.Window // end-to-end latency of executed requests, ns
	adaptive atomic.Int64  // adaptive primitive calls across all requests
	offBest  atomic.Int64  // of those, calls on a non-best flavor
}

// NewServer builds a server over an existing service.
func NewServer(cfg Config) *Server {
	if cfg.Service == nil {
		panic("server: Config.Service is required")
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 50 * time.Millisecond
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.LatencyWindow < 1 {
		cfg.LatencyWindow = 4096
	}
	if cfg.StreamChunkRows < 1 {
		cfg.StreamChunkRows = 4096
	}
	s := &Server{
		svc:             cfg.Service,
		adm:             NewAdmission(AdmissionConfig{Workers: cfg.Workers, QueueDepth: cfg.QueueDepth}),
		sess:            newSessionMap(cfg.MaxSessions, cfg.SessionTTL, cfg.Clock),
		mux:             http.NewServeMux(),
		defaultTimeout:  cfg.DefaultTimeout,
		retryAfter:      cfg.RetryAfter,
		maxBody:         cfg.MaxBodyBytes,
		streamChunkRows: cfg.StreamChunkRows,
		latency:         stats.NewWindow(cfg.LatencyWindow),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/session/{id}", s.handleSessionStats)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/plan/stream", s.handlePlanStream)
	s.mux.HandleFunc("GET /v1/flavors", s.handleFlavorsGet)
	s.mux.HandleFunc("POST /v1/flavors", s.handleFlavorsPost)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting queries, completes queued and in-flight work, and
// returns when the pool is idle. Health flips to draining immediately so
// load balancers stop routing here; query endpoints answer 503.
func (s *Server) Drain() { s.adm.Drain() }

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrShed):
		ms := s.retryAfter.Milliseconds()
		secs := (ms + 999) / 1000 // Retry-After is whole seconds; round up
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error(), RetryAfterMS: ms})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: "deadline exceeded"})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.adm.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.adm.Draining() {
		s.writeError(w, ErrDraining)
		return
	}
	writeJSON(w, http.StatusOK, SessionResponse{Session: s.sess.create().id})
}

func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	st, ok := s.sess.stats(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown session"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sess.drop(r.PathValue("id")) {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown session"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// decodeBody reads a bounded JSON body; unknown fields are errors so a
// client typo ("quer": 6) fails loudly instead of running query 0.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request: " + err.Error()})
		return false
	}
	return true
}

// checkSession validates an optional session id; empty is allowed.
func (s *Server) checkSession(w http.ResponseWriter, id string) bool {
	if id == "" {
		return true
	}
	if _, ok := s.sess.touch(id); !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown session " + id})
		return false
	}
	return true
}

// execute admits one decoded request and runs job in an admission slot,
// handling deadline, shedding, latency, adaptation counters and session
// accounting uniformly for every query endpoint. On failure it writes the
// error answer and reports false; on success the caller writes the 200.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, sessionID string, timeoutMS int,
	job func() (service.JobStats, error)) bool {
	timeout := s.defaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	var st service.JobStats
	err := s.adm.Do(ctx, func() (err error) {
		st, err = job()
		return err
	})
	if err != nil {
		s.writeError(w, err)
		return false
	}
	s.latency.Add(float64(time.Since(start)))
	s.adaptive.Add(st.AdaptiveCalls)
	s.offBest.Add(st.OffBestCalls)
	if sessionID != "" {
		s.sess.record(sessionID, st.AdaptiveCalls, st.OffBestCalls)
	}
	return true
}

// queryResponse builds a buffered endpoint's body. Callers build it
// inside the admitted job, so fingerprinting and encoding count against
// the worker and the request's latency.
func queryResponse(tab *engine.Table, st service.JobStats, includeResult bool) *QueryResponse {
	resp := &QueryResponse{Rows: tab.Rows(), Fingerprint: Fingerprint(tab), Stats: statsJSON(st)}
	if includeResult {
		resp.Result = EncodeTable(tab).EscapeNonFinite()
	}
	return resp
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Query < 1 || req.Query > 22 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("no TPC-H query %d", req.Query)})
		return
	}
	if !s.checkSession(w, req.Session) {
		return
	}
	var resp *QueryResponse
	if s.execute(w, r, req.Session, req.TimeoutMS, func() (service.JobStats, error) {
		tab, st, err := s.svc.Execute(req.Query)
		if err == nil {
			resp = queryResponse(tab, st, req.IncludeResult)
			resp.Query = req.Query
		}
		return st, err
	}) {
		resp.Session = req.Session
		writeJSON(w, http.StatusOK, resp)
	}
}

// decodePlan decodes a plan request and validates and rebuilds its plan
// before admission: a malformed plan is answered 400 without consuming a
// queue slot, and only plans that passed the codec's full validation ever
// reach a worker. Both plan endpoints start here.
func (s *Server) decodePlan(w http.ResponseWriter, r *http.Request) (PlanRequest, *plan.Builder, bool) {
	var req PlanRequest
	if !s.decodeBody(w, r, &req) {
		return req, nil, false
	}
	b, err := plan.UnmarshalPlan(req.Plan, s.svc.DB().TableByName)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return req, nil, false
	}
	return req, b, s.checkSession(w, req.Session)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	req, b, ok := s.decodePlan(w, r)
	if !ok {
		return
	}
	var resp *QueryResponse
	if s.execute(w, r, req.Session, req.TimeoutMS, func() (service.JobStats, error) {
		tab, st, err := s.svc.ExecutePlan(b)
		if err == nil {
			resp = queryResponse(tab, st, req.IncludeResult)
			resp.Plan = b.Name()
		}
		return st, err
	}) {
		resp.Session = req.Session
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleFlavorsGet exports the flavor cache's current knowledge. The
// coordinator's gossip loop pulls shard caches through this endpoint.
func (s *Server) handleFlavorsGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Cache().Export())
}

// FlavorsPushResponse is the body of POST /v1/flavors.
type FlavorsPushResponse struct {
	// Accepted counts flavor estimates merged into the cache; entries
	// with non-finite costs are dropped, not errors.
	Accepted int `json:"accepted"`
}

// handleFlavorsPost merges a pushed knowledge snapshot into the local
// cache. Imports go through the cache's Observe path, so pushed fleet
// knowledge EWMA-merges with local observations rather than replacing
// them — pushing is idempotent-ish, never destructive.
func (s *Server) handleFlavorsPost(w http.ResponseWriter, r *http.Request) {
	var snap service.KnowledgeSnapshot
	if !s.decodeBody(w, r, &snap) {
		return
	}
	writeJSON(w, http.StatusOK, FlavorsPushResponse{Accepted: s.svc.Cache().Import(snap)})
}

// MetricsSnapshot is the body of GET /metrics.
type MetricsSnapshot struct {
	Admission  AdmissionStats `json:"admission"`
	QueueDepth int            `json:"queue_depth"`
	Draining   bool           `json:"draining"`

	// Latency percentiles over the recent executed-request window, in
	// microseconds (end to end: queue wait + execution + encode).
	LatencyP50US float64 `json:"latency_p50_us"`
	LatencyP95US float64 `json:"latency_p95_us"`
	LatencyP99US float64 `json:"latency_p99_us"`
	LatencyMaxUS float64 `json:"latency_max_us"`

	QueueWaitP50US float64 `json:"queue_wait_p50_us"`
	QueueWaitP99US float64 `json:"queue_wait_p99_us"`

	SessionsLive    int   `json:"sessions_live"`
	SessionsCreated int64 `json:"sessions_created"`
	SessionsEvicted int64 `json:"sessions_evicted"`

	// Micro-adaptivity: what fraction of adaptive primitive calls ran a
	// flavor the session did not end up considering best, and how often
	// fresh primitive instances found priors in the shared FlavorCache.
	AdaptiveCalls     int64   `json:"adaptive_calls"`
	OffBestCalls      int64   `json:"off_best_calls"`
	OffBestPct        float64 `json:"off_best_pct"`
	CacheSeededInsts  int64   `json:"cache_seeded_instances"`
	CacheColdInsts    int64   `json:"cache_cold_instances"`
	CacheHitRatePct   float64 `json:"cache_hit_rate_pct"`
	CacheInstanceKeys int     `json:"cache_instance_keys"`

	// Fleet is present only when the executor fronts a shard fleet
	// (implements FleetReporter), i.e. on a coordinator.
	Fleet *FleetMetrics `json:"fleet,omitempty"`
}

// Metrics assembles the current snapshot.
func (s *Server) Metrics() MetricsSnapshot {
	lat := s.latency.Percentiles(50, 95, 99)
	m := MetricsSnapshot{
		Admission:      s.adm.Stats(),
		QueueDepth:     s.adm.QueueDepth(),
		Draining:       s.adm.Draining(),
		LatencyP50US:   lat[0] / 1e3,
		LatencyP95US:   lat[1] / 1e3,
		LatencyP99US:   lat[2] / 1e3,
		LatencyMaxUS:   s.latency.Max() / 1e3,
		QueueWaitP50US: float64(s.adm.QueueWait(50).Nanoseconds()) / 1e3,
		QueueWaitP99US: float64(s.adm.QueueWait(99).Nanoseconds()) / 1e3,
		AdaptiveCalls:  s.adaptive.Load(),
		OffBestCalls:   s.offBest.Load(),
	}
	m.SessionsLive, m.SessionsCreated, m.SessionsEvicted = s.sess.counts()
	if m.AdaptiveCalls > 0 {
		m.OffBestPct = 100 * float64(m.OffBestCalls) / float64(m.AdaptiveCalls)
	}
	seeded, cold := s.svc.SeededInstances()
	m.CacheSeededInsts, m.CacheColdInsts = seeded, cold
	if seeded+cold > 0 {
		m.CacheHitRatePct = 100 * float64(seeded) / float64(seeded+cold)
	}
	m.CacheInstanceKeys = s.svc.Cache().Len()
	if fr, ok := s.svc.(FleetReporter); ok {
		f := fr.Fleet()
		m.Fleet = &f
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// Running is a started server instance. Tests, madaptd, and the soak
// harness all go through it so start/readiness/shutdown behave the same
// everywhere.
type Running struct {
	Server *Server
	URL    string
	Addr   net.Addr
	http   *http.Server
	lnErr  chan error
}

// Start listens on addr ("" or ":0" picks an ephemeral port) and serves
// until Shutdown. It returns once the listener is accepting — a client
// may connect immediately.
func Start(s *Server, addr string) (*Running, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: s}
	run := &Running{
		Server: s,
		URL:    "http://" + ln.Addr().String(),
		Addr:   ln.Addr(),
		http:   hs,
		lnErr:  make(chan error, 1),
	}
	go func() { run.lnErr <- hs.Serve(ln) }()
	return run, nil
}

// Shutdown drains gracefully: stop admitting (new queries get 503),
// complete queued and in-flight work, then close the listener. The ctx
// bounds only the final HTTP close, not the drain.
func (r *Running) Shutdown(ctx context.Context) error {
	r.Server.Drain()
	if err := r.http.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-r.lnErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
