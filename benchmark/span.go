package main

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"microadapt/internal/core"
)

// span is one timed call into a layer. Spans of one request share Request;
// Parent is the span that caused this one (0 for the caller-observed root,
// which is always named rootSpan). Times are nanoseconds since the trace
// began. The optional fields carry counts measured at the same boundary.
type span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	Request  uint64 `json:"request_id"`
	Name     string `json:"name"`
	Query    int    `json:"query,omitempty"`
	Workload string `json:"workload,omitempty"` // on roots, in a file that holds several workloads' traces
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Rows     int64  `json:"rows,omitempty"`      // rows that crossed this boundary
	Bytes    int64  `json:"bytes,omitempty"`     // audit pass only: binary wire size of those rows
	RemoteUS int64  `json:"remote_us,omitempty"` // latency the remote side reported for this call
	Allocs   uint64 `json:"allocs,omitempty"`    // audit pass only: heap objects allocated inside
	AllocKB  uint64 `json:"alloc_kb,omitempty"`  // audit pass only: KiB allocated inside
}

func (s span) dur() int64 { return s.End - s.Start }

// rootSpan names the caller-observed span of a request: its duration is the
// latency, its self time is what no layer span accounts for.
const rootSpan = "request"

// link says where a new span hangs: under which parent, in which request.
type link struct{ parent, request uint64 }

// coreCounts are totals read off every traced session at harvest time.
type coreCounts struct {
	sessions, instances, primCalls, tuples, adaptive, offBest, decisions int64
}

// tracer keeps spans in memory until the run ends. It is safe for the
// concurrent use the served and distributed spines make of it.
type tracer struct {
	epoch time.Time
	audit bool // read allocation counters around every span (stops the world; untimed passes only)
	ids   atomic.Uint64

	mu      sync.Mutex
	spans   []span
	pending map[string][]link // requests announced by a client, claimed by the executor behind HTTP
	counts  coreCounts
}

func newTracer(audit bool) *tracer {
	return &tracer{epoch: time.Now(), audit: audit, pending: make(map[string][]link)}
}

// open is a started span.
type open struct {
	t      *tracer
	s      span
	allocs uint64
	bytes  uint64
}

func heapCounters() (allocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

func (t *tracer) begin(name string, l link) *open {
	o := &open{t: t, s: span{ID: t.ids.Add(1), Parent: l.parent, Request: l.request, Name: name}}
	if t.audit {
		o.allocs, o.bytes = heapCounters()
	}
	o.s.Start = int64(time.Since(t.epoch))
	return o
}

// beginRequest starts a caller-observed root span with a fresh request id.
func (t *tracer) beginRequest(q int) *open {
	o := t.begin(rootSpan, link{})
	o.s.Request = o.s.ID
	o.s.Query = q
	return o
}

func (o *open) end() {
	o.s.End = int64(time.Since(o.t.epoch))
	if o.t.audit {
		a, b := heapCounters()
		o.s.Allocs, o.s.AllocKB = a-o.allocs, (b-o.bytes)/1024
	}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// under returns the link that hangs children under this span.
func (o *open) under() link { return link{parent: o.s.ID, request: o.s.Request} }

// announce registers that a request for key is about to cross HTTP, so the
// executor on the far side can hang its spans under l.
func (t *tracer) announce(key string, l link) {
	t.mu.Lock()
	t.pending[key] = append(t.pending[key], l)
	t.mu.Unlock()
}

// claim takes one announced link for key; the zero link when none is
// pending (spans then stand alone and count only towards totals).
func (t *tracer) claim(key string) link {
	t.mu.Lock()
	defer t.mu.Unlock()
	ls := t.pending[key]
	if len(ls) == 0 {
		return link{}
	}
	t.pending[key] = ls[1:]
	return ls[0]
}

// countSession folds one finished session's counters into the totals.
func (t *tracer) countSession(s *core.Session) {
	var c coreCounts
	insts := s.AllInstances()
	c.sessions = 1
	c.instances = int64(len(insts))
	for _, in := range insts {
		c.primCalls += int64(in.Calls)
		c.tuples += in.Tuples
	}
	c.decisions = int64(len(s.AllDecisions()))
	c.adaptive, c.offBest = adaptationCost(s)
	t.mu.Lock()
	t.counts.sessions += c.sessions
	t.counts.instances += c.instances
	t.counts.primCalls += c.primCalls
	t.counts.tuples += c.tuples
	t.counts.decisions += c.decisions
	t.counts.adaptive += c.adaptive
	t.counts.offBest += c.offBest
	t.mu.Unlock()
}

// adaptationCost is the ledger service.Execute keeps: adaptive calls and
// off-best calls over primitive instances and operator-level decisions.
func adaptationCost(s *core.Session) (adaptive, offBest int64) {
	adaptive, offBest = core.AdaptationCost(s.AllInstances())
	da, do := core.DecisionAdaptationCost(s.AllDecisions())
	return adaptive + da, offBest + do
}

// snapshot returns the spans recorded so far, in end order.
func (t *tracer) snapshot() ([]span, coreCounts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.counts
}

// rebase shifts every id in spans by base, so that the traces of several
// runs can share one file, tags the roots with the workload they belong to,
// and returns the highest id now in use.
func rebase(spans []span, base uint64, workload string) uint64 {
	top := base
	for i := range spans {
		s := &spans[i]
		s.ID += base
		if s.Request != 0 {
			s.Request += base
		}
		if s.Parent != 0 {
			s.Parent += base
		} else {
			s.Workload = workload
		}
		top = max(top, s.ID)
	}
	return top
}

// writeSpans writes one JSON object per line.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its child spans cover. Children that run in parallel
// (two shards streaming at once) are merged before subtracting, and a
// child reaching outside its parent is clipped to it.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// requestView is one request's spans folded by name.
type requestView struct {
	query    int
	latency  int64 // root span duration
	rootSelf int64 // what no layer span covers
	dur      map[string]int64
	self     map[string]int64
	count    map[string]int64
	rows     map[string]int64
	bytes    map[string]int64
	// allocs and allocKB count only spans hanging directly under the root:
	// those run one at a time, so the process-wide allocation counters read
	// around them are theirs alone.
	allocs  map[string]uint64
	allocKB map[string]uint64
	// remoteUS is, per fetch, the slowest remote latency among the shard
	// calls under it, summed over the request's fetches.
	remoteUS int64
}

// foldRequests groups spans by request. Spans that claimed no request
// (Request 0) are returned folded into the totals view only.
func foldRequests(spans []span) (reqs []*requestView, totals *requestView) {
	self := selfTimes(spans)
	newView := func() *requestView {
		return &requestView{dur: map[string]int64{}, self: map[string]int64{}, count: map[string]int64{},
			rows: map[string]int64{}, bytes: map[string]int64{}, allocs: map[string]uint64{}, allocKB: map[string]uint64{}}
	}
	totals = newView()
	byReq := make(map[uint64]*requestView)
	var order []uint64
	slowest := make(map[uint64]int64) // fetch span id -> slowest shard call under it
	fetchReq := make(map[uint64]uint64)
	for _, s := range spans {
		add := func(v *requestView) {
			v.dur[s.Name] += s.dur()
			v.self[s.Name] += self[s.ID]
			v.count[s.Name]++
			v.rows[s.Name] += s.Rows
			v.bytes[s.Name] += s.Bytes
			if s.Parent == s.Request {
				v.allocs[s.Name] += s.Allocs
				v.allocKB[s.Name] += s.AllocKB
			}
		}
		add(totals)
		if s.Request == 0 {
			continue
		}
		v := byReq[s.Request]
		if v == nil {
			v = newView()
			byReq[s.Request] = v
			order = append(order, s.Request)
		}
		if s.Name == rootSpan {
			v.query, v.latency, v.rootSelf = s.Query, s.dur(), self[s.ID]
			continue
		}
		add(v)
		if s.RemoteUS > 0 {
			slowest[s.Parent] = max(slowest[s.Parent], s.RemoteUS)
			fetchReq[s.Parent] = s.Request
		}
	}
	for fetch, us := range slowest {
		byReq[fetchReq[fetch]].remoteUS += us
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, id := range order {
		if v := byReq[id]; v.latency > 0 {
			reqs = append(reqs, v)
		}
	}
	return reqs, totals
}
