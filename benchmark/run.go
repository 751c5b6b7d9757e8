package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"microadapt/internal/engine"
	"microadapt/internal/server"
	"microadapt/internal/service"
)

// options are the knobs of one benchmark run.
type options struct {
	seed        int64
	passesScale float64       // scales the table's pass counts
	setups      int           // set-ups per untraced run; setup_s is their median
	probeBudget time.Duration // timed region of each probe
	cal         *calibrator   // the yardstick (calib.go)
}

// numSlices is how many equal parts a measured run is cut into. Wall-clock
// metrics are computed per slice and the median slice is reported, which
// on a shared 2-vCPU box holds far steadier than one whole-run figure.
const numSlices = 5

// fullCompareEvery is how often a served response's table is decoded and
// re-fingerprinted in-process on top of the fingerprint-field check.
const fullCompareEvery = 16

// obs is what the caller saw of one query.
type obs struct {
	tab      *engine.Table         // embedded, dist: the returned table
	resp     *server.QueryResponse // served: the decoded response
	cycles   float64
	adaptive int64
	offBest  int64
}

func obsOf(tab *engine.Table, st service.JobStats) obs {
	return obs{tab: tab, cycles: st.PrimCycles, adaptive: st.AdaptiveCalls, offBest: st.OffBestCalls}
}

// runner is how a workload's callers execute one query. It is called from
// one goroutine per client.
type runner func(client, pass, q int) (obs, error)

// runner returns the workload's runner: the program's own entry point when
// tr is nil, the traced spine recording into tr otherwise.
func (e *env) runner(tr *tracer) runner {
	switch e.w.Topology {
	case topoEmbedded:
		if tr == nil {
			return singleRunner(e.svc)
		}
		return func(_, _, q int) (obs, error) {
			root := tr.beginRequest(q)
			tab, st, err := spineExecute(tr, e.svc, root.under(), q)
			root.end()
			return obsOf(tab, st), err
		}
	case topoServed:
		return func(client, pass, q int) (obs, error) { return e.runServed(tr, client, pass, q) }
	default:
		if tr == nil {
			return func(_, _, q int) (obs, error) {
				tab, st, err := e.coord.Execute(q)
				return obsOf(tab, st), err
			}
		}
		return func(_, _, q int) (obs, error) {
			root := tr.beginRequest(q)
			tab, st, err := e.spine.execute(tr, root.under(), q)
			root.end()
			return obsOf(tab, st), err
		}
	}
}

// singleRunner is the plain in-process service.Execute caller.
func singleRunner(svc *service.Service) runner {
	return func(_, _, q int) (obs, error) {
		tab, st, err := svc.Execute(q)
		return obsOf(tab, st), err
	}
}

// runServed sends one request and waits for the reply. Queries without a
// Deliver step alternate between /v1/query and /v1/plan.
func (e *env) runServed(tr *tracer, client, pass, q int) (obs, error) {
	body, asPlan := e.planBody[q]
	asPlan = asPlan && (pass+q)%2 == 1
	var root *open
	if tr != nil {
		root = tr.beginRequest(q)
		key := queryKey(q)
		if asPlan {
			key = e.planKeys[q]
		}
		tr.announce(key, root.under())
	}
	var out *server.Outcome
	var err error
	if asPlan {
		out, err = e.clients[client].PlanEncoded(body)
	} else {
		out, err = e.clients[client].Query(server.QueryRequest{Query: q, IncludeResult: true})
	}
	if root != nil {
		if err == nil && out.OK() {
			root.s.RemoteUS = max(out.Response.Stats.LatencyUS, 1)
		}
		root.end()
	}
	if err != nil {
		return obs{}, err
	}
	if !out.OK() {
		msg := "(no body)"
		if out.Err != nil {
			msg = out.Err.Error
		}
		return obs{}, fmt.Errorf("Q%02d: status %d: %s", q, out.Status, msg)
	}
	st := out.Response.Stats
	return obs{resp: out.Response, cycles: st.PrimCycles, adaptive: st.AdaptiveCalls, offBest: st.OffBestCalls}, nil
}

// verify holds one result to the ground truth: a returned table is
// re-fingerprinted in-process; a served response is checked by its
// fingerprint field and, when full is set, by decoding its table as well.
func (e *env) verify(o obs, q int, full bool) bool {
	if o.tab != nil {
		return server.Fingerprint(o.tab) == e.want[q]
	}
	if o.resp == nil || o.resp.Fingerprint != e.want[q] {
		return false
	}
	if !full {
		return true
	}
	tj, err := o.resp.ResultTable()
	if err != nil || tj == nil {
		return false
	}
	tab, err := server.DecodeTable(tj)
	return err == nil && server.Fingerprint(tab) == e.want[q]
}

// block is one lane's share of one slice.
type block struct {
	wall      float64   // s, first request sent to last reply verified
	latMS     []float64 // caller-observed latency of every completed query
	latQ      []int     // and which query it was
	attempted int
	failed    int // errors, non-200 answers, results that differ from ground truth
	cycles    float64
	adaptive  int64
	offBest   int64
	used      counters // process-wide meters over the block
	speed     speed    // machine speed index of the block's slice
}

func (b *block) completed() int { return len(b.latMS) }

// add folds another block into b.
func (b *block) add(o block) {
	b.wall += o.wall
	b.latMS = append(b.latMS, o.latMS...)
	b.latQ = append(b.latQ, o.latQ...)
	b.attempted += o.attempted
	b.failed += o.failed
	b.cycles += o.cycles
	b.adaptive += o.adaptive
	b.offBest += o.offBest
	b.used.add(o.used)
}

// runBlock drives every client's stream through r for the given number of
// passes and reads the process counters around them.
func (e *env) runBlock(r runner, streams []*mixStream, passes int) block {
	from := readCounters()
	start := time.Now()
	parts := make([]block, len(streams))
	var wg sync.WaitGroup
	for c, ms := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := &parts[c]
			for pass := 0; pass < passes; pass++ {
				perm, pi := ms.next()
				for _, q := range perm {
					b.attempted++
					t0 := time.Now()
					o, err := r(c, pi, q)
					lat := time.Since(t0)
					if err != nil || !e.verify(o, q, b.attempted%fullCompareEvery == 0) {
						b.failed++
						continue
					}
					b.latMS = append(b.latMS, float64(lat)/1e6)
					b.latQ = append(b.latQ, q)
					b.cycles += o.cycles
					b.adaptive += o.adaptive
					b.offBest += o.offBest
				}
			}
		}()
	}
	wg.Wait()
	var out block
	for _, p := range parts {
		out.add(p)
	}
	out.wall = time.Since(start).Seconds()
	out.used = readCounters().since(from)
	return out
}

// counters are the process-wide meters read at block boundaries.
type counters struct {
	mallocs  uint64
	bytes    uint64
	cpuS     float64 // user + system, getrusage: GC workers and server goroutines included
	gcCPUS   float64
	allCPUS  float64
	gcCycles uint64
}

var counterSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readCounters() counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	s := append([]metrics.Sample(nil), counterSamples...)
	metrics.Read(s)
	return counters{
		mallocs: m.Mallocs, bytes: m.TotalAlloc, cpuS: tv(ru.Utime) + tv(ru.Stime),
		gcCPUS: s[0].Value.Float64(), allCPUS: s[1].Value.Float64(), gcCycles: s[2].Value.Uint64(),
	}
}

func (c counters) since(from counters) counters {
	return counters{
		mallocs: c.mallocs - from.mallocs, bytes: c.bytes - from.bytes, cpuS: c.cpuS - from.cpuS,
		gcCPUS: c.gcCPUS - from.gcCPUS, allCPUS: c.allCPUS - from.allCPUS, gcCycles: c.gcCycles - from.gcCycles,
	}
}

func (c *counters) add(o counters) {
	c.mallocs += o.mallocs
	c.bytes += o.bytes
	c.cpuS += o.cpuS
	c.gcCPUS += o.gcCPUS
	c.allCPUS += o.allCPUS
	c.gcCycles += o.gcCycles
}

// lane is one stream of work a run interleaves slice by slice: the
// measured path, and beside it a baseline or a traced twin.
type lane struct {
	r       runner
	clients int
	passes  int    // per client, over the whole run
	enter   func() // run before each block (install a tracer)
	leave   func() // and after it

	streams []*mixStream
	blocks  []block // one per slice
}

// rounds is how many turns every lane takes within one slice. The
// yardstick is read between rounds, so each slice has its own speed index;
// and when a run has several lanes, a ratio between them
// (dist_single_ratio, trace.overhead_pct) is only as steady as the machine
// is between the two sides' turns, and turns of a few hundred ms see the
// same weather.
const rounds = 6

// measure cuts the run into slices of equal pass counts and gives every
// lane one block per slice, taken in interleaved turns.
func (e *env) measure(lanes []*lane, cal *calibrator) {
	n := numSlices
	for li, l := range lanes {
		n = min(n, l.passes)
		for c := 0; c < l.clients; c++ {
			l.streams = append(l.streams, newMixStream(e.w.Mix, e.seed+int64(li)*101, c))
		}
	}
	var yard []reading
	for s := 0; s < n; s++ {
		slice := make([]block, len(lanes))
		// A reading is taken after work, never straight after another one:
		// a slice opens with the reading that closed the one before.
		yard = yard[max(len(yard)-1, 0):]
		for r := 0; r < rounds; r++ {
			ran := false
			for k := range lanes {
				// The lanes take a round's first turn in rotation.
				li := (r + k) % len(lanes)
				l := lanes[li]
				inSlice := l.passes*(s+1)/n - l.passes*s/n
				passes := inSlice*(r+1)/rounds - inSlice*r/rounds
				if passes == 0 {
					continue
				}
				if l.enter != nil {
					l.enter()
				}
				b := e.runBlock(l.r, l.streams, passes)
				if l.leave != nil {
					l.leave()
				}
				slice[li].add(b)
				ran = true
			}
			if ran {
				yard = append(yard, cal.sample())
			}
		}
		for li, l := range lanes {
			slice[li].speed = speedIndex(yard)
			l.blocks = append(l.blocks, slice[li])
		}
	}
}

// laneStats folds a lane's blocks.
type laneStats struct {
	attempted, failed, completed int
	wallS                        float64
	tailPct                      float64 // the percentile tailSlices holds
	// Per slice: every wall-clock metric is computed within a slice, and the
	// median slice is what gets reported.
	p50Slices, tailSlices, qpsSlices, cpuSlices, speeds, cpuSpeeds []float64
	cycles                                                         float64
	adaptive, offBest                                              int64
	used                                                           counters
}

func (l *lane) stats() laneStats {
	var s laneStats
	for _, b := range l.blocks {
		s.attempted += b.attempted
		s.failed += b.failed
		s.completed += b.completed()
		s.wallS += b.wall
		s.cycles += b.cycles
		s.adaptive += b.adaptive
		s.offBest += b.offBest
		s.used.add(b.used)
	}
	// The percentile rule is held against the run's sample count; the tail
	// is then taken per slice like every other wall-clock figure. The metric
	// is called p95, so nothing above p95 is reported under its name.
	s.tailPct = min(95, tailPercentile(s.completed))
	for _, b := range l.blocks {
		if b.completed() == 0 {
			continue
		}
		s.p50Slices = append(s.p50Slices, median(b.latMS))
		s.tailSlices = append(s.tailSlices, percentile(b.latMS, s.tailPct))
		s.qpsSlices = append(s.qpsSlices, float64(b.completed())/b.wall)
		s.cpuSlices = append(s.cpuSlices, b.used.cpuS*1e3/float64(b.completed()))
		s.speeds, s.cpuSpeeds = append(s.speeds, b.speed.wall), append(s.cpuSpeeds, b.speed.cpu)
	}
	return s
}

// queryP50 is the lane's median latency of each query of the mix, in ms.
func (l *lane) queryP50() map[int]float64 {
	by := map[int][]float64{}
	for _, b := range l.blocks {
		for i, q := range b.latQ {
			by[q] = append(by[q], b.latMS[i])
		}
	}
	out := map[int]float64{}
	for q, ls := range by {
		out[q] = median(ls)
	}
	return out
}

// nominal puts per-slice figures measured at the given speed indices on the
// reference box's scale: a duration shrinks while the machine is slow
// (index below 1), a rate (perS) grows.
func nominal(asMeasured, speeds []float64, perS bool) []float64 {
	out := make([]float64, len(asMeasured))
	for i, v := range asMeasured {
		if out[i] = v * speeds[i]; perS {
			out[i] = v / speeds[i]
		}
	}
	return out
}

// metricValue is one reported number.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Raw    float64   `json:"as_measured,omitempty"` // nominal-speed metrics: the median slice before the speed index was applied
	Slices []float64 `json:"slices,omitempty"`      // wall-clock metrics: the per-slice values behind the median
	Iters  int       `json:"iterations,omitempty"`  // probes: timed iterations
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Samples   int     `json:"samples"`  // completed queries behind the latency percentiles
	TailPct   float64 `json:"tail_pct"` // the percentile latency_p95_ms holds: 95, or the highest one below it with >= 10 samples beyond
	Passes    int     `json:"passes"`
	Speed     float64 `json:"speed_index"` // median slice's machine speed index: the yardstick's nominal time / its time during the run

	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`

	spans  []span
	broken []string // metrics whose value came out as NaN or Inf
}

func (r *workloadResult) put(m map[string]metricValue, decls []metricDecl, name string, v float64, sl ...float64) {
	d, ok := declByName(decls, name)
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if _, dup := m[name]; dup {
		panic("benchmark: metric emitted twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.broken = append(r.broken, name)
	}
	m[name] = metricValue{Value: v, Unit: d.Unit, Slices: sl}
}

// check fails a run that reported a value that is not a number.
func (r *workloadResult) check() error {
	if len(r.broken) > 0 {
		return fmt.Errorf("%s: not a number: %s", r.Name, strings.Join(r.broken, ", "))
	}
	return nil
}

func scaledPasses(passes int, scale float64) int {
	return max(1, int(math.Round(float64(passes)*scale)))
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w workload, opt options) (*workloadResult, error) {
	var e *env
	var setupS, setupSpeed []float64
	for i := 0; i < max(1, opt.setups); i++ {
		if e != nil {
			e.close()
			e = nil
		}
		// Every set-up starts like a fresh process would: the last one's
		// garbage collected and its pages handed back.
		debug.FreeOSMemory()
		var err error
		if e, err = setup(w, opt.seed, opt.cal); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setupS, setupSpeed = append(setupS, e.setupS), append(setupSpeed, e.setupSpeed.wall)
	}
	defer e.close()

	passes := scaledPasses(w.Passes, opt.passesScale)
	main := &lane{r: e.runner(nil), clients: w.Clients, passes: passes}
	lanes := []*lane{main}
	var base *lane
	if w.Baseline {
		base = &lane{r: singleRunner(e.svc), clients: 1, passes: passes}
		lanes = append(lanes, base)
	}
	e.measure(lanes, opt.cal)

	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)

	s := main.stats()
	res := &workloadResult{
		Name: w.Name, Attempted: s.attempted, Failed: s.failed, Samples: s.completed,
		TailPct: s.tailPct, Passes: passes, Speed: median(s.speeds), EndToEnd: map[string]metricValue{},
	}
	var bs laneStats
	if base != nil {
		bs = base.stats()
		res.Attempted += bs.attempted
		res.Failed += bs.failed
	}
	if s.completed == 0 {
		return res, fmt.Errorf("%s: no query completed", w.Name)
	}
	done := float64(s.completed)
	put := func(name string, v float64, sl ...float64) { res.put(res.EndToEnd, endToEnd, name, v, sl...) }
	// Times at nominal machine speed, the median slice as measured beside
	// each (calib.go says why).
	atNominal := func(name string, asMeasured, speeds []float64, perS bool) {
		sl := nominal(asMeasured, speeds, perS)
		put(name, median(sl), sl...)
		mv := res.EndToEnd[name]
		mv.Raw = median(asMeasured)
		res.EndToEnd[name] = mv
	}
	atNominal("setup_s", setupS, setupSpeed, false)
	atNominal("latency_p50_ms", s.p50Slices, s.speeds, false)
	atNominal("latency_p95_ms", s.tailSlices, s.speeds, false)
	atNominal("queries_per_s", s.qpsSlices, s.speeds, true)
	atNominal("cpu_ms_per_query", s.cpuSlices, s.cpuSpeeds, false)
	put("allocs_per_query", float64(s.used.mallocs)/done)
	put("alloc_kb_per_query", float64(s.used.bytes)/1024/done)
	put("retained_heap_mb", float64(m.HeapAlloc)/(1<<20))
	put("off_best_pct", 100*float64(s.offBest)/float64(max(s.adaptive, 1)))
	put("virt_cycles_per_query", s.cycles/done)
	put("failed_frac", float64(res.Failed)/float64(res.Attempted))
	if base != nil {
		ratios := sliceRatios(bs.qpsSlices, s.qpsSlices)
		put("dist_single_ratio", median(ratios), ratios...)
	}
	return res, res.check()
}

// sliceRatios pairs two lanes' per-slice throughputs.
func sliceRatios(num, den []float64) []float64 {
	var out []float64
	for i := 0; i < min(len(num), len(den)); i++ {
		if den[i] > 0 {
			out = append(out, num[i]/den[i])
		}
	}
	return out
}
