package engine

import (
	"errors"
	"fmt"
	"sync"

	"microadapt/internal/core"
	"microadapt/internal/vector"
)

// Morsel is one partition of a range-partitioned scan: partition Part
// processes the contiguous rows [Lo, Hi) of the scanned table.
type Morsel struct {
	Part int
	Lo   int
	Hi   int
}

// FragmentBuilder constructs the pipeline fragment of one partition: the
// operator tree above a range scan of the morsel's rows, built entirely on
// the fragment session fs (a NewRangeScan over m.Lo..m.Hi plus whatever
// Select/Project stack the plan runs below the exchange). Builders must use
// the same plan labels as the serial plan; fs tags them with the partition
// so the per-partition bandits stay distinct inside the query while
// collapsing to one core.Key for cross-session knowledge.
//
// ParallelPipeline also invokes the builder for the serial fallback, with
// the coordinator session itself and the full row range — so one builder
// expresses both the serial and the partitioned shape of a pipeline.
type FragmentBuilder func(fs *core.Session, m Morsel) (Operator, error)

// minMorselRows is the smallest partition worth a goroutine and a fragment
// session; scans smaller than two morsels of this size run serially no
// matter the configured parallelism.
const minMorselRows = 512

// exchangeBufBatches bounds how many rebatched chunks one fragment may have
// in flight ahead of the consumer. It is the exchange's backpressure knob:
// the merge holds at most P*exchangeBufBatches vector-size chunks instead
// of every fragment's full output, and a fragment that runs far ahead of
// the partition-ordered consumer blocks on its channel rather than
// buffering its whole partition.
const exchangeBufBatches = 8

// errAbandoned is the producer-side signal that the exchange was closed
// (or failed) before this fragment's output was fully consumed.
var errAbandoned = errors.New("engine: exchange abandoned")

// fragment pairs one morsel with the session and operator tree processing
// it, plus the bounded channel its rebatched output crosses the exchange
// on. err is written (if at all) before ch is closed, so a consumer that
// sees the channel closed reads err race-free.
type fragment struct {
	morsel Morsel
	sess   *core.Session
	root   Operator

	ch  chan *vector.Batch
	err error
}

// Parallel is the fan-out half of the engine's Parallel/Exchange pair: a
// range-partitioned pipeline of P fragments, each owning a morsel of the
// scanned rows, a fragment session (spawned through core.Session.Fragment,
// so the coordinator can harvest every partition's learned knowledge
// afterwards) and the operator tree the FragmentBuilder put above its
// morsel. Construction is eager and single-threaded; execution — one
// goroutine per fragment — starts when the Exchange above it opens.
type Parallel struct {
	sess  *core.Session
	frags []*fragment
}

// NewParallel partitions rows into parts morsels and builds one pipeline
// fragment per morsel. parts must be >= 2 (use ParallelPipeline for the
// serial fallback); rows are split evenly with the remainder
// spread over the leading partitions.
func NewParallel(sess *core.Session, rows, parts int, build FragmentBuilder) (*Parallel, error) {
	if parts < 2 {
		return nil, fmt.Errorf("engine: NewParallel needs >= 2 partitions, got %d", parts)
	}
	p := &Parallel{sess: sess}
	for i := 0; i < parts; i++ {
		m := Morsel{Part: i, Lo: rows * i / parts, Hi: rows * (i + 1) / parts}
		fs := sess.Fragment(i)
		root, err := build(fs, m)
		if err != nil {
			return nil, fmt.Errorf("engine: building fragment %d: %w", i, err)
		}
		p.frags = append(p.frags, &fragment{morsel: m, sess: fs, root: root})
	}
	return p, nil
}

// rebatcher coalesces a fragment's output batches into dense, owned chunks
// of about the session's vector size before they cross the exchange
// channel. Fragment roots emit scratch-backed, often sparse batches that
// must be copied before the producer's next Next reuses the scratch, and
// rebatching to vector-size chunks keeps the downstream batch count (and
// so the per-batch overhead accounting) at the level of the old
// materialize-then-slice exchange even under selective predicates.
type rebatcher struct {
	sch    vector.Schema
	target int
	acc    []colAcc
	n      int
}

func newRebatcher(sch vector.Schema, target int) *rebatcher {
	if target < 1 {
		target = 1
	}
	return &rebatcher{sch: sch, target: target}
}

func (r *rebatcher) add(b *vector.Batch) {
	if r.acc == nil {
		r.acc = make([]colAcc, len(r.sch))
		for i, c := range r.sch {
			r.acc[i].t = c.Type
		}
	}
	for ci := range r.sch {
		r.acc[ci].appendLive(b.Cols[ci], b.Sel, b.N)
	}
	r.n += b.Live()
}

func (r *rebatcher) take() *vector.Batch {
	cols := make([]*vector.Vector, len(r.sch))
	for i := range r.acc {
		cols[i] = r.acc[i].vector()
	}
	b := &vector.Batch{N: r.n, Cols: cols}
	r.acc, r.n = nil, 0
	return b
}

// Exchange is the merge half of the pair: an Operator that starts the
// Parallel's fragments on its Open and streams their output chunks in
// partition order as they are produced. Because morsels are contiguous row
// ranges and fragments preserve order, the merged stream carries exactly
// the rows, in exactly the order, of the serial pipeline — which is what
// makes parallel plans bit-identical to serial ones (order-sensitive
// consumers like merge joins and first-seen group numbering included).
//
// Unlike the original barrier exchange, Open does not run fragments to
// completion: each fragment hands rebatched, self-owned chunks through a
// bounded channel, so the downstream consumer overlaps with upstream
// fragment execution while total buffering stays at P*exchangeBufBatches
// chunks. The order contract is kept by consuming the channels strictly in
// partition order; later fragments compute ahead until their channel
// fills, then block (backpressure) instead of materializing their whole
// partition.
//
// The exchange boundary is also where the partitions' learned flavor
// knowledge merges: fragment sessions are registered on the coordinator
// session (core.Session.Fragments), so knowledge harvesting walks all P
// per-partition bandits, and the fragments' virtual cycle accounting is
// folded into the coordinator's ExecCtx when the stream ends (or the
// exchange is closed early — a Limit above it abandons the producers, and
// whatever work they did is still accounted).
type Exchange struct {
	par    *Parallel
	frag   int // partition currently being streamed
	opened bool

	done   chan struct{} // closed to release blocked producers
	wg     sync.WaitGroup
	folded bool
}

// NewExchange builds the merging operator over a Parallel.
func NewExchange(p *Parallel) *Exchange { return &Exchange{par: p} }

// Schema implements Operator: fragments share one schema.
func (e *Exchange) Schema() vector.Schema { return e.par.frags[0].root.Schema() }

// Open implements Operator: it starts one producer goroutine per fragment
// and returns immediately; Next then streams the fragments' chunks in
// partition order as they arrive. Fragment errors (a builder bug, a
// primitive panic) surface from Next when the consumer reaches the failed
// fragment's position in the merge order.
func (e *Exchange) Open() error {
	e.frag = 0
	e.folded = false
	e.done = make(chan struct{})
	for _, f := range e.par.frags {
		f.ch = make(chan *vector.Batch, exchangeBufBatches)
		f.err = nil
		e.wg.Add(1)
		go e.produce(f)
	}
	e.opened = true
	return nil
}

// produce drains one fragment's operator tree, rebatching its output into
// vector-size chunks and sending them down the fragment's bounded channel.
// A panic inside the fragment — a primitive bug must not kill the whole
// service — is converted into the fragment's error. err is always written
// before ch closes.
func (e *Exchange) produce(f *fragment) {
	defer e.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("engine: fragment %d panicked: %v", f.morsel.Part, r)
		}
		close(f.ch)
	}()
	rb := newRebatcher(f.root.Schema(), e.par.sess.VectorSize)
	err := Drain(f.root, func(b *vector.Batch) error {
		if rb.n > 0 && rb.n+b.Live() > rb.target {
			if !e.send(f, rb.take()) {
				return errAbandoned
			}
		}
		rb.add(b)
		if rb.n >= rb.target {
			if !e.send(f, rb.take()) {
				return errAbandoned
			}
		}
		return nil
	})
	if err != nil {
		if !errors.Is(err, errAbandoned) {
			f.err = err
		}
		return
	}
	if rb.n > 0 {
		e.send(f, rb.take())
	}
}

// send delivers one chunk unless the exchange has been closed or failed;
// it reports whether the producer should keep going.
func (e *Exchange) send(f *fragment, b *vector.Batch) bool {
	select {
	case f.ch <- b:
		return true
	case <-e.done:
		return false
	}
}

// Next implements Operator: it streams the fragments' chunks in partition
// order, blocking on the current partition's channel — which is how the
// consumer overlaps with every still-running upstream fragment.
func (e *Exchange) Next() (*vector.Batch, error) {
	if !e.opened {
		return nil, fmt.Errorf("engine: Exchange.Next before Open")
	}
	for e.frag < len(e.par.frags) {
		f := e.par.frags[e.frag]
		b, ok := <-f.ch
		if ok {
			chargeOp(e.par.sess, perBatchOverhead)
			return b, nil
		}
		if f.err != nil {
			err := f.err
			e.shutdown()
			return nil, err
		}
		e.frag++
	}
	e.shutdown()
	return nil, nil
}

// shutdown releases any still-blocked producers, waits for all of them to
// exit, and folds the fragments' cycle accounting into the coordinator
// session so whole-query accounting (JobStats, Table 1 breakdowns) sees
// the sum of all partitions. It runs exactly once per
// Open, whether the stream was fully drained, failed, or closed early.
func (e *Exchange) shutdown() {
	if e.folded {
		return
	}
	e.folded = true
	close(e.done)
	e.wg.Wait()
	sess := e.par.sess
	for _, f := range e.par.frags {
		sess.Ctx.PrimCycles += f.sess.Ctx.PrimCycles
		sess.Ctx.OperatorCycles += f.sess.Ctx.OperatorCycles
		chargeOp(sess, perBatchOverhead) // per-partition merge overhead
	}
}

// Close implements Operator. An early Close — a Limit upstream satisfied,
// an error elsewhere in the plan — abandons the producers via done and
// still folds whatever cycle accounting the fragments accumulated; opened
// resets so a Next after Close errors instead of reading stale channels.
func (e *Exchange) Close() {
	if e.opened {
		e.shutdown()
	}
	e.opened = false
}

// PartitionCount returns the fan-out ParallelPipeline uses for a scan of
// rows at pipeline parallelism p: min(p, rows/minMorselRows), floored at 1
// (serial). The physical planner calls it to annotate explain output with
// the fan-out the runtime will use.
func PartitionCount(p, rows int) int {
	if max := rows / minMorselRows; p > max {
		p = max
	}
	if p < 2 {
		return 1
	}
	return p
}

// ParallelPipeline builds the scan-heavy prefix of a plan either serially
// or as a Parallel/Exchange fan-out, depending on the session's pipeline
// parallelism and the scanned row count. With parallelism P > 1 and at
// least two minMorselRows-sized morsels, rows are range-partitioned into
// exactly PartitionCount(P, rows) fragments, the fan-out explain prints.
// Otherwise the builder runs once with the coordinator session and the
// full range, producing exactly the serial plan (identical instance
// labels included). Either way the rows streamed are bit-identical.
func ParallelPipeline(sess *core.Session, rows int, build FragmentBuilder) (Operator, error) {
	parts := PartitionCount(sess.Parallelism(), rows)
	if parts < 2 {
		return build(sess, Morsel{Part: 0, Lo: 0, Hi: rows})
	}
	par, err := NewParallel(sess, rows, parts, build)
	if err != nil {
		return nil, err
	}
	return NewExchange(par), nil
}
