// Package engine is the vectorized query executor: pull-based relational
// operators (Scan, Select, Project, HashAgg, HashJoin, MergeJoin, Sort,
// TopN, Limit, and the Parallel/Exchange pair for partitioned pipelines)
// that move vector.Batch slices of one vector size — the session's
// configurable tuples-per-vector, 1024 by default and 128 in the benchmark
// and service configurations — and do all data-path work through the
// adaptive primitive instances of a core.Session, exactly separating
// control logic (operators) from data processing logic (primitives) as
// described in §1 of the paper.
package engine

import (
	"fmt"

	"microadapt/internal/core"
	"microadapt/internal/vector"
)

// Operator is a vectorized physical operator. Usage: Open, then Next until
// it returns nil, then Close.
type Operator interface {
	// Schema describes the batches this operator produces.
	Schema() vector.Schema
	// Open prepares the operator (and its children) for execution.
	Open() error
	// Next returns the next batch or nil at end of stream. Returned
	// batches may carry a selection vector.
	//
	// The batch — its header, its Cols slice, its selection vector and
	// every vector it points to — belongs to the operator (or to the table
	// or child it forwards from) and is valid only until the next call to
	// Next or Close on this operator: operators reuse that storage for the
	// following batch, which is what keeps a steady-state Next free of
	// heap allocation. A caller that keeps data across calls copies it out
	// first (Materialize, the exchange's rebatcher) and never writes
	// through the batch. Unselected positions of computed columns hold
	// stale values from earlier batches, not zeros.
	Next() (*vector.Batch, error)
	// Close releases resources; it must be called exactly once.
	Close()
}

// perBatchOverhead is the control-logic cost an operator adds per batch —
// the "execute stage outside primitives" sliver of Table 1.
const perBatchOverhead = 24.0

// chargeOp adds operator (non-primitive) execute-stage cycles.
func chargeOp(s *core.Session, cycles float64) {
	s.Ctx.OperatorCycles += cycles
}

// Drain opens op, streams every non-empty batch (selection vector intact)
// to yield, and closes it. Batches may alias operator-owned or table-owned
// storage: yield must consume them before returning and never retain them.
// It is the streaming "postprocess" boundary of Table 1; Materialize is
// built on it.
func Drain(op Operator, yield func(*vector.Batch) error) error {
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	for {
		b, err := op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if b.Live() == 0 {
			continue
		}
		if err := yield(b); err != nil {
			return err
		}
	}
}

// labelf builds instance labels.
func labelf(format string, args ...any) string { return fmt.Sprintf(format, args...) }
