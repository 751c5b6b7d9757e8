// Package core implements the Micro Adaptivity framework of the paper: the
// Primitive Dictionary that stores multiple implementations ("flavors") per
// primitive signature, per-plan primitive instances with full profiling and
// Approximated Performance Histories, and the family of multi-armed-bandit
// learning algorithms (vw-greedy and the ε-strategies it is evaluated
// against) that pick a flavor at every call.
package core

import (
	"fmt"
	"sort"
	"sync"

	"microadapt/internal/hw"
	"microadapt/internal/vector"
)

// Call carries the arguments of one primitive call. The layout mirrors
// Vectorwise primitive signatures: N input tuples, an optional selection
// vector, input vectors (column or single-value constant parameters), and
// either an output vector (map/aggr primitives) or an output selection
// buffer (selection primitives).
type Call struct {
	N      int              // tuples in the input vectors
	Sel    vector.Sel       // input selection vector; nil = all N live
	Cap    int              // nominal vector capacity when N varies per call (0 = N)
	In     []*vector.Vector // input parameters in signature order
	Res    *vector.Vector   // output vector for map/aggregate primitives
	SelOut []int32          // output selection buffer for selection primitives
	Aux    any              // operator-supplied state (bloom filter, hash table, ...)
	Feat   Features         // cheap per-call context for contextual policies
	Inst   *Instance        // back pointer set by Instance.Run
}

// Live returns the number of live input tuples of the call.
func (c *Call) Live() int {
	if c.Sel != nil {
		return len(c.Sel)
	}
	return c.N
}

// Density returns live tuples / vector capacity: the fill factor that
// drives call-overhead amortization (the border regions of Figure 4c/d).
func (c *Call) Density() float64 {
	den := c.N
	if c.Cap > den {
		den = c.Cap
	}
	if den == 0 {
		return 1
	}
	return float64(c.Live()) / float64(den)
}

// PrimFn is one flavor's implementation: it computes the real result into
// c.Res or c.SelOut and returns the number of produced tuples along with
// the virtual cycle cost of the call under ctx.Machine (see internal/hw).
type PrimFn func(ctx *ExecCtx, c *Call) (produced int, cycles float64)

// Flavor is one implementation of a primitive, with the meta-information
// the Primitive Dictionary keeps per flavor (§1.1 "Flavors"): the source
// that produced it (compiler build, algorithmic variant) and free-form tags
// used by heuristics and the experiment harness.
type Flavor struct {
	Name   string            // unique within a primitive, e.g. "branching/gcc/u8"
	Source string            // flavor provenance, e.g. compiler name
	Tags   map[string]string // variant axes: branch=y/n, fission=y/n, full=y/n, unroll=8/1, compiler=...
	Fn     PrimFn
}

// Tag returns the flavor's tag value or "" when absent.
func (f *Flavor) Tag(key string) string {
	if f.Tags == nil {
		return ""
	}
	return f.Tags[key]
}

// Primitive is a dictionary entry: a signature plus its registered flavors.
type Primitive struct {
	Sig     string // e.g. "select_<_sint_col_sint_val"
	Class   string // cost/flavor class, one of the hw.Class* constants
	Flavors []*Flavor

	names []string // flavor names in arm order, appended with Flavors
}

// FlavorNames returns the registered flavor names in arm order: the arm
// names of every instance of the primitive, which translate a session's
// arm indices into the name-keyed cross-session knowledge cache. The slice
// is shared and must not be modified.
func (p *Primitive) FlavorNames() []string { return p.names }

// FlavorIndex returns the index of the flavor with the given name, or -1.
func (p *Primitive) FlavorIndex(name string) int {
	for i, f := range p.Flavors {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Dictionary is the Primitive Dictionary of the query evaluator, extended
// (as in the paper) to map each signature to a list of flavors instead of a
// single function pointer. Registration is dynamic: flavor libraries can be
// added at startup or while the system is active, so access is guarded.
type Dictionary struct {
	mu    sync.RWMutex
	prims map[string]*Primitive
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{prims: make(map[string]*Primitive)}
}

// AddFlavor registers a flavor under the signature, creating the entry when
// absent. It returns an error on duplicate flavor names.
func (d *Dictionary) AddFlavor(sig, class string, f *Flavor) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.prims[sig]
	if !ok {
		p = &Primitive{Sig: sig, Class: class}
		d.prims[sig] = p
	}
	for _, ex := range p.Flavors {
		if ex.Name == f.Name {
			return fmt.Errorf("core: duplicate flavor %q for %q", f.Name, sig)
		}
	}
	p.Flavors = append(p.Flavors, f)
	p.names = append(p.names, f.Name)
	return nil
}

// Lookup resolves a signature.
func (d *Dictionary) Lookup(sig string) (*Primitive, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.prims[sig]
	return p, ok
}

// MustLookup resolves a signature and panics when it is unknown — primitive
// resolution failures are programming errors in plan construction.
func (d *Dictionary) MustLookup(sig string) *Primitive {
	if p, ok := d.Lookup(sig); ok {
		return p
	}
	panic("core: unknown primitive signature " + sig)
}

// Sigs returns all registered signatures, sorted.
func (d *Dictionary) Sigs() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.prims))
	for s := range d.prims {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ExecCtx carries per-query virtual-hardware state: the machine profile the
// query "runs on" and the cycle accounting the experiment harness reads back
// (Table 1's stage breakdown and all per-primitive measurements). Cache
// residency is priced by the cost functions (hw.MissRatio), not simulated.
type ExecCtx struct {
	Machine *hw.Machine

	// Cycle accounting, by stage (Table 1 of the paper).
	PreCycles      float64 // query preprocessing (plan build, resolution)
	PrimCycles     float64 // inside primitive functions
	OperatorCycles float64 // execute-stage cycles outside primitives
	PostCycles     float64 // result delivery
}

// NewExecCtx builds an execution context for the machine.
func NewExecCtx(m *hw.Machine) *ExecCtx { return &ExecCtx{Machine: m} }

// ExecuteCycles is the total execute-stage cost (primitives + operators).
func (ctx *ExecCtx) ExecuteCycles() float64 { return ctx.PrimCycles + ctx.OperatorCycles }

// TotalCycles is the end-to-end query cost.
func (ctx *ExecCtx) TotalCycles() float64 {
	return ctx.PreCycles + ctx.ExecuteCycles() + ctx.PostCycles
}
