package primitive

import (
	"fmt"

	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/vector"
)

// Options selects which alternatives of each flavor axis get registered.
// The first entry of every axis is the engine default; registering exactly
// the defaults reproduces the paper's baseline ("VW without heuristics"),
// while widening one axis at a time reproduces the flavor sets of
// Tables 6-10.
type Options struct {
	// Compilers: subset of {"gcc", "icc", "clang"}; default build is gcc.
	Compilers []string
	// Branching: subset of {"branch", "nobranch"} for selection
	// primitives; Vectorwise ships branching by default (Table 6).
	Branching []string
	// Compute: subset of {"selective", "full"} for map primitives
	// (Table 9; selective is the default).
	Compute []string
	// Fission: subset of {"nofission", "fission"} for the bloom-filter
	// probe (Table 8; no fission is the default).
	Fission []string
	// Unroll: subset of {"u8", "u1"}; hand unrolling by 8 is the
	// Vectorwise default (Table 10).
	Unroll []string
	// FullCompilerCoverage also registers compiler flavors for the
	// hash-table insert/lookup and hash-value primitives. By default they
	// stay on the default build: in Vectorwise these operators bypass the
	// expression evaluator, so Micro Adaptivity does not reach them (§4.1
	// notes the compiler flavor set covers only 51% of primitive cycles
	// and that fixing this "requires some additional engineering").
	FullCompilerCoverage bool
	// Decompress: subset of {"eager", "lazy", "oncompressed"} — the
	// strategies of the decompression flavor family for encoded-column
	// scans. The baseline — "eager" full-range decode for scan primitives
	// and decompress-then-compare for pushed-down selections — is always
	// registered (encoded scans cannot run without it); "lazy" adds the
	// per-selection-vector gather scan flavor, "oncompressed" adds
	// selection evaluation on the compressed form (dictionary code
	// intervals, per-run RLE predicates).
	Decompress []string
	// Prefetch: subset of {"p0", "p4", "p16"} — software-prefetch
	// distances for hash-table lookups. This implements the paper's
	// future-work proposal (§4.1/§6): "by encoding multiple prefetching
	// approaches and distances in separate primitive [flavors], we could
	// exploit Micro Adaptivity to automatically find the best combination
	// for the hardware ... and the data characteristics". Default: p0.
	Prefetch []string
}

// Defaults returns the baseline build: one flavor per primitive.
func Defaults() Options {
	return Options{
		Compilers:  []string{"gcc"},
		Branching:  []string{"branch"},
		Compute:    []string{"selective"},
		Fission:    []string{"nofission"},
		Unroll:     []string{"u8"},
		Decompress: []string{"eager"},
	}
}

// Everything returns all flavors on every axis (four builds x three
// compilers, as in §3.1).
func Everything() Options {
	o := Defaults()
	o.Compilers = []string{"gcc", "icc", "clang"}
	o.Branching = []string{"branch", "nobranch"}
	o.Compute = []string{"selective", "full"}
	o.Fission = []string{"nofission", "fission"}
	o.Unroll = []string{"u8", "u1"}
	o.Decompress = []string{"eager", "lazy", "oncompressed"}
	return o
}

// BranchSet widens only the branching axis (Table 6's flavor set).
func BranchSet() Options {
	o := Defaults()
	o.Branching = []string{"branch", "nobranch"}
	return o
}

// CompilerSet widens only the compiler axis (Table 7's flavor set).
func CompilerSet() Options {
	o := Defaults()
	o.Compilers = []string{"gcc", "icc", "clang"}
	return o
}

// FissionSet widens only the loop-fission axis (Table 8's flavor set).
func FissionSet() Options {
	o := Defaults()
	o.Fission = []string{"nofission", "fission"}
	return o
}

// ComputeSet widens only the full-computation axis (Table 9's flavor set).
func ComputeSet() Options {
	o := Defaults()
	o.Compute = []string{"selective", "full"}
	return o
}

// UnrollSet widens only the hand-unrolling axis (Table 10's flavor set).
func UnrollSet() Options {
	o := Defaults()
	o.Unroll = []string{"u8", "u1"}
	return o
}

// DecompressSet widens only the decompression-strategy axis: the flavor
// set of the compressed-storage scenario (eager vs lazy decode, selection
// on the compressed form).
func DecompressSet() Options {
	o := Defaults()
	o.Decompress = []string{"eager", "lazy", "oncompressed"}
	return o
}

// prefetches resolves the configured prefetch distances (default p0).
func (o Options) prefetches() []int {
	if len(o.Prefetch) == 0 {
		return []int{0}
	}
	var out []int
	for _, p := range o.Prefetch {
		switch p {
		case "p0":
			out = append(out, 0)
		case "p4":
			out = append(out, 4)
		case "p16":
			out = append(out, 16)
		default:
			panic("primitive: unknown prefetch option " + p)
		}
	}
	return out
}

// codegens resolves the configured compiler profiles.
func (o Options) codegens() []*hw.Codegen {
	var out []*hw.Codegen
	for _, name := range o.Compilers {
		cg := hw.CompilerByName(name)
		if cg == nil {
			panic("primitive: unknown compiler " + name)
		}
		out = append(out, cg)
	}
	return out
}

// hashCodegens returns the compiler profiles visible to the hash-table
// primitive classes: just the default build unless FullCompilerCoverage.
func (o Options) hashCodegens() []*hw.Codegen {
	cgs := o.codegens()
	if !o.FullCompilerCoverage && len(cgs) > 1 {
		return cgs[:1]
	}
	return cgs
}

func (o Options) unrolls() []bool {
	var out []bool
	for _, u := range o.Unroll {
		switch u {
		case "u8":
			out = append(out, true)
		case "u1":
			out = append(out, false)
		default:
			panic("primitive: unknown unroll option " + u)
		}
	}
	return out
}

// flavorName builds the canonical flavor name from axis values.
func flavorName(parts ...string) string {
	name := ""
	for _, p := range parts {
		if p == "" {
			continue
		}
		if name != "" {
			name += "/"
		}
		name += p
	}
	return name
}

func unrollTag(u bool) string {
	if u {
		return "u8"
	}
	return "u1"
}

// addFlavor registers one flavor, panicking on registration conflicts
// (which are programming errors in the generators below).
func addFlavor(d *core.Dictionary, sig, class string, f *core.Flavor) {
	if err := d.AddFlavor(sig, class, f); err != nil {
		panic(err)
	}
}

// RegisterAll registers every primitive the engine uses, with the flavor
// sets selected by the options. It is the Go analogue of loading the flavor
// libraries built from the template expander (§3.1).
func RegisterAll(d *core.Dictionary, o Options) {
	registerSelections(d, o)
	registerLike(d, o)
	registerMaps(d, o)
	registerFetch(d, o)
	registerHashPrims(d, o)
	registerAggr(d, o)
	registerInsertCheck(d, o)
	registerLookup(d, o)
	registerBsearch(d, o)
	registerMergeJoin(d, o)
	registerBloom(d, o)
	registerDecompress(d, o)
}

// NewDictionary builds a dictionary and registers all primitives with the
// given options.
func NewDictionary(o Options) *core.Dictionary {
	d := core.NewDictionary()
	RegisterAll(d, o)
	return d
}

// SelSig builds a selection primitive signature, e.g.
// select_<_sint_col_sint_val.
func SelSig(op string, t vector.Type, rhsCol bool) string {
	rhs := "val"
	if rhsCol {
		rhs = "col"
	}
	return fmt.Sprintf("select_%s_%s_col_%s_%s", op, t, t, rhs)
}

// MapSig builds a map primitive signature, e.g. map_*_slng_col_slng_val.
// shape is "col_col", "col_val" or "val_col".
func MapSig(op string, t vector.Type, shape string) string {
	switch shape {
	case "col_col":
		return fmt.Sprintf("map_%s_%s_col_%s_col", op, t, t)
	case "col_val":
		return fmt.Sprintf("map_%s_%s_col_%s_val", op, t, t)
	case "val_col":
		return fmt.Sprintf("map_%s_%s_val_%s_col", op, t, t)
	default:
		panic("primitive: bad map shape " + shape)
	}
}

// FetchSig builds a fetch primitive signature, e.g.
// map_fetch_uidx_col_str_col.
func FetchSig(t vector.Type) string {
	return fmt.Sprintf("map_fetch_uidx_col_%s_col", t)
}
