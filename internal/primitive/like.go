package primitive

import (
	"strings"

	"microadapt/internal/core"
	"microadapt/internal/hw"
)

// LikeMatch matches simplified SQL LIKE patterns: literal segments
// separated by '%' wildcards ('_' is not supported; the TPC-H predicates
// this engine runs do not use it).
func LikeMatch(s, pattern string) bool {
	// Walks the pattern in place: this runs once per tuple, so splitting
	// the pattern into segments here would allocate once per tuple.
	i := strings.IndexByte(pattern, '%')
	if i < 0 {
		return s == pattern
	}
	if !strings.HasPrefix(s, pattern[:i]) {
		return false
	}
	s, pattern = s[i:], pattern[i+1:]
	j := strings.LastIndexByte(pattern, '%')
	if !strings.HasSuffix(s, pattern[j+1:]) {
		return false
	}
	s = s[:len(s)-len(pattern[j+1:])]
	for mids := pattern[:max(j, 0)]; mids != ""; {
		mid := mids
		if k := strings.IndexByte(mids, '%'); k >= 0 {
			mid, mids = mids[:k], mids[k+1:]
		} else {
			mids = ""
		}
		idx := strings.Index(s, mid)
		if idx < 0 {
			return false
		}
		s = s[idx+len(mid):]
	}
	return true
}

// likeCostFactor scales the comparison cost of string matching relative to
// an integer compare.
const likeCostFactor = 4.0

// makeSelLike builds select_like_str_col_str_val and its negation; like
// all selection primitives it has branching and no-branching flavors.
func makeSelLike(negate, branching bool, v variant) core.PrimFn {
	return func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
		col := c.In[0].Str()
		pattern := c.In[1].Str()[0]
		out := c.SelOut
		k := 0
		if branching {
			mispredicts := 0
			pred := &c.Inst.Pred
			match := func(i int32) {
				ok := LikeMatch(col[i], pattern) != negate
				if pred.Record(ok) {
					mispredicts++
				}
				if ok {
					out[k] = i
					k++
				}
			}
			if c.Sel != nil {
				for _, i := range c.Sel {
					match(i)
				}
			} else {
				for i := 0; i < c.N; i++ {
					match(int32(i))
				}
			}
			cost := selectionCost(ctx, v, c.Live(), k, mispredicts)
			cost += float64(c.Live()) * cmpElem * (likeCostFactor - 1)
			return k, cost
		}
		match := func(i int32) {
			out[k] = i
			k += b2i(LikeMatch(col[i], pattern) != negate)
		}
		if c.Sel != nil {
			for _, i := range c.Sel {
				match(i)
			}
		} else {
			for i := 0; i < c.N; i++ {
				match(int32(i))
			}
		}
		cost := selectionNoBranchCost(ctx, v, c.Live())
		cost += float64(c.Live()) * cmpElem * (likeCostFactor - 1)
		return k, cost
	}
}

// makeSelIn builds select_in_str_col and select_in_sint_col (the IN lists
// of TPC-H Q12/Q16/Q19/Q22): qualifying tuples are those whose value appears
// in the In[1] value list. The lists are tiny (2-8 values), so membership is
// a linear scan — cheaper than the map a call would otherwise build per
// batch. extraCmp is the per-tuple comparison cost beyond an integer
// compare (string lists pay likeCostFactor).
func makeSelIn[T ordered](branching bool, v variant, extraCmp float64) core.PrimFn {
	return func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
		col := sliceOf[T](c.In[0])
		vals := sliceOf[T](c.In[1])
		in := func(x T) bool {
			for _, val := range vals {
				if val == x {
					return true
				}
			}
			return false
		}
		out := c.SelOut
		k := 0
		extra := float64(c.Live()) * cmpElem * extraCmp
		if branching {
			mispredicts := 0
			pred := &c.Inst.Pred
			match := func(i int32) {
				ok := in(col[i])
				if pred.Record(ok) {
					mispredicts++
				}
				if ok {
					out[k] = i
					k++
				}
			}
			if c.Sel != nil {
				for _, i := range c.Sel {
					match(i)
				}
			} else {
				for i := 0; i < c.N; i++ {
					match(int32(i))
				}
			}
			return k, selectionCost(ctx, v, c.Live(), k, mispredicts) + extra
		}
		if c.Sel != nil {
			for _, i := range c.Sel {
				out[k] = i
				k += b2i(in(col[i]))
			}
		} else {
			for i := 0; i < c.N; i++ {
				out[k] = int32(i)
				k += b2i(in(col[i]))
			}
		}
		return k, selectionNoBranchCost(ctx, v, c.Live()) + extra
	}
}

func registerLike(d *core.Dictionary, o Options) {
	type entry struct {
		sig    string
		negate bool
		in     bool
		inI32  bool
	}
	entries := []entry{
		{"select_like_str_col_str_val", false, false, false},
		{"select_notlike_str_col_str_val", true, false, false},
		{"select_in_str_col", false, true, false},
		{"select_in_sint_col", false, false, true},
	}
	for _, e := range entries {
		for _, cg := range o.codegens() {
			for _, br := range o.Branching {
				for _, u := range o.unrolls() {
					v := variant{cg: cg, unroll: u, class: hw.ClassSelCmp}
					var fn core.PrimFn
					switch {
					case e.inI32:
						fn = makeSelIn[int32](br == "branch", v, 0)
					case e.in:
						fn = makeSelIn[string](br == "branch", v, likeCostFactor-1)
					default:
						fn = makeSelLike(e.negate, br == "branch", v)
					}
					addFlavor(d, e.sig, hw.ClassSelCmp, &core.Flavor{
						Name:   flavorName(br, cg.Name, unrollTag(u)),
						Source: cg.Name,
						Tags: map[string]string{
							"compiler": cg.Name,
							"branch":   map[string]string{"branch": "y", "nobranch": "n"}[br],
							"unroll":   unrollTag(u),
						},
						Fn: fn,
					})
				}
			}
		}
	}
}
