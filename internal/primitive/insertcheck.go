package primitive

import (
	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/vector"
)

// makeInsertCheckI64 builds hash_insertcheck_slng_col (also used for sint
// keys after widening): for each live tuple it inserts-or-finds the key in
// the group table (Aux *GroupTableI64) and writes the group id to Res.
// The cost grows with the table's working set (Figure 4e).
func makeInsertCheckI64(v variant) core.PrimFn {
	return func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
		t := c.Aux.(*GroupTableI64)
		keys := c.In[0].I64()
		res := c.Res.I32()
		if c.Sel != nil {
			for _, i := range c.Sel {
				res[i] = t.InsertCheck(keys[i])
			}
		} else {
			for i := 0; i < c.N; i++ {
				res[i] = t.InsertCheck(keys[i])
			}
		}
		c.Res.SetLen(c.N)
		return c.Live(), insertCheckCost(ctx, v, c.Live(), t.ByteSize(), c.Inst.Calls)
	}
}

// makeInsertCheckStr builds hash_insertcheck_str_col (Figure 4e's exact
// primitive), with Aux *GroupTableStr.
func makeInsertCheckStr(v variant) core.PrimFn {
	return func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
		t := c.Aux.(*GroupTableStr)
		keys := c.In[0].Str()
		res := c.Res.I32()
		if c.Sel != nil {
			for _, i := range c.Sel {
				res[i] = t.InsertCheck(keys[i])
			}
		} else {
			for i := 0; i < c.N; i++ {
				res[i] = t.InsertCheck(keys[i])
			}
		}
		c.Res.SetLen(c.N)
		return c.Live(), insertCheckCost(ctx, v, c.Live(), t.ByteSize(), c.Inst.Calls)
	}
}

func registerInsertCheck(d *core.Dictionary, o Options) {
	for _, cg := range o.hashCodegens() {
		for _, u := range o.unrolls() {
			v := variant{cg: cg, unroll: u, class: hw.ClassHashInsert}
			meta := map[string]string{"compiler": cg.Name, "unroll": unrollTag(u)}
			addFlavor(d, "hash_insertcheck_slng_col", hw.ClassHashInsert, &core.Flavor{
				Name: flavorName(cg.Name, unrollTag(u)), Source: cg.Name, Tags: meta,
				Fn: makeInsertCheckI64(v),
			})
			addFlavor(d, "hash_insertcheck_str_col", hw.ClassHashInsert, &core.Flavor{
				Name: flavorName(cg.Name, unrollTag(u)), Source: cg.Name, Tags: meta,
				Fn: makeInsertCheckStr(v),
			})
		}
	}
}

// makeLookup builds sel_htlookup_slng_col: for each live probe tuple it
// looks up the key (In[0], slng) in the join table (Aux *JoinTable); tuples
// with a match have their position appended to SelOut and the matching
// build row id written to Res (sint) at that position. PK-FK joins have at
// most one match per probe key, which is how the engine uses it.
//
// prefetch is the software-prefetch distance of the flavor (the paper's
// future-work extension): deeper distances overlap more of the lookup's
// memory stalls, cost fixed per-tuple overhead, and waste work when the
// table is cache-resident — so the best distance depends on machine and
// table size, exactly the tuning problem Micro Adaptivity automates.
func makeLookup(v variant, miss bool, prefetch int) core.PrimFn {
	return func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
		t := c.Aux.(*JoinTable)
		keys := c.In[0].I64()
		out := c.SelOut
		var rows []int32
		if c.Res != nil {
			rows = c.Res.I32()
		}
		k := 0
		try := func(i int32) {
			r := t.Lookup(keys[i])
			if miss {
				if r < 0 {
					out[k] = i
					k++
				}
				return
			}
			if r >= 0 {
				out[k] = i
				if rows != nil {
					rows[i] = r
				}
				k++
			}
		}
		if c.Sel != nil {
			for _, i := range c.Sel {
				try(i)
			}
		} else {
			for i := 0; i < c.N; i++ {
				try(int32(i))
			}
		}
		if c.Res != nil {
			c.Res.SetLen(c.N)
		}
		m := ctx.Machine
		missRatio := hw.MissRatio(t.ByteSize(), m.LLCBytes)
		stall := missRatio * m.MemLat * probeMemMul
		perOverhead := 0.0
		switch {
		case prefetch >= 16:
			stall /= 3.2
			perOverhead = 0.6
		case prefetch >= 4:
			stall /= 1.8
			perOverhead = 0.3
		}
		// The sizing decision moves the table along a probes-vs-misses
		// curve: a snug table collides more (probeMul > 1), a roomy one
		// barely at all, but its larger ByteSize already raised missRatio.
		per := (insertElem+stall)*probeMul(t.LoadFactor())*v.mul(m) + perOverhead + v.loopOv(m)
		return k, m.CallOverhead + float64(c.Live())*per
	}
}

// probeMul scales the per-probe cost by the expected slot inspections of a
// successful linear-probing search at load factor α — (1 + 1/(1-α))/2,
// Knuth's classic result — normalized to the default "norm" sizing's α of
// 0.5 so that sizing keeps its calibrated cost.
func probeMul(alpha float64) float64 {
	if alpha > 0.95 {
		alpha = 0.95
	}
	if alpha < 0 {
		alpha = 0
	}
	const atNorm = (1 + 1/(1-0.5)) / 2
	return (1 + 1/(1-alpha)) / 2 / atNorm
}

func prefetchTag(d int) string {
	switch d {
	case 4:
		return "p4"
	case 16:
		return "p16"
	default:
		return "p0"
	}
}

func registerLookup(d *core.Dictionary, o Options) {
	for _, cg := range o.hashCodegens() {
		for _, u := range o.unrolls() {
			for _, pf := range o.prefetches() {
				v := variant{cg: cg, unroll: u, class: hw.ClassHash}
				meta := map[string]string{
					"compiler": cg.Name,
					"unroll":   unrollTag(u),
					"prefetch": prefetchTag(pf),
				}
				name := flavorName(cg.Name, unrollTag(u), prefetchTag(pf))
				addFlavor(d, "sel_htlookup_slng_col", hw.ClassHash, &core.Flavor{
					Name: name, Source: cg.Name, Tags: meta,
					Fn: makeLookup(v, false, pf),
				})
				addFlavor(d, "sel_htmiss_slng_col", hw.ClassHash, &core.Flavor{
					Name: name, Source: cg.Name, Tags: meta,
					Fn: makeLookup(v, true, pf),
				})
			}
		}
	}
}

// widenToI64 converts an I16/I32/I64 vector into an I64 key vector in res,
// a helper operators use before calling slng-keyed hash primitives.
func widenToI64(in *vector.Vector, sel vector.Sel, n int, res *vector.Vector) {
	dst := res.I64()
	switch in.Type() {
	case vector.I16:
		src := in.I16()
		if sel != nil {
			for _, i := range sel {
				dst[i] = int64(src[i])
			}
		} else {
			for i := 0; i < n; i++ {
				dst[i] = int64(src[i])
			}
		}
	case vector.I32:
		src := in.I32()
		if sel != nil {
			for _, i := range sel {
				dst[i] = int64(src[i])
			}
		} else {
			for i := 0; i < n; i++ {
				dst[i] = int64(src[i])
			}
		}
	case vector.I64:
		src := in.I64()
		if sel != nil {
			for _, i := range sel {
				dst[i] = src[i]
			}
		} else {
			copy(dst[:n], src[:n])
		}
	default:
		panic("primitive: cannot widen type " + in.Type().String())
	}
	res.SetLen(n)
}

// WidenToI64 is the exported form used by the engine.
func WidenToI64(in *vector.Vector, sel vector.Sel, n int, res *vector.Vector) {
	widenToI64(in, sel, n, res)
}
