package primitive

import (
	"microadapt/internal/core"
	"microadapt/internal/hw"
	"microadapt/internal/vector"
)

// HashI64 is the engine's 64-bit hash (the same mix the bloom filter uses).
func HashI64(x int64) uint64 {
	u := uint64(x)
	u ^= u >> 33
	u *= 0xff51afd7ed558ccd
	u ^= u >> 33
	u *= 0xc4ceb9fe1a85ec53
	u ^= u >> 33
	return u
}

// HashStr hashes a string with FNV-1a folded through the 64-bit mixer.
func HashStr(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return HashI64(int64(h))
}

// makeMapHash builds map_hash_<t>_col: Res (slng) gets the hash of each
// live input value.
func makeMapHash(t vector.Type, v variant) core.PrimFn {
	return func(ctx *core.ExecCtx, c *core.Call) (int, float64) {
		res := c.Res.I64()
		switch t {
		case vector.I32:
			in := c.In[0].I32()
			if c.Sel != nil {
				for _, i := range c.Sel {
					res[i] = int64(HashI64(int64(in[i])))
				}
			} else {
				for i := 0; i < c.N; i++ {
					res[i] = int64(HashI64(int64(in[i])))
				}
			}
		case vector.I64:
			in := c.In[0].I64()
			if c.Sel != nil {
				for _, i := range c.Sel {
					res[i] = int64(HashI64(in[i]))
				}
			} else {
				for i := 0; i < c.N; i++ {
					res[i] = int64(HashI64(in[i]))
				}
			}
		case vector.Str:
			in := c.In[0].Str()
			if c.Sel != nil {
				for _, i := range c.Sel {
					res[i] = int64(HashStr(in[i]))
				}
			} else {
				for i := 0; i < c.N; i++ {
					res[i] = int64(HashStr(in[i]))
				}
			}
		default:
			panic("primitive: map_hash unsupported type " + t.String())
		}
		c.Res.SetLen(c.N)
		m := ctx.Machine
		per := hashElem*v.mul(m) + v.loopOv(m)
		return c.Live(), m.CallOverhead + float64(c.Live())*per
	}
}

func registerHashPrims(d *core.Dictionary, o Options) {
	for _, t := range []vector.Type{vector.I32, vector.I64, vector.Str} {
		sig := "map_hash_" + t.String() + "_col"
		for _, cg := range o.hashCodegens() {
			for _, u := range o.unrolls() {
				v := variant{cg: cg, unroll: u, class: hw.ClassHash}
				addFlavor(d, sig, hw.ClassHash, &core.Flavor{
					Name:   flavorName(cg.Name, unrollTag(u)),
					Source: cg.Name,
					Tags:   map[string]string{"compiler": cg.Name, "unroll": unrollTag(u)},
					Fn:     makeMapHash(t, v),
				})
			}
		}
	}
}
