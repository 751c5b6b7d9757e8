// Package service runs many TPC-H queries concurrently over one shared
// immutable database, one session per query, with a shared flavor-knowledge
// cache that lets fresh sessions warm-start their choosers from per-flavor
// costs observed by earlier queries — the cross-run sharing of
// adaptive-tuning state that Cuttlefish (Kaftan et al., 2018) showed
// amortizes the bandit's cold-start exploration tax. Knowledge exchange is
// policy-agnostic: the cache talks to choosers only through the
// core.Snapshotter (export) and core.WarmStarter (import) capabilities, so
// every policy in the registry that implements them — vw-greedy, the
// ε-strategies, ucb1, thompson — warm-starts the same way.
package service

import (
	"math"
	"sync"

	"microadapt/internal/core"
)

// ewmaAlpha is the weight of the newest observation when merging knowledge
// into the cache. It is deliberately recent-biased for the same reason
// vw-greedy ranks arms by their latest measurement window instead of an
// all-history mean (§3.2): flavor costs are non-stationary, so a stale
// global mean would anchor new sessions to obsolete choices.
const ewmaAlpha = 0.5

// flavorKnowledge is the cached estimate for one flavor of one instance.
type flavorKnowledge struct {
	cost    float64 // EWMA cycles/tuple
	samples int64   // sessions that contributed
}

// FlavorCache is the shared cross-session knowledge store: for every
// adaptive-point key (see core.Key) it remembers the recently observed
// cost of each arm, keyed by arm *name* so sessions with different
// registered flavor sets can still exchange knowledge.
//
// Concurrency: a single RWMutex guards the two-level map. Readers (session
// construction) and writers (post-query harvest) are both rare relative to
// primitive calls — a session touches the cache once per instance, not once
// per call — so a plain mutex is cheap; the adaptive hot path inside
// sessions never takes it.
type FlavorCache struct {
	mu      sync.RWMutex
	entries map[string]map[string]*flavorKnowledge
}

// NewFlavorCache returns an empty cache.
func NewFlavorCache() *FlavorCache {
	return &FlavorCache{entries: make(map[string]map[string]*flavorKnowledge)}
}

// Observe merges one measured flavor cost (cycles/tuple) into the cache.
// Non-finite and negative costs are rejected at the door, and the merged
// estimate is re-checked after the EWMA: no code path may leave a stored
// cost non-finite, or every later warm start under this key would seed a
// poisoned prior (readers guard too, but the invariant belongs here).
func (c *FlavorCache) Observe(key, flavor string, cost float64) {
	if !finiteCost(cost) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		e = make(map[string]*flavorKnowledge)
		c.entries[key] = e
	}
	k := e[flavor]
	if k == nil {
		e[flavor] = &flavorKnowledge{cost: cost, samples: 1}
		return
	}
	merged := (1-ewmaAlpha)*k.cost + ewmaAlpha*cost
	if !finiteCost(merged) {
		// A stored MaxFloat64-adjacent estimate can push the EWMA over the
		// float64 horizon; fall back to the newest observation.
		merged = cost
	}
	k.cost = merged
	k.samples++
}

// finiteCost reports whether a cost is storable knowledge.
func finiteCost(cost float64) bool {
	return !math.IsNaN(cost) && !math.IsInf(cost, 0) && cost >= 0
}

// Priors returns per-arm prior costs for an instance whose flavors are
// named flavorNames (in arm order), in the exact shape
// core.WarmStarter.SeedPriors accepts: cached cost where known, +Inf where
// the cache has nothing. Entries whose stored cost is somehow non-finite
// are treated as unknown rather than handed out as priors. The second
// result says whether any arm had a prior.
func (c *FlavorCache) Priors(key string, flavorNames []string) ([]float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e := c.entries[key]
	if e == nil {
		return nil, false
	}
	priors := make([]float64, len(flavorNames))
	any := false
	for i, name := range flavorNames {
		if k, ok := e[name]; ok && finiteCost(k.cost) {
			priors[i] = k.cost
			any = true
		} else {
			priors[i] = math.Inf(1)
		}
	}
	return priors, any
}

// Harvest extracts the knowledge a finished session learned and merges it
// into the cache, in one walk over every adaptive point: primitive
// instances under "sig@label" keys, operator decisions (join strategies,
// table sizings) under "decision:<name>@<label>" keys, both keyed by arm
// name. Points with a single arm carry no choice and are skipped.
// Knowledge flows exclusively through the core.Snapshotter
// capability — the policy's own notion of current per-arm truth — so any
// registered policy that snapshots participates; policies without the
// capability (fixed, round-robin, heuristics) simply contribute nothing.
// Only arms the session measured itself are published: a seeded arm the
// policy never ran still carries its prior in the snapshot, and
// re-observing it would EWMA the cache's own (possibly stale) value back
// in as if it were fresh evidence. Harvest walks the session's own points
// plus those of every pipeline-fragment session it spawned; the
// fragments' partition-tagged labels collapse to the serial plan's keys,
// so P partition bandits merge into one cache entry.
func (c *FlavorCache) Harvest(s *core.Session) {
	for _, p := range s.AllPoints() {
		if len(p.Arms) <= 1 {
			continue
		}
		sn, ok := p.Chooser().(core.Snapshotter)
		if !ok {
			continue
		}
		costs, measured := sn.Snapshot()
		key := p.Key()
		for i, cost := range costs {
			if i < len(p.Arms) && i < len(measured) && measured[i] {
				c.Observe(key, p.Arms[i], cost)
			}
		}
	}
}

// Len returns the number of instance keys known to the cache.
func (c *FlavorCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
