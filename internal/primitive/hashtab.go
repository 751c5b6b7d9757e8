package primitive

import "sort"

// Open-addressing hash tables used by aggregation (group tables) and hash
// joins (join tables). The tables live here rather than in the engine
// because the vectorized insert-check and lookup primitives operate
// directly on their internals, exactly like the hash primitives the paper
// lists among the Aggregation and Hash-Join workhorses.

// GroupTableI64 maps int64 keys to dense group ids [0, Groups).
type GroupTableI64 struct {
	slots []int32 // group id + 1; 0 = empty
	mask  uint64
	keys  []int64 // group id -> key
}

// NewGroupTableI64 returns a table pre-sized for the given group capacity.
func NewGroupTableI64(capacity int) *GroupTableI64 {
	t := &GroupTableI64{}
	t.init(nextPow2(capacity * 2))
	return t
}

func (t *GroupTableI64) init(slots int) {
	if slots < 16 {
		slots = 16
	}
	t.slots = make([]int32, slots)
	t.mask = uint64(slots - 1)
}

// Groups returns the number of distinct keys inserted.
func (t *GroupTableI64) Groups() int { return len(t.keys) }

// ByteSize approximates the resident size of the table, the quantity that
// drives the cache-miss growth of Figure 4(e).
func (t *GroupTableI64) ByteSize() int { return len(t.slots)*4 + len(t.keys)*8 }

// InsertCheck returns the group id for key, inserting it when new.
func (t *GroupTableI64) InsertCheck(key int64) int32 {
	if len(t.keys)*4 >= len(t.slots)*3 {
		t.grow()
	}
	h := HashI64(key) & t.mask
	for {
		g := t.slots[h]
		if g == 0 {
			gid := int32(len(t.keys))
			t.keys = append(t.keys, key)
			t.slots[h] = gid + 1
			return gid
		}
		if t.keys[g-1] == key {
			return g - 1
		}
		h = (h + 1) & t.mask
	}
}

func (t *GroupTableI64) grow() {
	old := t.keys
	t.init(len(t.slots) * 2)
	for gid, k := range old {
		h := HashI64(k) & t.mask
		for t.slots[h] != 0 {
			h = (h + 1) & t.mask
		}
		t.slots[h] = int32(gid) + 1
	}
}

// GroupTableStr maps string keys to dense group ids.
type GroupTableStr struct {
	slots []int32
	mask  uint64
	keys  []string
	bytes int
}

// NewGroupTableStr returns a table pre-sized for the given group capacity.
func NewGroupTableStr(capacity int) *GroupTableStr {
	t := &GroupTableStr{}
	t.init(nextPow2(capacity * 2))
	return t
}

func (t *GroupTableStr) init(slots int) {
	if slots < 16 {
		slots = 16
	}
	t.slots = make([]int32, slots)
	t.mask = uint64(slots - 1)
}

// Groups returns the number of distinct keys inserted.
func (t *GroupTableStr) Groups() int { return len(t.keys) }

// ByteSize approximates the resident size of the table.
func (t *GroupTableStr) ByteSize() int { return len(t.slots)*4 + len(t.keys)*16 + t.bytes }

// InsertCheck returns the group id for key, inserting it when new; only a
// new key grows the table.
func (t *GroupTableStr) InsertCheck(key string) int32 {
	if len(t.keys)*4 >= len(t.slots)*3 {
		t.grow()
	}
	h := HashStr(key) & t.mask
	for {
		g := t.slots[h]
		if g == 0 {
			gid := int32(len(t.keys))
			t.keys = append(t.keys, key)
			t.bytes += len(key)
			t.slots[h] = gid + 1
			return gid
		}
		if t.keys[g-1] == key {
			return g - 1
		}
		h = (h + 1) & t.mask
	}
}

func (t *GroupTableStr) grow() {
	old := t.keys
	t.init(len(t.slots) * 2)
	for gid, k := range old {
		h := HashStr(k) & t.mask
		for t.slots[h] != 0 {
			h = (h + 1) & t.mask
		}
		t.slots[h] = int32(gid) + 1
	}
}

// JoinTable is a hash table from int64 keys to build-side row numbers,
// with chaining for duplicate keys.
type JoinTable struct {
	slots []int32 // entry index + 1; 0 = empty
	mask  uint64
	keys  []int64
	rows  []int32
	next  []int32 // entry -> next entry with same slot key chain (+1; 0 = end)
}

// JoinSizings are the capacity arms of the engine's hash-table sizing
// decision, smallest first. "snug" packs entries at up to 80% load — the
// smallest working set, but linear probing pays for the collisions;
// "norm" is the classic 50% load; "roomy" quarters the load again,
// trading resident bytes (and LLC misses once the table outgrows the
// cache) for near-collision-free probes. Which arm wins depends on build
// cardinality versus cache size, which is exactly why it is a decision
// rather than a constant.
var JoinSizings = []string{"snug", "norm", "roomy"}

// NewJoinTableSized builds the table under one of the JoinSizings arms.
// Unknown sizing names fall back to "norm" so a stale cached decision can
// never build an invalid table.
func NewJoinTableSized(keys []int64, sizing string) *JoinTable {
	var slots int
	switch sizing {
	case "snug":
		slots = nextPow2(len(keys)*5/4 + 16)
	case "roomy":
		slots = nextPow2(len(keys)*4 + 16)
	default:
		slots = nextPow2(len(keys)*2 + 16)
	}
	t := &JoinTable{
		slots: make([]int32, slots),
		mask:  uint64(slots - 1),
		keys:  make([]int64, 0, len(keys)),
		rows:  make([]int32, 0, len(keys)),
		next:  make([]int32, 0, len(keys)),
	}
	for row, k := range keys {
		t.insert(k, int32(row))
	}
	return t
}

func (t *JoinTable) insert(key int64, row int32) {
	h := HashI64(key) & t.mask
	for {
		e := t.slots[h]
		if e == 0 {
			t.keys = append(t.keys, key)
			t.rows = append(t.rows, row)
			t.next = append(t.next, 0)
			t.slots[h] = int32(len(t.keys))
			return
		}
		if t.keys[e-1] == key {
			// Chain behind the first entry of this key.
			t.keys = append(t.keys, key)
			t.rows = append(t.rows, row)
			t.next = append(t.next, t.next[e-1])
			t.next[e-1] = int32(len(t.keys))
			return
		}
		h = (h + 1) & t.mask
	}
}

// Lookup returns the first build row for key, or -1.
func (t *JoinTable) Lookup(key int64) int32 {
	h := HashI64(key) & t.mask
	for {
		e := t.slots[h]
		if e == 0 {
			return -1
		}
		if t.keys[e-1] == key {
			return t.rows[e-1]
		}
		h = (h + 1) & t.mask
	}
}

// ByteSize approximates the resident size of the table.
func (t *JoinTable) ByteSize() int {
	return len(t.slots)*4 + len(t.keys)*8 + len(t.rows)*4 + len(t.next)*4
}

// LoadFactor is entries over slots — the α that drives the expected probe
// count of the lookup cost model. Duplicate keys chain without consuming a
// slot, so this slightly overstates occupancy for dup-heavy builds; the
// cost model only needs the trend.
func (t *JoinTable) LoadFactor() float64 {
	if len(t.slots) == 0 {
		return 0
	}
	return float64(len(t.keys)) / float64(len(t.slots))
}

// SortedTable is the merge-strategy counterpart of JoinTable: the build
// side's (key, row) pairs sorted by key, then row, probed by binary
// search. Lookup returns the lowest matching build row — the same
// first-inserted-row semantics as JoinTable.Lookup — so the hash and
// merge arms of the join-strategy decision are bit-identical by
// construction, never just by luck of the data.
type SortedTable struct {
	keys []int64
	rows []int32
}

// NewSortedTable builds the table from the build side's key column.
func NewSortedTable(keys []int64) *SortedTable {
	t := &SortedTable{keys: append([]int64(nil), keys...), rows: make([]int32, len(keys))}
	for i := range t.rows {
		t.rows[i] = int32(i)
	}
	sort.Sort((*sortedByKeyRow)(t))
	return t
}

type sortedByKeyRow SortedTable

func (s *sortedByKeyRow) Len() int { return len(s.keys) }
func (s *sortedByKeyRow) Less(i, j int) bool {
	return s.keys[i] < s.keys[j] || (s.keys[i] == s.keys[j] && s.rows[i] < s.rows[j])
}
func (s *sortedByKeyRow) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

// Lookup returns the lowest build row for key, or -1.
func (t *SortedTable) Lookup(key int64) int32 {
	lo, hi := 0, len(t.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.keys) && t.keys[lo] == key {
		return t.rows[lo]
	}
	return -1
}

// Entries returns the number of build rows in the table.
func (t *SortedTable) Entries() int { return len(t.keys) }

func nextPow2(n int) int {
	p := 16
	for p < n {
		p *= 2
	}
	return p
}
