package hw

import "math/bits"

// Cache is a set-associative LRU cache simulator. It is the substrate used
// where the paper's effects depend on cache residency that evolves during a
// query (hash-table growth in Figure 4e) and is available for ad-hoc
// microarchitecture experiments.
//
// All sets live in one flat array, stride words per set: the set's fill
// count, then its tags in LRU order (front = most recent). Associativity is
// kept small (4-16) so a lookup is a short linear scan.
type Cache struct {
	lineBits uint
	setMask  uint64
	stride   int // words per set: 1 fill count + assoc tags
	ways     []uint64

	accesses uint64
	misses   uint64
}

// NewCache builds a cache of totalBytes capacity with the given line size
// and associativity. totalBytes is rounded down to a power-of-two number of
// sets; line size must be a power of two.
func NewCache(totalBytes, lineSize, assoc int) *Cache {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic("hw.NewCache: line size must be a power of two")
	}
	if assoc <= 0 {
		panic("hw.NewCache: associativity must be positive")
	}
	numSets := max(totalBytes/(lineSize*assoc), 1)
	numSets = 1 << (bits.Len(uint(numSets)) - 1) // round down to a power of two
	return &Cache{
		lineBits: uint(bits.TrailingZeros(uint(lineSize))),
		setMask:  uint64(numSets - 1),
		stride:   assoc + 1,
		ways:     make([]uint64, numSets*(assoc+1)),
	}
}

// Access touches addr and reports whether it missed. The touched line
// becomes most-recently-used; on a miss in a full set the LRU line is
// evicted.
func (c *Cache) Access(addr uint64) (miss bool) {
	c.accesses++
	tag := addr >> c.lineBits
	base := int(tag&c.setMask) * c.stride
	n := int(c.ways[base])
	set := c.ways[base+1 : base+c.stride]
	for i, t := range set[:n] {
		if t == tag {
			// Hit: move to front.
			copy(set[1:i+1], set[:i])
			set[0] = tag
			return false
		}
	}
	c.misses++
	if n < len(set) {
		n++
		c.ways[base] = uint64(n)
	}
	copy(set[1:n], set)
	set[0] = tag
	return true
}

// Flush empties the cache and zeroes the statistics.
func (c *Cache) Flush() {
	clear(c.ways)
	c.accesses, c.misses = 0, 0
}
