// Package bloom implements the blocked bloom filter Vectorwise uses to
// accelerate hash-table lookups when probe keys are often absent (§2 of the
// paper, "Loop Fission"). The filter is a plain bitmap with k hash probes
// per key; its byte size is what drives the cache behaviour studied in
// Figure 6.
package bloom

// Filter is a bloom filter over 64-bit keys.
type Filter struct {
	bits  []uint64
	mask  uint64 // number of bits - 1 (power of two)
	k     int
	items int
}

// New creates a filter of sizeBytes (rounded up to a power of two, minimum
// 64 bytes) using k hash probes per key.
func New(sizeBytes int, k int) *Filter {
	if sizeBytes < 64 {
		sizeBytes = 64
	}
	p := 64
	for p < sizeBytes {
		p *= 2
	}
	nbits := uint64(p) * 8
	if k < 1 {
		k = 1
	}
	return &Filter{
		bits: make([]uint64, nbits/64),
		mask: nbits - 1,
		k:    k,
	}
}

// SizeBytes returns the bitmap size in bytes.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// Hash is the 64-bit mix function used for filter probes; it is exported so
// the primitive cost model can account for its work explicitly.
func Hash(key int64) uint64 {
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a key.
func (f *Filter) Add(key int64) {
	h := Hash(key)
	for i := 0; i < f.k; i++ {
		bit := (h + uint64(i)*(h>>32|1)) & f.mask
		f.bits[bit>>6] |= 1 << (bit & 63)
	}
	f.items++
}

// Test reports whether the key may be present (no false negatives).
func (f *Filter) Test(key int64) bool {
	h := Hash(key)
	for i := 0; i < f.k; i++ {
		bit := (h + uint64(i)*(h>>32|1)) & f.mask
		if f.bits[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// TestHash is Test for a pre-computed hash; the fission flavor of the probe
// primitive computes all hashes in a first loop and tests in a second.
func (f *Filter) TestHash(h uint64) bool {
	for i := 0; i < f.k; i++ {
		bit := (h + uint64(i)*(h>>32|1)) & f.mask
		if f.bits[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}
