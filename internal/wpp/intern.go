package wpp

import (
	"sort"

	"twpp/internal/cfg"
)

// Trace and dictionary interning by 64-bit hash with collision
// verification. The previous implementation keyed dedup maps on
// PathTrace.key(), which allocated a 4*len(trace)-byte string per
// *call* — the hottest allocation in the pipeline, since redundant
// calls vastly outnumber unique traces (paper Figure 8). Hashing is
// allocation-free; correctness never depends on hash quality because
// every hash hit is verified by full content comparison, so a
// colliding pair simply shares a bucket.

// FNV-1a over 32-bit words. Word-at-a-time (rather than per byte)
// keeps the loop tight; the offset basis and prime are the standard
// 64-bit FNV parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashTrace returns a 64-bit content hash of a block-id sequence.
func hashTrace(t PathTrace) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range t {
		h ^= uint64(uint32(id))
		h *= fnvPrime64
	}
	return h
}

// tracesEqual reports content equality of two block-id sequences.
func tracesEqual(a, b PathTrace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hashDict returns a 64-bit content hash of a dictionary: chains in
// ascending head order, each as head, length, chain ids — the same
// canonical serialization order the file encoder uses.
func hashDict(d Dictionary) uint64 {
	heads := d.sortedHeads()
	h := uint64(fnvOffset64)
	word := func(v uint32) {
		h ^= uint64(v)
		h *= fnvPrime64
	}
	for _, head := range heads {
		chain := d[head]
		word(uint32(head))
		word(uint32(len(chain)))
		for _, id := range chain {
			word(uint32(id))
		}
	}
	return h
}

// dictsEqual reports content equality of two dictionaries.
func dictsEqual(a, b Dictionary) bool {
	if len(a) != len(b) {
		return false
	}
	for head, chain := range a {
		if !tracesEqual(b[head], chain) {
			return false
		}
	}
	return true
}

// sortedHeads returns the dictionary's chain heads in ascending order.
func (d Dictionary) sortedHeads() []cfg.BlockID {
	heads := make([]cfg.BlockID, 0, len(d))
	for h := range d {
		heads = append(heads, h)
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	return heads
}

// Interner deduplicates values by 64-bit hash with verified equality.
// It stores only bucket lists of candidate indices; the values
// themselves live with the caller, which supplies an equality check
// against its own storage — so one implementation serves both the
// batch path (values in a slice) and the streaming path (values inside
// per-trace records).
type Interner struct {
	buckets map[uint64][]int
}

// NewInterner builds an empty interner.
func NewInterner() *Interner {
	return &Interner{buckets: make(map[uint64][]int)}
}

func newInterner() *Interner { return NewInterner() }

// lookup returns the index of a previously inserted value with hash h
// for which same reports true. Hash collisions only cost extra same
// calls, never a wrong match.
func (in *Interner) lookup(h uint64, same func(idx int) bool) (int, bool) {
	for _, idx := range in.buckets[h] {
		if same(idx) {
			return idx, true
		}
	}
	return 0, false
}

// insert records idx as a candidate for hash h.
func (in *Interner) insert(h uint64, idx int) {
	in.buckets[h] = append(in.buckets[h], idx)
}

// DictsEqual is the exported form of dictsEqual.
func DictsEqual(a, b Dictionary) bool { return dictsEqual(a, b) }
