package wpp

import (
	"math"
	"math/bits"
	"slices"

	"twpp/internal/cfg"
)

// Dense per-trace block numbering: the compaction kernels (DBB
// discovery in compactTrace, timestamp inversion in core.FromPath) key
// every per-block fact by a small local index instead of by block id
// in a Go map. Numbering goes through a flat open-addressing table,
// never through a slice indexed by raw id: block ids arriving through
// trace.Demux reach 2^32-1, so a raw-id table would be O(max id)
// instead of O(trace).

// Numbering numbers the distinct block ids of one trace densely,
// 0..k-1 in order of first appearance. The zero value is ready to use;
// reusing one Numbering across traces reuses all of its storage, so
// the kernels keep theirs in pooled scratch.
type Numbering struct {
	// IDs[j] is the block id with local index j, in first-appearance
	// order; len(IDs) is the trace's distinct block count k.
	IDs []cfg.BlockID
	// Local[i] is the local index of the trace's i-th block.
	Local []int32
	// Count[j] is the number of occurrences of IDs[j] in the trace.
	Count []int32

	slots []numSlot
	shift uint   // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits
	gen   uint32 // slots stamped with another gen are empty, so reset is O(1)
}

// numSlot is one open-addressing table entry.
type numSlot struct {
	id    cfg.BlockID
	gen   uint32
	local int32
}

const (
	minNumSlots = 64
	fibHash     = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
)

// Number fills IDs, Local and Count for tr, replacing the previous
// trace's numbering. Local and Count hold int32, so tr must have fewer
// than 2^31 blocks.
func (n *Numbering) Number(tr PathTrace) {
	if len(tr) > math.MaxInt32 {
		panic("wpp: trace too long to number")
	}
	n.IDs = n.IDs[:0]
	if n.slots == nil {
		n.resize(minNumSlots)
	}
	n.gen++
	if n.gen == 0 { // wrapped: stale slots could look live again
		clear(n.slots)
		n.gen = 1
	}
	ids, count, local := n.IDs, n.Count[:0], slices.Grow(n.Local[:0], len(tr))[:len(tr)]
	slots, shift, gen := n.slots, n.shift, n.gen
	mask := len(slots) - 1
	for i, id := range tr {
		h := int((uint64(id) * fibHash) >> shift)
		for {
			s := &slots[h]
			if s.gen == gen {
				if s.id == id {
					break
				}
				h = (h + 1) & mask
				continue
			}
			if 2*(len(ids)+1) > len(slots) {
				n.IDs = ids
				n.resize(2 * len(slots))
				slots, shift = n.slots, n.shift
				mask = len(slots) - 1
				h = int((uint64(id) * fibHash) >> shift)
				continue
			}
			*s = numSlot{id: id, gen: gen, local: int32(len(ids))}
			ids = append(ids, id)
			count = append(count, 0)
			break
		}
		l := slots[h].local
		local[i] = l
		count[l]++
	}
	n.IDs, n.Count, n.Local = ids, count, local
}

// resize replaces the table with an empty one of size slots (a power
// of two) and re-inserts the ids numbered so far under the current
// generation.
func (n *Numbering) resize(size int) {
	n.slots = make([]numSlot, size)
	n.shift = uint(64 - bits.Len(uint(size-1)))
	if n.gen == 0 {
		n.gen = 1
	}
	mask := size - 1
	for j, id := range n.IDs {
		h := int((uint64(id) * fibHash) >> n.shift)
		for n.slots[h].gen == n.gen {
			h = (h + 1) & mask
		}
		n.slots[h] = numSlot{id: id, gen: n.gen, local: int32(j)}
	}
}
