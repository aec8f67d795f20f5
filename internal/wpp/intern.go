package wpp

import (
	"math/bits"
	"slices"
)

// Content interning. Every dedup on the write and merge paths — a
// function's redundant path traces (paper Figure 3), its equal DBB
// dictionaries (Figures 4 and 5), and a segment merge's decoded traces
// and dictionaries — goes through one flat Table keyed by 64-bit FNV-1a
// content hashes. Hashing is allocation-free, and correctness never
// depends on hash quality: every full-hash match is verified by full
// content comparison, so a collision only costs a comparison and no
// hash value ever reaches an output byte.

// HashStart is the 64-bit FNV-1a offset basis: the hash of no words.
// Mix and Mix64 fold words into it.
const HashStart uint64 = 14695981039346656037

const fnvPrime64 = 1099511628211

// Mix folds one 32-bit word into the FNV-1a hash h.
func Mix(h uint64, w uint32) uint64 { return (h ^ uint64(w)) * fnvPrime64 }

// Mix64 folds a 64-bit value into h as two words, low word first.
func Mix64(h, x uint64) uint64 { return Mix(Mix(h, uint32(x)), uint32(x>>32)) }

// HashDict returns a 64-bit content hash of a dictionary. Per-chain
// hashes combine by sum, which is commutative, so map iteration order
// does not matter and nothing is sorted or allocated.
func HashDict(d Dictionary) uint64 {
	var sum uint64
	for head, chain := range d {
		h := Mix(Mix(HashStart, uint32(head)), uint32(len(chain)))
		for _, id := range chain {
			h = Mix(h, uint32(id))
		}
		sum += h
	}
	return Mix64(sum, uint64(len(d)))
}

// DictsEqual reports content equality of two dictionaries: the same
// heads, each with the same chain.
func DictsEqual(a, b Dictionary) bool {
	if len(a) != len(b) {
		return false
	}
	for head, chain := range a {
		if other, ok := b[head]; !ok || !slices.Equal(other, chain) {
			return false
		}
	}
	return true
}

// Table is a flat open-addressing index from 64-bit content hashes to
// positions in a list its caller owns. Each slot holds an entry's full
// hash and its position + 1, 0 marking an empty slot. A lookup probes
// linearly from the hash's home slot and runs the caller's equality
// check only where the full hash matches. The table doubles before it
// passes half full and rehashes from the stored hashes, so it never
// needs the entries themselves. The zero value is an empty, ready
// table.
type Table struct {
	slots []tableSlot
	shift uint // 64 - log2(len(slots)): the home slot is the top bits of h*fibHash
	n     int  // entries inserted since the last Reset
}

type tableSlot struct {
	hash uint64
	pos  int // position + 1; 0 marks an empty slot
}

const minTableSlots = 8

// Reset empties the table and sizes it for n inserts. Storage that
// already fits is reused and cleared with a memclr, so a warm table
// allocates nothing.
func (t *Table) Reset(n int) {
	size := minTableSlots
	for size < 2*n {
		size <<= 1
	}
	if cap(t.slots) < size {
		t.slots = make([]tableSlot, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
}

// Find returns the position of an entry with hash h for which same
// reports true.
func (t *Table) Find(h uint64, same func(pos int) bool) (int, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := int((h * fibHash) >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.pos == 0 {
			return 0, false
		}
		if s.hash == h && same(s.pos-1) {
			return s.pos - 1, true
		}
	}
}

// Insert records position pos under hash h. Callers insert only what
// Find did not find; entries with equal hashes coexist.
func (t *Table) Insert(h uint64, pos int) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.put(tableSlot{hash: h, pos: pos + 1})
	t.n++
}

// grow doubles the table, from minTableSlots when it has none, and
// rehashes every entry from its stored hash. It allocates afresh: a
// Reset to a smaller size leaves the old entries in the spare capacity
// that a reuse would overwrite.
func (t *Table) grow() {
	old := t.slots
	size := max(2*len(old), minTableSlots)
	t.slots = make([]tableSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.pos != 0 {
			t.put(s)
		}
	}
}

// put stores s in the first empty slot from its hash's home slot.
func (t *Table) put(s tableSlot) {
	mask := len(t.slots) - 1
	i := int((s.hash * fibHash) >> t.shift)
	for t.slots[i].pos != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// uniqueTrace is one interned unique trace of a function: the original
// block sequence (kept for verified-equality lookups), the earliest
// DCG row (EnterCall sequence) that produced it (streaming only), and, once
// compact has run, its DBB-compacted form, dictionary and dictionary
// hash.
type uniqueTrace struct {
	orig     PathTrace
	firstSeq int
	comp     PathTrace
	dict     Dictionary
	dictHash uint64
}

// compact runs DBB discovery on the trace and hashes its dictionary.
func (u *uniqueTrace) compact() {
	u.comp, u.dict = compactTrace(u.orig)
	u.dictHash = HashDict(u.dict)
}

// traceSet is one function's unique traces in interning order, indexed
// by content. The zero value is an empty set.
type traceSet struct {
	tab  Table
	uniq []*uniqueTrace
}

// intern returns the index of tr's unique trace, appending a new one,
// which added reports, when tr is the first trace of its content. The
// set keeps tr itself, not a copy.
func (ts *traceSet) intern(tr PathTrace) (idx int, added bool) {
	h := HashStart
	for _, id := range tr {
		h = Mix(h, uint32(id))
	}
	if i, ok := ts.tab.Find(h, func(i int) bool { return slices.Equal(ts.uniq[i].orig, tr) }); ok {
		return i, false
	}
	idx = len(ts.uniq)
	ts.tab.Insert(h, idx)
	ts.uniq = append(ts.uniq, &uniqueTrace{orig: tr})
	return idx, true
}

// assemble fills ft's traces and dictionaries from its compacted
// unique traces, given in first-occurrence order, sharing equal
// dictionaries in first-occurrence order, and returns the function's
// stage sizes. Its AfterDictionary counts the compacted traces only;
// the caller adds the dictionaries once every function is summed.
func assemble(ft *FunctionTraces, uniq []*uniqueTrace) Stats {
	var st Stats
	if len(uniq) == 0 {
		return st
	}
	ft.Traces = make([]PathTrace, 0, len(uniq))
	ft.OrigLen = make([]int, 0, len(uniq))
	ft.DictOf = make([]int, 0, len(uniq))
	var dicts Table
	for _, u := range uniq {
		di, ok := dicts.Find(u.dictHash, func(i int) bool { return DictsEqual(ft.Dicts[i], u.dict) })
		if !ok {
			di = len(ft.Dicts)
			dicts.Insert(u.dictHash, di)
			ft.Dicts = append(ft.Dicts, u.dict)
			st.DictionaryBytes += 4 * u.dict.Words()
		}
		ft.Traces = append(ft.Traces, u.comp)
		ft.OrigLen = append(ft.OrigLen, len(u.orig))
		ft.DictOf = append(ft.DictOf, di)
		st.AfterRedundancy += 4 * len(u.orig)
		st.AfterDictionary += 4 * len(u.comp)
	}
	st.UniqueTraces = len(uniq)
	return st
}
