// Package core implements the timestamped whole program path (TWPP)
// representation — the primary contribution of Zhang & Gupta
// (PLDI 2001). A dictionary-compacted path trace, which maps each time
// step to a dynamic basic block (T -> B), is inverted into a mapping
// from each dynamic basic block to the ordered set of timestamps at
// which it executed (B -> P(T)). Timestamp sets are stored compacted
// as arithmetic series:
//
//	l        a single timestamp
//	l:h      the run l, l+1, ..., h
//	l:h:s    the series l, l+s, l+2s, ..., h
//
// On the wire each entry is one, two, or three integers, and the entry
// boundary is encoded for free in the sign of the entry's final value
// (stored negated), exactly as the paper describes.
package core

import (
	"fmt"
	"sort"
)

// Timestamp is a 1-based position in a compacted path trace.
type Timestamp = int64

// Entry is one arithmetic-series run of timestamps: Lo, Lo+Step, ...,
// Hi. Invariants: 1 <= Lo <= Hi; Step >= 1; (Hi-Lo) divisible by Step;
// singletons have Lo == Hi and Step == 1.
type Entry struct {
	Lo, Hi Timestamp
	Step   Timestamp
}

// Count returns the number of timestamps the entry covers.
func (e Entry) Count() int { return int((e.Hi-e.Lo)/e.Step) + 1 }

// Words returns the number of integers the entry occupies on the wire:
// 1 for a singleton, 2 for a step-1 run, 3 otherwise.
func (e Entry) Words() int {
	switch {
	case e.Lo == e.Hi:
		return 1
	case e.Step == 1:
		return 2
	default:
		return 3
	}
}

// Contains reports whether t is one of the entry's timestamps.
func (e Entry) Contains(t Timestamp) bool {
	return t >= e.Lo && t <= e.Hi && (t-e.Lo)%e.Step == 0
}

// String renders the entry in the paper's notation.
func (e Entry) String() string {
	switch {
	case e.Lo == e.Hi:
		return fmt.Sprintf("%d", e.Lo)
	case e.Step == 1:
		return fmt.Sprintf("%d:%d", e.Lo, e.Hi)
	default:
		return fmt.Sprintf("%d:%d:%d", e.Lo, e.Hi, e.Step)
	}
}

// Seq is a compacted, strictly increasing timestamp set: a list of
// non-overlapping entries in ascending order.
type Seq []Entry

// CompactSeries builds a Seq from a strictly increasing timestamp
// slice, greedily folding maximal arithmetic runs. Runs of three or
// more values (or two consecutive values, which cost no more as a
// range) become series entries.
func CompactSeries(ts []Timestamp) Seq {
	return appendSeries(nil, ts)
}

// appendSeries is CompactSeries appending the entries to out.
func appendSeries(out Seq, ts []Timestamp) Seq {
	n := len(ts)
	for i := 0; i < n; {
		if i+1 >= n {
			out = append(out, Entry{Lo: ts[i], Hi: ts[i], Step: 1})
			i++
			continue
		}
		step := ts[i+1] - ts[i]
		j := i + 1
		for j+1 < n && ts[j+1]-ts[j] == step {
			j++
		}
		runLen := j - i + 1
		switch {
		case step == 1 && runLen >= 2:
			out = append(out, Entry{Lo: ts[i], Hi: ts[j], Step: 1})
			i = j + 1
		case runLen >= 3:
			out = append(out, Entry{Lo: ts[i], Hi: ts[j], Step: step})
			i = j + 1
		default:
			out = append(out, Entry{Lo: ts[i], Hi: ts[i], Step: 1})
			i++
		}
	}
	return out
}

// Expand materializes the timestamp set in increasing order.
func (s Seq) Expand() []Timestamp {
	out := make([]Timestamp, 0, s.Count())
	for _, e := range s {
		for t := e.Lo; t <= e.Hi; t += e.Step {
			out = append(out, t)
		}
	}
	return out
}

// Count returns the number of timestamps in the set.
func (s Seq) Count() int {
	n := 0
	for _, e := range s {
		n += e.Count()
	}
	return n
}

// Words returns the wire size of the set in integers.
func (s Seq) Words() int {
	n := 0
	for _, e := range s {
		n += e.Words()
	}
	return n
}

// Contains reports whether t is in the set, by binary search over
// entries.
func (s Seq) Contains(t Timestamp) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].Hi >= t })
	return i < len(s) && s[i].Contains(t)
}

// Min returns the smallest timestamp; the Seq must be non-empty.
func (s Seq) Min() Timestamp { return s[0].Lo }

// Max returns the largest timestamp; the Seq must be non-empty.
func (s Seq) Max() Timestamp { return s[len(s)-1].Hi }

// Shift returns the set with every timestamp moved by delta (the
// paper's O(entries) simultaneous traversal step: decrementing
// (2:20:2) yields (1:19:2)).
func (s Seq) Shift(delta Timestamp) Seq {
	out := make(Seq, len(s))
	for i, e := range s {
		out[i] = Entry{Lo: e.Lo + delta, Hi: e.Hi + delta, Step: e.Step}
	}
	return out
}

// Intersect returns the set intersection of two Seqs as a fresh Seq.
// Aligned same-step series intersect in O(entries); mismatched entries
// fall back to element enumeration of the smaller entry.
func (s Seq) Intersect(o Seq) Seq {
	var ts []Timestamp
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		a, b := s[i], o[j]
		if a.Hi < b.Lo {
			i++
			continue
		}
		if b.Hi < a.Lo {
			j++
			continue
		}
		// Overlapping ranges. Fast path: identical step and congruent
		// phase.
		if a.Step == b.Step && (a.Lo-b.Lo)%a.Step == 0 {
			lo := maxT(a.Lo, b.Lo)
			hi := minT(a.Hi, b.Hi)
			// Align lo to the series phase.
			if r := (lo - a.Lo) % a.Step; r != 0 {
				lo += a.Step - r
			}
			for t := lo; t <= hi; t += a.Step {
				ts = append(ts, t)
			}
		} else {
			// Enumerate the sparser entry against the other.
			small, big := a, b
			if small.Count() > big.Count() {
				small, big = big, small
			}
			for t := small.Lo; t <= small.Hi; t += small.Step {
				if big.Contains(t) {
					ts = append(ts, t)
				}
			}
		}
		if a.Hi <= b.Hi {
			i++
		}
		if b.Hi <= a.Hi {
			j++
		}
	}
	sort.Slice(ts, func(x, y int) bool { return ts[x] < ts[y] })
	ts = dedupSorted(ts)
	return CompactSeries(ts)
}

// Subtract returns s minus o.
func (s Seq) Subtract(o Seq) Seq {
	var ts []Timestamp
	for _, e := range s {
		for t := e.Lo; t <= e.Hi; t += e.Step {
			if !o.Contains(t) {
				ts = append(ts, t)
			}
		}
	}
	return CompactSeries(ts)
}

// Union returns the set union.
func (s Seq) Union(o Seq) Seq {
	ts := s.Expand()
	ts = append(ts, o.Expand()...)
	sort.Slice(ts, func(x, y int) bool { return ts[x] < ts[y] })
	ts = dedupSorted(ts)
	return CompactSeries(ts)
}

// IsEmpty reports whether the set has no timestamps.
func (s Seq) IsEmpty() bool { return len(s) == 0 }

// String renders the set in the paper's notation, comma separated.
func (s Seq) String() string {
	out := "["
	for i, e := range s {
		if i > 0 {
			out += ","
		}
		out += e.String()
	}
	return out + "]"
}

// Signed returns the entry's sign-terminated wire values, the last one
// negated, in vals[:n] (n == e.Words()).
func (e Entry) Signed() (vals [3]int64, n int) {
	switch e.Words() {
	case 1:
		return [3]int64{-e.Lo}, 1
	case 2:
		return [3]int64{e.Lo, -e.Hi}, 2
	default:
		return [3]int64{e.Lo, e.Hi, -e.Step}, 3
	}
}

// EncodeSigned appends the sign-terminated integer encoding of the
// paper: each entry's values with the last one negated.
func (s Seq) EncodeSigned(dst []int64) []int64 {
	for _, e := range s {
		vals, n := e.Signed()
		dst = append(dst, vals[:n]...)
	}
	return dst
}

// DecodeSigned parses a sign-terminated stream produced by
// EncodeSigned, consuming entries until the stream is exhausted. An
// entry is one to three values, terminated by its single negative
// value.
func DecodeSigned(vals []int64) (Seq, error) {
	return DecodeSignedAppend(nil, vals)
}

// DecodeSignedAppend is DecodeSigned appending the decoded entries to
// dst, which may be pre-allocated (or carved from an arena) to make
// the decode allocation-free: a stream of n values decodes to at most
// n entries, so a dst with n spare capacity never grows. It performs
// no allocations of its own beyond growing dst.
func DecodeSignedAppend(dst Seq, vals []int64) (Seq, error) {
	out := dst
	var pend [2]int64
	np := 0
	for i, v := range vals {
		if v > 0 {
			if np == 2 {
				return nil, corruptf("core: entry with more than 3 values at position %d", i)
			}
			pend[np] = v
			np++
			continue
		}
		if v == 0 {
			return nil, corruptf("core: zero value at position %d (timestamps are 1-based)", i)
		}
		last := -v
		if last <= 0 {
			// v was math.MinInt64: negation overflows and the "decoded"
			// value would be a negative timestamp.
			return nil, corruptf("core: value %d at position %d out of range", v, i)
		}
		var e Entry
		switch np {
		case 0:
			e = Entry{Lo: last, Hi: last, Step: 1}
		case 1:
			e = Entry{Lo: pend[0], Hi: last, Step: 1}
		case 2:
			e = Entry{Lo: pend[0], Hi: pend[1], Step: last}
		}
		if e.Lo > e.Hi || e.Step < 1 || (e.Hi-e.Lo)%e.Step != 0 {
			return nil, corruptf("core: malformed entry %s at position %d", e, i)
		}
		out = append(out, e)
		np = 0
	}
	if np != 0 {
		return nil, corruptf("core: %d dangling values at end of stream", np)
	}
	return out, nil
}

func dedupSorted(ts []Timestamp) []Timestamp {
	if len(ts) == 0 {
		return ts
	}
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

func minT(a, b Timestamp) Timestamp {
	if a < b {
		return a
	}
	return b
}

func maxT(a, b Timestamp) Timestamp {
	if a > b {
		return a
	}
	return b
}
