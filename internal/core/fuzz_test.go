package core

import "testing"

// FuzzDecodeSigned feeds arbitrary signed streams to the wire decoder:
// it must never panic, and anything it accepts must re-encode to an
// equivalent timestamp set.
func FuzzDecodeSigned(f *testing.F) {
	f.Add([]byte{2, 6}, true)
	f.Add([]byte{1, 2, 3}, false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, raw []byte, flip bool) {
		vals := make([]int64, len(raw))
		for i, b := range raw {
			v := int64(b%120) + 1
			if (flip && i%2 == 1) || b >= 200 {
				v = -v
			}
			vals[i] = v
		}
		seq, err := DecodeSignedAppend(nil, vals)
		if err != nil {
			return
		}
		back := seq.EncodeSigned(nil)
		seq2, err := DecodeSignedAppend(nil, back)
		if err != nil {
			t.Fatalf("re-decode of re-encoded stream failed: %v (vals %v)", err, vals)
		}
		a, b := seq.Expand(), seq2.Expand()
		if len(a) != len(b) {
			t.Fatalf("expansion mismatch: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("expansion mismatch at %d: %v vs %v", i, a, b)
			}
		}
	})
}

// FuzzCompactSeries checks both compactors on arbitrary increasing
// inputs: identical expansions and optimal never exceeding greedy.
func FuzzCompactSeries(f *testing.F) {
	f.Add([]byte{1, 1, 1, 5, 1})
	f.Add([]byte{2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, deltas []byte) {
		if len(deltas) > 500 {
			deltas = deltas[:500]
		}
		ts := make([]Timestamp, 0, len(deltas))
		cur := Timestamp(0)
		for _, d := range deltas {
			cur += Timestamp(d%16) + 1
			ts = append(ts, cur)
		}
		greedy := CompactSeries(ts)
		opt := CompactSeriesOptimal(ts)
		ga, oa := greedy.Expand(), opt.Expand()
		if len(ga) != len(ts) || len(oa) != len(ts) {
			t.Fatalf("expansion length mismatch")
		}
		for i := range ts {
			if ga[i] != ts[i] || oa[i] != ts[i] {
				t.Fatalf("expansion mismatch at %d", i)
			}
		}
		if opt.Words() > greedy.Words() {
			t.Fatalf("optimal %d > greedy %d for %v", opt.Words(), greedy.Words(), ts)
		}
	})
}
