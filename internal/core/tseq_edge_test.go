package core

import (
	"math"
	"reflect"
	"testing"
)

// Table-driven edge cases for the sign-terminated arithmetic-series
// encoding: the entry forms (singleton, l:h run, l:h:s series), the
// boundaries where one form hands off to the next, and maximum
// magnitudes. Each case round-trips Encode -> Decode and checks the
// exact wire form, since the decoder infers entry shape purely from
// sign positions.
func TestEncodeSignedEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		seq  Seq
		wire []int64
	}{
		{
			name: "single element",
			seq:  Seq{{Lo: 7, Hi: 7, Step: 1}},
			wire: []int64{-7},
		},
		{
			name: "smallest timestamp",
			seq:  Seq{{Lo: 1, Hi: 1, Step: 1}},
			wire: []int64{-1},
		},
		{
			name: "two-element run is l:h not two singletons",
			seq:  Seq{{Lo: 3, Hi: 4, Step: 1}},
			wire: []int64{3, -4},
		},
		{
			name: "step-1 run",
			seq:  Seq{{Lo: 2, Hi: 9, Step: 1}},
			wire: []int64{2, -9},
		},
		{
			name: "explicit step needs three words",
			seq:  Seq{{Lo: 2, Hi: 10, Step: 4}},
			wire: []int64{2, 10, -4},
		},
		{
			name: "two-element wide gap encodes as series",
			seq:  Seq{{Lo: 1, Hi: 101, Step: 100}},
			wire: []int64{1, 101, -100},
		},
		{
			name: "adjacent entries with sign boundaries",
			seq:  Seq{{Lo: 1, Hi: 5, Step: 2}, {Lo: 6, Hi: 6, Step: 1}, {Lo: 8, Hi: 9, Step: 1}},
			wire: []int64{1, 5, -2, -6, 8, -9},
		},
		{
			name: "maximum magnitude singleton",
			seq:  Seq{{Lo: math.MaxInt64, Hi: math.MaxInt64, Step: 1}},
			wire: []int64{-math.MaxInt64},
		},
		{
			name: "maximum magnitude run",
			seq:  Seq{{Lo: math.MaxInt64 - 1, Hi: math.MaxInt64, Step: 1}},
			wire: []int64{math.MaxInt64 - 1, -math.MaxInt64},
		},
		{
			name: "empty set encodes to nothing",
			seq:  Seq{},
			wire: nil,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := tc.seq.EncodeSigned(nil)
			if !reflect.DeepEqual(got, tc.wire) {
				t.Fatalf("EncodeSigned = %v, want %v", got, tc.wire)
			}
			back, err := DecodeSignedAppend(nil, got)
			if err != nil {
				t.Fatalf("DecodeSignedAppend(%v): %v", got, err)
			}
			if len(back) != len(tc.seq) {
				t.Fatalf("round trip %v -> %v", tc.seq, back)
			}
			for i := range back {
				if back[i] != tc.seq[i] {
					t.Fatalf("entry %d: round trip %v -> %v", i, tc.seq[i], back[i])
				}
			}
		})
	}
}

// Hostile wire forms the decoder must reject — each one a distinct
// failure mode of the sign-terminated format.
func TestDecodeSignedEdgeErrors(t *testing.T) {
	cases := []struct {
		name string
		wire []int64
	}{
		{"zero value", []int64{0}},
		{"zero after pending", []int64{3, 0}},
		{"four-value entry", []int64{1, 2, 3, -4}},
		{"dangling single", []int64{5}},
		{"dangling pair", []int64{5, 6}},
		{"inverted run", []int64{9, -3}},
		{"series not hitting hi", []int64{2, 9, -4}},
		{"min-int64 negation overflow", []int64{math.MinInt64}},
		{"min-int64 as series step", []int64{2, 10, math.MinInt64}},
		{"entry after error position", []int64{-1, 0}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if seq, err := DecodeSignedAppend(nil, tc.wire); err == nil {
				t.Fatalf("DecodeSignedAppend(%v) accepted hostile input: %v", tc.wire, seq)
			}
		})
	}
}

// CompactSeries boundary behavior feeding the encoder: which folds the
// greedy pass takes at the two- and three-element boundaries.
func TestCompactSeriesBoundaries(t *testing.T) {
	cases := []struct {
		name string
		in   []Timestamp
		want Seq
	}{
		{"empty", nil, nil},
		{"singleton", []Timestamp{4}, Seq{{Lo: 4, Hi: 4, Step: 1}}},
		{"pair folds to run", []Timestamp{4, 5}, Seq{{Lo: 4, Hi: 5, Step: 1}}},
		// Two singletons (2 words) beat one series (3 words), so a
		// gapped pair must NOT fold.
		{"pair with gap stays two singletons", []Timestamp{4, 9}, Seq{{Lo: 4, Hi: 4, Step: 1}, {Lo: 9, Hi: 9, Step: 1}}},
		{"three-term series", []Timestamp{1, 4, 7}, Seq{{Lo: 1, Hi: 7, Step: 3}}},
		{
			"step change splits entries",
			[]Timestamp{1, 2, 3, 10, 20, 30},
			Seq{{Lo: 1, Hi: 3, Step: 1}, {Lo: 10, Hi: 30, Step: 10}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := CompactSeries(tc.in)
			if len(got) != len(tc.want) {
				t.Fatalf("CompactSeries(%v) = %v, want %v", tc.in, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("entry %d: got %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}
