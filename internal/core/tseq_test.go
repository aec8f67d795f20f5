package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompactSeriesPaperExample(t *testing.T) {
	// Paper §2: block 2 executing at timestamps 2..6 compacts to the
	// single entry 2:6; the full trace {1->{1}, 2->{2..6}, 6->{7}}
	// becomes {-1}, {2:-6}, {-7} in signed form.
	s := CompactSeries([]Timestamp{2, 3, 4, 5, 6})
	if len(s) != 1 || s[0] != (Entry{Lo: 2, Hi: 6, Step: 1}) {
		t.Fatalf("seq = %v", s)
	}
	signed := s.EncodeSigned(nil)
	if !reflect.DeepEqual(signed, []int64{2, -6}) {
		t.Errorf("signed = %v, want [2 -6]", signed)
	}
}

func TestCompactSeriesSteps(t *testing.T) {
	cases := []struct {
		in   []Timestamp
		want string
	}{
		{[]Timestamp{5}, "[5]"},
		{[]Timestamp{5, 6}, "[5:6]"},
		{[]Timestamp{5, 7}, "[5,7]"},
		{[]Timestamp{5, 7, 9}, "[5:9:2]"},
		{[]Timestamp{1, 2, 3, 10, 20, 30, 40, 99}, "[1:3,10:40:10,99]"},
		{[]Timestamp{2, 20}, "[2,20]"},
		{[]Timestamp{1, 2, 3, 4}, "[1:4]"},
	}
	for _, c := range cases {
		if got := CompactSeries(c.in).String(); got != c.want {
			t.Errorf("CompactSeries(%v) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSeriesRoundTripQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		// Build a strictly increasing sequence from random deltas.
		ts := make([]Timestamp, 0, len(raw))
		cur := Timestamp(0)
		for _, d := range raw {
			cur += Timestamp(d%100) + 1
			ts = append(ts, cur)
		}
		s := CompactSeries(ts)
		if !reflect.DeepEqual(s.Expand(), ts) {
			return len(ts) == 0 && s.Count() == 0
		}
		// Wire round trip.
		dec, err := DecodeSignedAppend(nil, s.EncodeSigned(nil))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(dec.Expand(), ts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSeriesNeverGrows(t *testing.T) {
	// Words() must never exceed the raw count (compaction never loses).
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(100)
		ts := make([]Timestamp, n)
		cur := Timestamp(0)
		for i := range ts {
			cur += Timestamp(1 + rng.Intn(5))
			ts[i] = cur
		}
		s := CompactSeries(ts)
		if s.Words() > n {
			t.Fatalf("Words %d > raw %d for %v -> %v", s.Words(), n, ts, s)
		}
		if s.Count() != n {
			t.Fatalf("Count %d != %d", s.Count(), n)
		}
	}
}

func TestDecodeSignedErrors(t *testing.T) {
	cases := [][]int64{
		{0},           // zero timestamp
		{5},           // dangling positive
		{1, 2, 3, -4}, // four-value entry
		{5, -4},       // lo > hi
		{2, 6, -3},    // (6-2) not divisible by 3
		{-0},          // zero again
		{3, 5, -0},
	}
	for _, c := range cases {
		if _, err := DecodeSignedAppend(nil, c); err == nil {
			t.Errorf("DecodeSignedAppend(%v): want error", c)
		}
	}
}

func TestDecodeSignedForms(t *testing.T) {
	s, err := DecodeSignedAppend(nil, []int64{-1, 2, -6, 10, 20, -5})
	if err != nil {
		t.Fatal(err)
	}
	want := Seq{
		{Lo: 1, Hi: 1, Step: 1},
		{Lo: 2, Hi: 6, Step: 1},
		{Lo: 10, Hi: 20, Step: 5},
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("decoded %v, want %v", s, want)
	}
}

func TestShift(t *testing.T) {
	// The paper's example: decrementing (2:20:2) gives (1:19:2).
	s := Seq{{Lo: 2, Hi: 20, Step: 2}}
	got := s.Shift(-1)
	if got.String() != "[1:19:2]" {
		t.Errorf("Shift(-1) = %s", got.String())
	}
	if s.String() != "[2:20:2]" {
		t.Errorf("Shift mutated receiver: %s", s.String())
	}
}

func TestContains(t *testing.T) {
	s := CompactSeries([]Timestamp{1, 5, 7, 9, 11, 20, 21, 22})
	want := map[Timestamp]bool{1: true, 5: true, 7: true, 9: true, 11: true,
		20: true, 21: true, 22: true}
	for ts := Timestamp(0); ts <= 25; ts++ {
		if s.Contains(ts) != want[ts] {
			t.Errorf("Contains(%d) = %v", ts, s.Contains(ts))
		}
	}
}

func setOp(t *testing.T, name string, op func(a, b Seq) Seq, ref func(a, b map[Timestamp]bool) map[Timestamp]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		mk := func() (Seq, map[Timestamp]bool) {
			n := rng.Intn(30)
			set := map[Timestamp]bool{}
			ts := []Timestamp{}
			cur := Timestamp(0)
			for i := 0; i < n; i++ {
				cur += Timestamp(1 + rng.Intn(4))
				ts = append(ts, cur)
				set[cur] = true
			}
			return CompactSeries(ts), set
		}
		a, sa := mk()
		b, sb := mk()
		got := op(a, b).Expand()
		wantSet := ref(sa, sb)
		want := make([]Timestamp, 0, len(wantSet))
		for ts := range wantSet {
			want = append(want, ts)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s trial %d:\n a=%s\n b=%s\n got %v\nwant %v", name, trial, a, b, got, want)
		}
	}
}

func TestIntersect(t *testing.T) {
	setOp(t, "intersect", func(a, b Seq) Seq { return a.Intersect(b) },
		func(a, b map[Timestamp]bool) map[Timestamp]bool {
			out := map[Timestamp]bool{}
			for ts := range a {
				if b[ts] {
					out[ts] = true
				}
			}
			return out
		})
}

func TestSubtract(t *testing.T) {
	setOp(t, "subtract", func(a, b Seq) Seq { return a.Subtract(b) },
		func(a, b map[Timestamp]bool) map[Timestamp]bool {
			out := map[Timestamp]bool{}
			for ts := range a {
				if !b[ts] {
					out[ts] = true
				}
			}
			return out
		})
}

func TestUnion(t *testing.T) {
	setOp(t, "union", func(a, b Seq) Seq { return a.Union(b) },
		func(a, b map[Timestamp]bool) map[Timestamp]bool {
			out := map[Timestamp]bool{}
			for ts := range a {
				out[ts] = true
			}
			for ts := range b {
				out[ts] = true
			}
			return out
		})
}

func TestIntersectAlignedSeriesFastPath(t *testing.T) {
	a := Seq{{Lo: 2, Hi: 100, Step: 2}}
	b := Seq{{Lo: 50, Hi: 200, Step: 2}}
	got := a.Intersect(b)
	if got.String() != "[50:100:2]" {
		t.Errorf("aligned intersect = %s", got)
	}
	// Misaligned phase: evens vs odds intersect empty.
	c := Seq{{Lo: 1, Hi: 99, Step: 2}}
	if r := a.Intersect(c); !r.IsEmpty() {
		t.Errorf("evens ∩ odds = %s", r)
	}
}

func TestMinMax(t *testing.T) {
	s := CompactSeries([]Timestamp{3, 4, 5, 9})
	if s.Min() != 3 || s.Max() != 9 {
		t.Errorf("Min/Max = %d/%d", s.Min(), s.Max())
	}
}

func TestEntryAccessors(t *testing.T) {
	e := Entry{Lo: 4, Hi: 16, Step: 4}
	if e.Count() != 4 {
		t.Errorf("Count = %d", e.Count())
	}
	if e.Words() != 3 {
		t.Errorf("Words = %d", e.Words())
	}
	if !e.Contains(8) || e.Contains(9) || e.Contains(20) {
		t.Error("Contains wrong")
	}
	if (Entry{Lo: 7, Hi: 7, Step: 1}).Words() != 1 {
		t.Error("singleton words != 1")
	}
	if (Entry{Lo: 7, Hi: 9, Step: 1}).Words() != 2 {
		t.Error("run words != 2")
	}
}
