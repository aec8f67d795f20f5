package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Optimal arithmetic-series partitioning. CompactSeries is greedy and
// can split suboptimally — for the timestamps 1,3,5,6,7,8 it eats the
// run 1:5:2 (3 words) and leaves 6:8 (2 words), while the optimum
// spends two singletons on 1,3 and covers 5:8 with one range
// (1+1+2 = 4 words). CompactSeriesOptimal computes the cheapest
// partition by dynamic programming; the tests here and
// FuzzCompactSeries use it as the oracle that bounds how much the
// greedy encoder leaves on the table (on real traces: almost nothing).

// CompactSeriesOptimal returns a minimum-word Seq covering exactly the
// strictly increasing timestamps ts. It runs in O(n · r) time where r
// is the length of the longest uniform-step run (worst case O(n²) on
// adversarial inputs, linear on trace-like data).
func CompactSeriesOptimal(ts []Timestamp) Seq {
	n := len(ts)
	if n == 0 {
		return nil
	}
	// dp[i] = minimal words to encode ts[i:]; choice[i] = entry length
	// chosen at i.
	dp := make([]int, n+1)
	choice := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		// Singleton.
		best := dp[i+1] + 1
		bestLen := 1
		if i+1 < n {
			step := ts[i+1] - ts[i]
			// Extend a uniform-step run as far as it stays uniform; a
			// prefix of any length is a candidate entry.
			j := i + 1
			for {
				runLen := j - i + 1
				var cost int
				if step == 1 {
					cost = 2
				} else if runLen >= 3 {
					cost = 3
				} else {
					cost = -1 // a 2-element non-unit series never beats singletons
				}
				if cost > 0 && dp[j+1]+cost < best {
					best = dp[j+1] + cost
					bestLen = runLen
				}
				if j+1 >= n || ts[j+1]-ts[j] != step {
					break
				}
				j++
			}
		}
		dp[i] = best
		choice[i] = bestLen
	}

	var out Seq
	for i := 0; i < n; {
		l := choice[i]
		switch {
		case l == 1:
			out = append(out, Entry{Lo: ts[i], Hi: ts[i], Step: 1})
		default:
			step := ts[i+1] - ts[i]
			out = append(out, Entry{Lo: ts[i], Hi: ts[i+l-1], Step: step})
		}
		i += l
	}
	return out
}

// OptimalWords returns the minimal encodable word count for ts without
// materializing the Seq.
func OptimalWords(ts []Timestamp) int {
	if len(ts) == 0 {
		return 0
	}
	return CompactSeriesOptimal(ts).Words()
}

func TestOptimalBeatsGreedyExample(t *testing.T) {
	// The canonical greedy failure: 1,3,5,6,7,8.
	ts := []Timestamp{1, 3, 5, 6, 7, 8}
	greedy := CompactSeries(ts)
	opt := CompactSeriesOptimal(ts)
	if greedy.Words() != 5 {
		t.Errorf("greedy words = %d, expected 5 for this example", greedy.Words())
	}
	if opt.Words() != 4 {
		t.Errorf("optimal words = %d, want 4 (%s)", opt.Words(), opt)
	}
	if !reflect.DeepEqual(opt.Expand(), ts) {
		t.Errorf("optimal expansion mismatch: %v", opt.Expand())
	}
}

func TestOptimalNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(120)
		ts := make([]Timestamp, n)
		cur := Timestamp(0)
		for i := range ts {
			cur += Timestamp(1 + rng.Intn(6))
			ts[i] = cur
		}
		greedy := CompactSeries(ts)
		opt := CompactSeriesOptimal(ts)
		if opt.Words() > greedy.Words() {
			t.Fatalf("optimal %d > greedy %d for %v", opt.Words(), greedy.Words(), ts)
		}
		if !reflect.DeepEqual(opt.Expand(), ts) {
			t.Fatalf("optimal expansion mismatch for %v: %v", ts, opt.Expand())
		}
	}
}

func TestOptimalAgainstBruteForce(t *testing.T) {
	// Exhaustive minimal cost over all partitions, for short inputs.
	var brute func(ts []Timestamp) int
	brute = func(ts []Timestamp) int {
		if len(ts) == 0 {
			return 0
		}
		best := 1 + brute(ts[1:]) // singleton
		for l := 2; l <= len(ts); l++ {
			step := ts[1] - ts[0]
			uniform := true
			for i := 1; i < l; i++ {
				if ts[i]-ts[i-1] != step {
					uniform = false
					break
				}
			}
			if !uniform {
				break
			}
			var cost int
			switch {
			case step == 1:
				cost = 2
			case l >= 3:
				cost = 3
			default:
				continue
			}
			if c := cost + brute(ts[l:]); c < best {
				best = c
			}
		}
		return best
	}
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		ts := make([]Timestamp, n)
		cur := Timestamp(0)
		for i := range ts {
			cur += Timestamp(1 + rng.Intn(4))
			ts[i] = cur
		}
		want := brute(ts)
		if got := OptimalWords(ts); got != want {
			t.Fatalf("OptimalWords(%v) = %d, brute force = %d", ts, got, want)
		}
	}
}

func TestOptimalQuickRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		ts := make([]Timestamp, 0, len(raw))
		cur := Timestamp(0)
		for _, d := range raw {
			cur += Timestamp(d%7) + 1
			ts = append(ts, cur)
		}
		opt := CompactSeriesOptimal(ts)
		if len(ts) == 0 {
			return opt.Count() == 0
		}
		return reflect.DeepEqual(opt.Expand(), ts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOptimalEmpty(t *testing.T) {
	if CompactSeriesOptimal(nil) != nil {
		t.Error("optimal of empty input not nil")
	}
	if OptimalWords(nil) != 0 {
		t.Error("OptimalWords(nil) != 0")
	}
}

func BenchmarkGreedyVsOptimal(b *testing.B) {
	rng := rand.New(rand.NewSource(122))
	ts := make([]Timestamp, 10000)
	cur := Timestamp(0)
	for i := range ts {
		cur += Timestamp(1 + rng.Intn(4))
		ts[i] = cur
	}
	b.Run("greedy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CompactSeries(ts)
		}
		b.ReportMetric(float64(CompactSeries(ts).Words()), "words")
	})
	b.Run("optimal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CompactSeriesOptimal(ts)
		}
		b.ReportMetric(float64(CompactSeriesOptimal(ts).Words()), "words")
	})
}
