package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func tinyConfig(t *testing.T, workload string, seed int64, trace bool) (*config, *bytes.Buffer) {
	var log bytes.Buffer
	return &config{
		workload: workload, seed: seed, window: 300 * time.Millisecond, trace: trace,
		dir: t.TempDir(), sz: tinySizes, start: time.Now(), log: &log,
	}, &log
}

// checkMetrics requires exactly the declared names, each a finite
// number; end-to-end metrics must also be positive.
func checkMetrics(t *testing.T, m metrics, names []string, positive bool) {
	t.Helper()
	if len(m) != len(names) {
		t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(m), len(names))
	}
	for _, n := range names {
		v, ok := m[n]
		switch {
		case !ok:
			t.Errorf("metric %s missing", n)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", n, v.Value)
		case positive && v.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", n, v.Value)
		}
	}
}

// TestSmokeWorkloads runs every workload at tiny size on two seeds: all
// correctness checks must pass with no failed op.
func TestSmokeWorkloads(t *testing.T) {
	endToEnd, _ := declared(t)
	for _, wl := range workloads {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", wl.name, seed), func(t *testing.T) {
				c, log := tinyConfig(t, wl.name, seed, false)
				res, err := runBench(c)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log)
				}
				checkMetrics(t, res.Metrics, endToEnd, true)
			})
		}
	}
}

// TestSmokeTraced runs the per-layer run at tiny size: every declared
// per-layer metric is reported and the spans are written.
func TestSmokeTraced(t *testing.T) {
	_, perLayer := declared(t)
	c, log := tinyConfig(t, "serve-hot", 1, true)
	res, err := runBench(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, log)
	}
	checkMetrics(t, res.Metrics, perLayer, false)
	for _, wl := range workloads {
		path := fmt.Sprintf("%s/spans-serve-hot-seed1-%s.jsonl", c.dir, wl.name)
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("spans for %s not written: %v", wl.name, err)
		}
	}
}

// TestSelfTimes pins the self-time rule: a span's duration minus the
// union of its children's intervals, overlaps counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50},
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Start: 10, End: 20},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 10, 20, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got[i], want[i])
		}
	}
}
