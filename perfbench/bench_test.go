package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestWindowTail(t *testing.T) {
	// Window maxima 6, 12, 18, 24, 30: the median is 18.
	lat := make([]float64, 30)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if got := windowTail(lat, 6); got != 18 {
		t.Errorf("windowTail(1..30, 6) = %v, want 18", got)
	}
	// A slow phase in a minority of the windows does not move it.
	slow := append([]float64(nil), lat...)
	for i := 24; i < 30; i++ {
		slow[i] *= 10
	}
	if got := windowTail(slow, 6); got != 18 {
		t.Errorf("windowTail with one slow window = %v, want 18", got)
	}
	// A trailing partial window counts: maxima 6 and 10.
	if got := windowTail(lat[:10], 6); got != 8 {
		t.Errorf("windowTail(1..10, 6) = %v, want 8", got)
	}
	// One window is the maximum.
	if got := windowTail(lat[:10], 10); got != 10 {
		t.Errorf("windowTail(1..10, 10) = %v, want 10", got)
	}
	if got := windowTail(nil, 6); got != 0 {
		t.Errorf("windowTail(nil) = %v, want 0", got)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := geomean([]float64{2, 8, 4}); got < 4-1e-12 || got > 4+1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{0.5, 2}); got < 1-1e-12 || got > 1+1e-12 {
		t.Errorf("geomean of reciprocal ratios = %v, want 1", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{20, 50}, {10, 30}, // overlap each other: [10,50) counts once
		{90, 120}, // sticks out of the parent: only [90,100) counts
		{-5, 5},   // starts before the parent: only [0,5) counts
		{60, 60},  // empty
	}
	if got, want := selfTime(parent, children), time.Duration(100-5-40-10); got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %v, want 100", got)
	}
	if got := selfTime(parent, []interval{{0, 100}, {10, 20}}); got != 0 {
		t.Errorf("selfTime fully covered = %v, want 0", got)
	}
}

func TestStageShares(t *testing.T) {
	shares, coverage := stageShares([]stage{{"a", 1}, {"b", 3}}, 5)
	if !reflect.DeepEqual(shares, []float64{0.2, 0.6}) || coverage != 0.8 {
		t.Errorf("shares %v coverage %v, want [0.2 0.6] 0.8", shares, coverage)
	}
	if _, coverage := stageShares([]stage{{"a", 1}}, 0); coverage != 0 {
		t.Errorf("coverage of an empty total = %v, want 0", coverage)
	}
}

func TestOpCount(t *testing.T) {
	table1, _ := findWorkload("table1-n9")
	if got := opCount(table1, 25, false); got != 210 {
		t.Errorf("table1-n9 ops = %d, want 210 (whole passes over six functions)", got)
	}
	if got := opCount(table1, 25, true); got != 105 {
		t.Errorf("traced table1-n9 ops = %d, want 105", got)
	}
	fig4, _ := findWorkload("fig4-n16")
	if got := opCount(fig4, 25, false); got != 10 {
		t.Errorf("fig4-n16 ops = %d, want one pass over the ten functions", got)
	}
}

func TestSeedStreams(t *testing.T) {
	a, b := seedStream(1, streamTimed, 8), seedStream(1, streamTimed, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("a seed stream is not reproducible")
	}
	if reflect.DeepEqual(a, seedStream(1, streamWarm, 8)) {
		t.Error("warm-up and timed operations share a stream")
	}
	if reflect.DeepEqual(a, seedStream(2, streamTimed, 8)) {
		t.Error("another workload seed gives the same operations")
	}
	g1 := spinGlass(64, rand.New(rand.NewSource(subSeed(1, streamInstance))))
	g2 := spinGlass(64, rand.New(rand.NewSource(subSeed(2, streamInstance))))
	if len(g1) < 90 || len(g1) > 96 || reflect.DeepEqual(g1, g2) {
		t.Errorf("instances: %d couplings, equal across seeds: %v", len(g1), reflect.DeepEqual(g1, g2))
	}
}

func quiet(string, ...any) {}

func mustExecute(t *testing.T, cfg config) result {
	t.Helper()
	res, err := execute(cfg, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%+v: correct %v, %d of %d failed", cfg, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// exactLayers are the per-layer metrics that must repeat bit for bit.
var exactLayers = []string{"dalta.core_solves", "core.spins", "sb.iters_per_solve", "sb.early_stop_frac"}

func TestDecomposeDeterminism(t *testing.T) {
	cfg := config{workload: "table1-n9", seed: 7, seconds: 1}
	a, b := mustExecute(t, cfg), mustExecute(t, cfg)
	q := a.Metrics["quality_ratio"].Value
	if q != b.Metrics["quality_ratio"].Value || q <= 0 {
		t.Errorf("quality_ratio %v then %v", q, b.Metrics["quality_ratio"].Value)
	}
	if a.Metrics["ok_frac"].Value != 1 {
		t.Errorf("ok_frac %v", a.Metrics["ok_frac"].Value)
	}
	other := mustExecute(t, config{workload: "table1-n9", seed: 8, seconds: 1})
	if other.Metrics["quality_ratio"].Value == q {
		t.Error("another seed gives the same quality_ratio")
	}

	cfg.trace = true
	ta, tb := mustExecute(t, cfg), mustExecute(t, cfg)
	for _, name := range exactLayers {
		if ta.Metrics[name] != tb.Metrics[name] || ta.Metrics[name].Value == 0 {
			t.Errorf("%s: %v then %v", name, ta.Metrics[name], tb.Metrics[name])
		}
	}
	if got := ta.Metrics["dalta.core_solves"].Value; got != 9*4*1 {
		t.Errorf("core solves per operation = %v, want m·P·R = 36", got)
	}
	if got := ta.Metrics["core.spins"].Value; got != 64 {
		t.Errorf("core.spins = %v, want 64", got)
	}
	if c := ta.Metrics["trace.stage_sum_frac"].Value; c < 0.95 || c > 1.05 {
		t.Errorf("stages cover %v of the traced latency", c)
	}
}

func TestShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three daemons")
	}
	cfg := config{workload: "shard-n2048", seed: 3, seconds: 1}
	a, b := mustExecute(t, cfg), mustExecute(t, cfg)
	if qa, qb := a.Metrics["quality_ratio"].Value, b.Metrics["quality_ratio"].Value; qa != qb || qa <= 0 || qa > 1 {
		t.Errorf("quality_ratio %v then %v", qa, qb)
	}
	cfg.trace = true
	tr := mustExecute(t, cfg)
	if got := tr.Metrics["shard.rounds_per_op"].Value; got != 6 {
		t.Errorf("shard.rounds_per_op = %v, want 6", got)
	}
	if got := tr.Metrics["serve.cache_hit_frac"].Value; got != 0 {
		t.Errorf("serve.cache_hit_frac = %v, want 0", got)
	}
	if c := tr.Metrics["trace.stage_sum_frac"].Value; c < 0.95 || c > 1.05 {
		t.Errorf("stages cover %v of the traced latency", c)
	}
}

// TestBenchmarkJSON keeps the descriptor at the repository root in step
// with what the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &desc); err != nil {
		t.Fatal(err)
	}
	for _, w := range desc.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q is described but not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d described, %d reported", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: described %s [%s], reported %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", desc.EndToEnd, endToEnd)
	check("per_layer", desc.PerLayer, perLayer)
}
