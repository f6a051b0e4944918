// Command perfbench is the repository's benchmark. It drives one
// workload of the decomposition solver per run from a workload seed:
// a fixed sequence of operations whose inputs follow from the seed
// alone. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it records spans at the layer boundaries and reports the
// per-layer metrics. The last line of standard output is the JSON
// result. See README.md for the reasoning behind each workload and
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outcome is one operation's result as the harness sees it.
type outcome struct {
	latency time.Duration
	// err is nil when the output passed every check.
	err error
	// value is the operation's quality input: the MED of a
	// decomposition, E/(-Σ|J|) of a sharded solve.
	value float64
	// count is the decomposition's core-solve count.
	count int
}

// runner is a workload's program under test, set up and ready for
// operations.
type runner interface {
	// run performs operation i untraced and checks its output.
	run(i int, seed int64) outcome
	// runTraced performs operation i again with spans recorded into rec;
	// untraced is run's outcome for the same operation.
	runTraced(rec *recorder, i int, seed int64, untraced outcome) outcome
	// quality is the workload's quality ratio over the timed operations.
	quality(seeds []int64, outs []outcome) (float64, error)
	// layers derives the per-layer metrics from the recorded spans.
	layers(rec *recorder) map[string]float64
	// stages names the slices of the traced latency, from layers' output.
	stages(m map[string]float64) []stage
	close()
}

// workload is one entry of the benchmark.
type workload struct {
	name string
	// nominalMS is the expected cost of one operation on the reference
	// machine; with --seconds it fixes the operation count, so the
	// sequence never depends on the clock.
	nominalMS float64
	// unit rounds the operation count to whole passes over the inputs.
	unit      int
	warmOps   int
	setupReps int
	// tailWindow is the window of windowTail for latency_tail_ms.
	tailWindow int
	// open generates the inputs from the instance seed and returns the
	// timed set-up step, which starts the program under test.
	open func(instanceSeed int64) func() (runner, error)
}

var workloads = []workload{
	{
		name: "table1-n9", nominalMS: 120, unit: 6, warmOps: 6, setupReps: 101, tailWindow: 6,
		open: func(int64) func() (runner, error) {
			return newDecompose(decomposeSpec{
				names: []string{"cos", "tan", "exp", "ln", "erf", "denoise"},
				n:     9, free: 4, parts: 4, rounds: 1,
			})
		},
	},
	{
		// One operation per Fig. 4 function per pass, and at least one
		// pass: fewer operations would not cover the function set. An
		// operation takes seconds, so it needs no warm-up. A pass takes
		// about 50 s on a 2-vCPU box, too long for the runs BENCHMARK.json
		// schedules, so this workload is run by hand.
		name: "fig4-n16", nominalMS: 4200, unit: 10, warmOps: 0, setupReps: 5, tailWindow: 10,
		open: func(int64) func() (runner, error) {
			return newDecompose(decomposeSpec{
				names: []string{"cos", "tan", "exp", "ln", "erf", "denoise",
					"brent-kung", "forwardk2j", "inversek2j", "multiplier"},
				n: 16, free: 7, parts: 1, rounds: 1,
			})
		},
	},
	{
		name: "shard-n2048", nominalMS: 320, unit: 1, warmOps: 10, setupReps: 21, tailWindow: 6,
		open: func(seed int64) func() (runner, error) {
			return newShard(shardSpec{
				n: 2048, shard: 256, rounds: 6, replicas: 2, steps: 300, peers: 2,
			}, seed)
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opCount is the number of timed operations for a run of the given
// length; a traced run times each operation twice, so it runs half.
func opCount(w workload, seconds int, trace bool) int {
	n := int(math.Round(float64(seconds) * 1000 / w.nominalMS / float64(w.unit)))
	// Never less than one pass over the inputs.
	if n < 1 {
		n = 1
	}
	n *= w.unit
	if trace {
		n = (n + 1) / 2
	}
	return n
}

// Seed streams: the instance, the timed operations and the warm-up
// operations each draw from their own stream of the workload seed.
const (
	streamInstance = iota + 1
	streamTimed
	streamWarm
)

// subSeed derives stream k of a workload seed (splitmix64 finalizer).
func subSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) & math.MaxInt64)
}

func seedStream(seed int64, k, n int) []int64 {
	rng := rand.New(rand.NewSource(subSeed(seed, k)))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"quality_ratio", "ratio"},
	{"ok_frac", "frac"},
	{"alloc_mb_per_op", "MB"},
}

var perLayer = []metricDef{
	{"dalta.self_ms", "ms"},
	{"dalta.core_solves", "count"},
	{"dalta.verify_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.build_synth_ms", "ms"},
	{"core.formulate_ms", "ms"},
	{"core.spins", "count"},
	{"sb.solve_ms", "ms"},
	{"sb.iters_per_solve", "count"},
	{"sb.early_stop_frac", "frac"},
	{"sb.ns_per_spin_iter", "ns"},
	{"sb.batch.utilization", "frac"},
	{"shard.rounds_per_op", "count"},
	{"shard.sub_solves_per_op", "count"},
	{"shard.accept_frac", "frac"},
	{"shard.round_ms", "ms"},
	{"shard.outside_rounds_ms", "ms"},
	{"shard.peer_batches_per_op", "count"},
	{"shard.peer_hedge_frac", "frac"},
	{"shard.peer_fallback", "count"},
	{"serve.overhead_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.cache_hit_frac", "frac"},
	{"trace.stage_sum_frac", "frac"},
	{"trace.ops_per_s_ratio", "ratio"},
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spansDir string
}

// execute runs one workload and returns its result; log receives the
// human-readable notes.
func execute(cfg config, log func(format string, args ...any)) (result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	open := w.open(subSeed(cfg.seed, streamInstance))

	// Set up several times and keep the last program; the median is
	// the set-up time.
	var r runner
	setups := make([]float64, w.setupReps)
	for k := range setups {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = open(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups[k] = time.Since(start).Seconds()
	}
	defer r.close()

	for j, s := range seedStream(cfg.seed, streamWarm, w.warmOps) {
		if out := r.run(j, s); out.err != nil {
			return result{}, fmt.Errorf("warm-up operation %d: %w", j, out.err)
		}
	}

	n := opCount(w, cfg.seconds, cfg.trace)
	seeds := seedStream(cfg.seed, streamTimed, n)
	outs := make([]outcome, n)
	var traced []outcome
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, s := range seeds {
		outs[i] = r.run(i, s)
		if rec != nil {
			traced = append(traced, r.runTraced(rec, i, s, outs[i]))
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)

	res := result{Attempted: len(outs) + len(traced), Metrics: map[string]metricValue{}}
	for i, out := range append(append([]outcome(nil), outs...), traced...) {
		if out.err != nil {
			res.Failed++
			log("operation %d failed: %v", i%len(outs), out.err)
		}
	}
	res.Correct = res.Failed == 0
	log("%s seed=%d ops=%d warm=%d trace=%v wall=%.2fs", w.name, cfg.seed, n, w.warmOps, cfg.trace, wall.Seconds())

	values := map[string]float64{}
	if !cfg.trace {
		lat := make([]float64, n)
		for i, o := range outs {
			lat[i] = ms(o.latency)
		}
		q := 0.0
		if res.Correct {
			var err error
			if q, err = r.quality(seeds, outs); err != nil {
				log("quality: %v", err)
				res.Correct = false
			}
		}
		values["setup_s"] = median(setups)
		values["latency_p50_ms"] = median(lat)
		values["latency_tail_ms"] = windowTail(lat, w.tailWindow)
		values["ops_per_s"] = float64(n) / wall.Seconds()
		values["quality_ratio"] = q
		values["ok_frac"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
		values["alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(n)
		log("tail = median of %d window maxima, %d ops a window", (n+w.tailWindow-1)/w.tailWindow, w.tailWindow)
		fill(&res, endToEnd, values)
		return res, nil
	}

	for k, v := range r.layers(rec) {
		values[k] = v
	}
	var untracedMS, tracedMS float64
	for i := range outs {
		untracedMS += ms(outs[i].latency)
		tracedMS += ms(traced[i].latency)
	}
	values["trace.ops_per_s_ratio"] = untracedMS / tracedMS
	stages := r.stages(values)
	shares, coverage := stageShares(stages, tracedMS/float64(n))
	values["trace.stage_sum_frac"] = coverage
	for i, s := range stages {
		log("stage %-22s %10.3f ms %6.1f%%", s.name, s.ms, 100*shares[i])
	}
	if cfg.spansDir != "" {
		name := fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed)
		if err := rec.write(cfg.spansDir, name); err != nil {
			return res, err
		}
	}
	fill(&res, perLayer, values)
	return res, nil
}

// fill copies the named metrics into the result; a layer that did no
// work on this workload reports 0.
func fill(res *result, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
}

func main() {
	var cfg config
	var trace int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 35, "run length; fixes the operation count")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.spansDir, "spans-dir", ".bench_build/spans", "where a traced run writes its spans")
	flag.Parse()
	cfg.trace = trace == 1
	log := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	log("nproc=%d GOMAXPROCS=%d %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		log("perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := execute(cfg, log)
	if err != nil {
		log("perfbench: %v", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		log("perfbench: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
