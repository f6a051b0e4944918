package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"isinglut"
	"isinglut/internal/core"
	"isinglut/internal/dalta"
	"isinglut/internal/lut"
	"isinglut/internal/metrics"
)

// decomposeSpec is one decompose workload: isinglut.DecomposeContext on
// a fixed list of the paper's benchmark functions, joint mode, the
// proposed solver with its default knobs.
type decomposeSpec struct {
	names                  []string
	n, free, parts, rounds int
}

// medFloor keeps the quality ratio finite when a method decomposes a
// function exactly (MED 0).
const medFloor = 1e-9

// decomposeRunner drives one decompose workload. Operation i decomposes
// function i mod len(names) with the operation's seed.
type decomposeRunner struct {
	spec   decomposeSpec
	tables []*isinglut.Function
	// tracer wraps the library's own dalta.NewProposed(), not a copy of
	// its settings.
	tracer *tracingSolver
}

// newDecompose returns the workload's set-up step: building the input
// truth tables, the program's only set-up.
func newDecompose(spec decomposeSpec) func() (runner, error) {
	return func() (runner, error) {
		r := &decomposeRunner{spec: spec, tracer: &tracingSolver{inner: dalta.NewProposed()}}
		for _, name := range spec.names {
			f, err := isinglut.Benchmark(name, spec.n)
			if err != nil {
				return nil, err
			}
			r.tables = append(r.tables, f)
		}
		return r, nil
	}
}

func (r *decomposeRunner) options(seed int64) isinglut.Options {
	o := isinglut.DefaultOptions(r.spec.n)
	o.FreeSize = r.spec.free
	o.Partitions = r.spec.parts
	o.Rounds = r.spec.rounds
	o.Seed = seed
	return o
}

func (r *decomposeRunner) table(i int) *isinglut.Function { return r.tables[i%len(r.tables)] }

func (r *decomposeRunner) wantSolves(f *isinglut.Function) int {
	return f.NumOutputs() * r.spec.parts * r.spec.rounds
}

func (r *decomposeRunner) run(i int, seed int64) outcome {
	f := r.table(i)
	start := time.Now()
	res, err := isinglut.DecomposeContext(context.Background(), f, r.options(seed))
	out := outcome{latency: time.Since(start)}
	if err != nil {
		out.err = err
		return out
	}
	out.value, out.count = res.MED, res.CoreSolves
	out.err = r.check(f, res.StopReason, res.CoreSolves, res.MED, res.Approx)
	return out
}

// check verifies one decomposition: it ran to the end, made m·P·R core
// solves, and its MED is finite and equal to an independent
// re-evaluation of the approximate function.
func (r *decomposeRunner) check(f *isinglut.Function, stop string, solves int, med float64, approx *isinglut.Function) error {
	if stop != "converged" {
		return fmt.Errorf("stop reason %q, want converged", stop)
	}
	if want := r.wantSolves(f); solves != want {
		return fmt.Errorf("%d core solves, want %d", solves, want)
	}
	if math.IsNaN(med) || math.IsInf(med, 0) {
		return fmt.Errorf("MED %v is not finite", med)
	}
	_, again, err := isinglut.Error(f, approx, nil)
	if err != nil {
		return fmt.Errorf("re-evaluating MED: %w", err)
	}
	if again != med {
		return fmt.Errorf("MED %v, re-evaluated %v", med, again)
	}
	return nil
}

// runTraced runs the same decomposition through dalta.Run with a
// span-recording core solver, then dalta.Verify and lut.FromOutcome, the
// steps DecomposeContext takes. Its MED and core-solve count must equal
// the untraced run's, so the traced path never measures another program.
func (r *decomposeRunner) runTraced(rec *recorder, i int, seed int64, untraced outcome) outcome {
	f := r.table(i)
	o := r.options(seed)
	start := time.Now()
	root := rec.begin("op", 0, i)
	run := rec.begin("dalta.run", root, i)
	r.tracer.rec, r.tracer.parent, r.tracer.op = rec, run, i
	res, err := dalta.Run(context.Background(), f, dalta.Config{
		Rounds:     o.Rounds,
		Partitions: o.Partitions,
		FreeSize:   o.FreeSize,
		Mode:       o.Mode,
		Solver:     r.tracer,
		Seed:       o.Seed,
	})
	rec.end(run, nil)
	if err != nil {
		rec.end(root, nil)
		return outcome{latency: time.Since(start), err: err}
	}
	verify := rec.begin("dalta.verify", root, i)
	err = dalta.Verify(f, res, nil)
	rec.end(verify, nil)
	design := rec.begin("lut.from_outcome", root, i)
	lut.FromOutcome(res)
	rec.end(design, nil)
	rec.end(root, nil)
	out := outcome{latency: time.Since(start), value: res.Report.MED, count: res.CoreSolves}
	switch {
	case err != nil:
		out.err = err
	case out.value != untraced.value || out.count != untraced.count:
		out.err = fmt.Errorf("traced MED %v / %d solves, untraced %v / %d", out.value, out.count, untraced.value, untraced.count)
	default:
		out.err = r.check(f, res.Stopped.String(), res.CoreSolves, res.Report.MED, res.Approx)
	}
	return out
}

// quality is the geometric mean over operations of MED_DALTA /
// MED_proposed, DALTA run on the same function, options and seed.
func (r *decomposeRunner) quality(seeds []int64, outs []outcome) (float64, error) {
	ratios := make([]float64, len(outs))
	for i, out := range outs {
		o := r.options(seeds[i])
		o.Method = isinglut.MethodDALTA
		base, err := isinglut.DecomposeContext(context.Background(), r.table(i), o)
		if err != nil {
			return 0, fmt.Errorf("DALTA reference: %w", err)
		}
		ratios[i] = math.Max(base.MED, medFloor) / math.Max(out.value, medFloor)
	}
	return geomean(ratios), nil
}

func (r *decomposeRunner) close() {}

// tracingSolver records a span around each core solve of the wrapped
// solver, with the deltas of the "core" and "sb" metrics the solve
// caused, as a child of span parent of operation op.
type tracingSolver struct {
	inner  dalta.CoreSolver
	rec    *recorder
	parent int
	op     int
	// spins is the size of the Ising model each solve searches.
	spins int
}

var (
	coreMet    = metrics.ForSolver("core")
	sbMet      = metrics.ForSolver("sb")
	sbBatchMet = metrics.ForSolver("sb.batch")
)

func (t *tracingSolver) Name() string { return t.inner.Name() }

func (t *tracingSolver) Solve(ctx context.Context, req dalta.Request) dalta.Result {
	if t.spins == 0 {
		t.spins = core.Formulate(dalta.BuildCOP(req)).Problem.N()
	}
	before := solverCounters()
	id := t.rec.begin("core.solve", t.parent, t.op)
	res := t.inner.Solve(ctx, req)
	t.rec.end(id, counterDelta(before, solverCounters()))
	return res
}

// solverCounters reads the solver-layer metrics that the per-layer
// split needs.
func solverCounters() map[string]int64 {
	return map[string]int64{
		"core.ns":              int64(coreMet.SolveTime.Total()),
		"sb.ns":                int64(sbMet.SolveTime.Total()),
		"sb.runs":              sbMet.Runs.Load(),
		"sb.iters":             sbMet.Iterations.Load(),
		"sb.converged":         sbMet.Converged.Load(),
		"sb.batch.ns":          int64(sbBatchMet.SolveTime.Total()),
		"sb.batch.runs":        sbBatchMet.Runs.Load(),
		"sb.batch.busy_ns":     int64(sbBatchMet.WorkerBusy.Total()),
		"sb.batch.capacity_ns": int64(sbBatchMet.WorkerCapacity.Total()),
	}
}

func counterDelta(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// layers splits the traced operations into the per-layer metrics.
func (r *decomposeRunner) layers(rec *recorder) map[string]float64 {
	var ops, self, verify, solve, buildSynth, formulate, sbMS, solves float64
	c := counterSum{}
	for i := range rec.spans {
		s := &rec.spans[i]
		switch s.Name {
		case "op":
			ops++
		case "dalta.run":
			var kids []interval
			for _, k := range rec.children(s.ID) {
				kids = append(kids, k.interval())
			}
			self += ms(selfTime(s.interval(), kids))
		case "dalta.verify", "lut.from_outcome":
			verify += s.ms()
		case "core.solve":
			solves++
			solve += s.ms()
			coreMS := float64(s.Counters["core.ns"]) / 1e6
			buildSynth += s.ms() - coreMS
			formulate += coreMS - float64(s.Counters["sb.ns"])/1e6
			sbMS += float64(s.Counters["sb.ns"]) / 1e6
			c.add(s.Counters)
		}
	}
	if ops == 0 {
		return nil
	}
	m := c.sbLayer(float64(r.tracer.spins))
	m["dalta.self_ms"] = self / ops
	m["dalta.core_solves"] = solves / ops
	m["dalta.verify_ms"] = verify / ops
	m["core.solve_ms"] = solve / ops
	m["core.build_synth_ms"] = buildSynth / ops
	m["core.formulate_ms"] = formulate / ops
	m["core.spins"] = float64(r.tracer.spins)
	m["sb.solve_ms"] = sbMS / ops
	return m
}

func (r *decomposeRunner) stages(m map[string]float64) []stage {
	return []stage{
		{"dalta.self", m["dalta.self_ms"]},
		{"core.build_synth", m["core.build_synth_ms"]},
		{"core.formulate", m["core.formulate_ms"]},
		{"sb.solve", m["sb.solve_ms"]},
		{"dalta.verify", m["dalta.verify_ms"]},
	}
}

// counterSum accumulates solver counter deltas over spans.
type counterSum map[string]int64

func (c counterSum) add(d map[string]int64) {
	for k, v := range d {
		c[k] += v
	}
}

// sbLayer derives the SB metrics from summed counters; spins is the
// problem size each SB iteration sweeps.
func (c counterSum) sbLayer(spins float64) map[string]float64 {
	m := map[string]float64{}
	if runs := float64(c["sb.runs"]); runs > 0 {
		m["sb.iters_per_solve"] = float64(c["sb.iters"]) / runs
		m["sb.early_stop_frac"] = float64(c["sb.converged"]) / runs
	}
	// Batched solves record each replica's wall time under "sb" as
	// well, so their SB time is the batch wall time.
	sbNS := c["sb.ns"]
	if c["sb.batch.runs"] > 0 {
		sbNS = c["sb.batch.ns"]
	}
	if work := float64(c["sb.iters"]) * spins; work > 0 {
		m["sb.ns_per_spin_iter"] = float64(sbNS) / work
	}
	if capNS := c["sb.batch.capacity_ns"]; capNS > 0 {
		m["sb.batch.utilization"] = float64(c["sb.batch.busy_ns"]) / float64(capNS)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
