package sb

import (
	"context"
	"math"
	"math/rand"
	"time"

	"isinglut/internal/ising"
	"isinglut/internal/metrics"
)

// fusedEligible reports whether a batch can run on the fused engine.
// Per-replica sample hooks and trace recording force divergent per-replica
// control flow (and per-replica allocations), which the lock-step engine
// deliberately does not support.
func fusedEligible(bp BatchParams) bool {
	return bp.Base.OnSample == nil && bp.MakeOnSample == nil && !bp.Base.RecordTrace
}

// FusedWorkspace owns every buffer a fused multi-replica run needs. Lane
// state (positions, momenta, dSB signs, rounded spins, energy scratch) is
// stored as n×r column-major blocks — lane l occupies [l*n:(l+1)*n] — so
// the whole block feeds ising.FieldBatch directly and any single lane is
// a valid scalar vector. Best-so-far spins and the per-replica counters
// are indexed by replica, not lane: lanes are compacted as replicas
// retire, replicas are not.
//
// Like Workspace, a FusedWorkspace is not safe for concurrent use, and a
// warm one makes SolveFusedWith allocation-free per step (the per-call
// Stats slices are the only allocations).
type FusedWorkspace struct {
	x, y []float64 // oscillator lanes, n×r
	sgn  []float64 // dSB sign lanes, n×r
	xs   []float64 // float64 spin view lanes for energy evaluation, n×r
	fld  []float64 // field-product lanes, n×r

	spins []int8 // rounded-spin lane scratch, n×r
	best  []int8 // best rounded spins, n×replicas, replica-indexed

	bestE       []float64 // per replica
	lastSampled []int     // per replica
	samples     []int     // per replica
	rescued     []bool    // per replica: divergence rescue already spent
	laneReplica []int     // lane -> replica mapping, compacted with the lanes
	dts         []float64 // per-lane time step (damped by a rescue), compacted
	windows     []energyWindow

	rng *rand.Rand
}

// NewFusedWorkspace returns a workspace pre-sized for n-spin problems
// with r replicas. Like Workspace, sizing is an optimization, not a
// contract: the workspace grows on demand.
func NewFusedWorkspace(n, r int) *FusedWorkspace {
	fw := &FusedWorkspace{}
	fw.ensure(n, r)
	return fw
}

// ensure sizes every buffer for an n-spin, r-replica run, reusing
// existing capacity.
func (fw *FusedWorkspace) ensure(n, r int) {
	if fw.rng == nil {
		fw.rng = rand.New(rand.NewSource(0))
	}
	if cap(fw.x) < n*r {
		fw.x = make([]float64, n*r)
		fw.y = make([]float64, n*r)
		fw.sgn = make([]float64, n*r)
		fw.xs = make([]float64, n*r)
		fw.fld = make([]float64, n*r)
		fw.spins = make([]int8, n*r)
		fw.best = make([]int8, n*r)
	}
	fw.x = fw.x[:n*r]
	fw.y = fw.y[:n*r]
	fw.sgn = fw.sgn[:n*r]
	fw.xs = fw.xs[:n*r]
	fw.fld = fw.fld[:n*r]
	fw.spins = fw.spins[:n*r]
	fw.best = fw.best[:n*r]
	if cap(fw.bestE) < r {
		fw.bestE = make([]float64, r)
		fw.lastSampled = make([]int, r)
		fw.samples = make([]int, r)
		fw.rescued = make([]bool, r)
		fw.laneReplica = make([]int, r)
		fw.dts = make([]float64, r)
		fw.windows = make([]energyWindow, r)
	}
	fw.bestE = fw.bestE[:r]
	fw.lastSampled = fw.lastSampled[:r]
	fw.samples = fw.samples[:r]
	fw.rescued = fw.rescued[:r]
	fw.laneReplica = fw.laneReplica[:r]
	fw.dts = fw.dts[:r]
	fw.windows = fw.windows[:r]
}

// SolveFused runs a replica batch on the fused lock-step engine: every
// replica advances through the same Euler step together, so each step
// streams the coupling structure exactly once (ising.FieldBatch) instead
// of once per replica. Replica trajectories are bit-identical to the
// per-replica goroutine engine for equal Base.Seed — same winner, same
// per-replica Stats — because each lane reproduces SolveWith's arithmetic
// exactly; only wall-clock scheduling differs. SolveBatch routes every
// eligible multi-replica batch here.
//
// Per-replica dynamic-stop windows are evaluated lane-wise: a replica
// whose §3.3.1 criterion fires is retired and its lane compacted out, so
// the batch narrows (and each step gets cheaper) as replicas converge.
// Cancellation retires every active lane at the shared poll cadence;
// under an already-cancelled context only replica 0 is launched, matching
// the SolveBatch dispatch contract.
//
// BatchParams.Workers is ignored: the engine is single-goroutine by
// design — the shared matrix stream is the bottleneck the fusion removes,
// and lock-step lanes would serialize on it anyway. Per-replica OnSample
// hooks, MakeOnSample factories, and RecordTrace are unsupported and
// panic; SolveBatch runs such batches on the goroutine engine instead.
func SolveFused(ctx context.Context, p *ising.Problem, bp BatchParams) (Result, Stats) {
	r := bp.Replicas
	if r <= 0 {
		r = 4
	}
	return SolveFusedWith(ctx, p, bp, NewFusedWorkspace(p.N(), r))
}

// SolveFusedWith is SolveFused running inside a caller-owned workspace.
// After warm-up the engine performs zero heap allocations per step; the
// only per-call allocations are the returned Stats slices (pinned by the
// allocation-regression test). Result.Spins aliases workspace memory and
// is valid until the next call on the same workspace.
func SolveFusedWith(ctx context.Context, p *ising.Problem, bp BatchParams, fw *FusedWorkspace) (Result, Stats) {
	batchStart := time.Now()
	n := p.N()
	params := bp.Base
	replicas := bp.Replicas
	if replicas <= 0 {
		replicas = 4
	}
	if params.OnSample != nil || bp.MakeOnSample != nil {
		panic("sb: fused batch cannot run per-replica OnSample hooks (use SolveBatch)")
	}
	if params.RecordTrace {
		panic("sb: fused batch cannot record per-replica traces (use SolveBatch)")
	}
	if params.Steps <= 0 {
		panic("sb: Steps must be positive")
	}
	if params.Dt <= 0 {
		panic("sb: Dt must be positive")
	}
	a0 := params.A0
	if a0 <= 0 {
		a0 = 1
	}
	c0 := params.C0
	if c0 == 0 {
		c0 = autoC0(p) // resolved once per batch, not once per replica
	}
	sampleEvery := params.SampleEvery
	if sampleEvery <= 0 {
		if params.Stop != nil {
			sampleEvery = params.Stop.F
		} else {
			sampleEvery = 0
		}
	}
	stopF := 0
	minIters := 0
	if params.Stop != nil {
		if params.Stop.F <= 0 || params.Stop.S <= 1 {
			panic("sb: StopCriteria needs F >= 1 and S >= 2")
		}
		stopF = params.Stop.F
		minIters = params.Stop.MinIters
		if minIters <= 0 {
			minIters = params.Steps / 2
		}
	}
	ctxEvery := 0
	if ctx.Done() != nil {
		switch {
		case sampleEvery > 0:
			ctxEvery = sampleEvery
		case stopF > 0:
			ctxEvery = stopF
		default:
			ctxEvery = 64
		}
	}

	// Quantize once per batch (same policy as SolveWith). Sample-point
	// and stop-window energies below always evaluate against the exact
	// float coupling either way.
	quant, planes := quantizeFor(p, params)

	stats := Stats{
		Replicas:     replicas,
		Energies:     make([]float64, replicas),
		Iterations:   make([]int, replicas),
		Stopped:      make([]metrics.StopReason, replicas),
		EarlyStopped: make([]bool, replicas),
		Diverged:     make([]bool, replicas),
		Rescued:      make([]bool, replicas),
		BatchStopped: metrics.StopMaxIters,
		BestReplica:  -1,
	}
	// Position scan gating matches SolveWith: only the wall-clamped
	// variants treat a non-finite position as proof of corruption.
	scanX := params.Variant != Adiabatic
	for r := range stats.Energies {
		stats.Energies[r] = math.Inf(1)
	}

	// An already-cancelled context launches exactly replica 0 (the batch
	// contract: never return nothing, never start work that is already
	// cancelled). Replicas 1..n keep the unlaunched sentinels.
	launch := replicas
	if ctx.Err() != nil {
		launch = 1
	}
	stats.Launched = launch

	fw.ensure(n, replicas)
	// Lane initialization replays SolveWith's draws per replica: reseed,
	// then per spin the momentum before the position.
	for l := 0; l < launch; l++ {
		fw.rng.Seed(params.Seed + int64(l))
		xl := fw.x[l*n : l*n+n]
		yl := fw.y[l*n : l*n+n]
		for i := 0; i < n; i++ {
			yl[i] = (fw.rng.Float64()*2 - 1) * params.InitAmplitude
			xl[i] = (fw.rng.Float64()*2 - 1) * params.InitAmplitude * 0.01
		}
		fw.laneReplica[l] = l
		fw.bestE[l] = math.Inf(1)
		fw.lastSampled[l] = -1
		fw.samples[l] = 0
		fw.rescued[l] = false
		fw.dts[l] = params.Dt
		fw.windows[l].reset(windowSize(params))
	}
	// dSB reads sign(x) in the field product. The signs are maintained
	// incrementally — seeded here, then refreshed inside the integrator's
	// clamp loop — so the per-step field path never runs a separate n×r
	// sign materialization pass.
	if params.Variant == Discrete {
		for l := 0; l < launch; l++ {
			xl := fw.x[l*n : l*n+n]
			sl := fw.sgn[l*n : l*n+n]
			for i, v := range xl {
				if v >= 0 {
					sl[i] = 1
				} else {
					sl[i] = -1
				}
			}
		}
	}
	active := launch

	// retire finalizes lane l's replica at iteration it and compacts the
	// last active lane into its slot, narrowing the batch. The final
	// sample mirrors SolveWith's post-loop evaluation (scalar: it runs
	// once per replica per batch, not per step) — including its divergence
	// check: non-finite state found here overrides the nominal retirement
	// reason with a quarantine, exactly as the scalar engine's post-loop
	// sample does.
	retire := func(l, it int, reason metrics.StopReason, early bool) {
		r := fw.laneReplica[l]
		if fw.lastSampled[r] != it {
			sp := fw.spins[l*n : l*n+n]
			ising.SignsInto(fw.x[l*n:l*n+n], sp)
			e := p.EnergySpinsInto(sp, fw.xs[l*n:l*n+n], fw.fld[l*n:l*n+n])
			fw.samples[r]++
			if siteDiverge.FireKey(params.Seed + int64(r)) {
				e = math.NaN()
			}
			switch {
			case !isFinite(e) || (scanX && !allFinite(fw.x[l*n:l*n+n])):
				reason = metrics.StopDiverged
				early = false
				if math.IsInf(fw.bestE[r], 1) {
					copy(fw.best[r*n:(r+1)*n], sp)
				}
				fw.bestE[r] = math.Inf(1)
				stats.Diverged[r] = true
			case e < fw.bestE[r]:
				fw.bestE[r] = e
				copy(fw.best[r*n:(r+1)*n], sp)
			}
			fw.lastSampled[r] = it
		}
		stats.Energies[r] = fw.bestE[r]
		stats.Iterations[r] = it
		stats.Stopped[r] = reason
		stats.EarlyStopped[r] = early
		met.ObserveRun(time.Since(batchStart), reason)
		met.Iterations.Add(int64(it))
		met.Samples.Add(int64(fw.samples[r]))
		met.ObserveEnergy(fw.bestE[r])
		last := active - 1
		if l != last {
			copy(fw.x[l*n:l*n+n], fw.x[last*n:last*n+n])
			copy(fw.y[l*n:l*n+n], fw.y[last*n:last*n+n])
			if params.Variant == Discrete {
				copy(fw.sgn[l*n:l*n+n], fw.sgn[last*n:last*n+n])
			}
			// Swap the window structs (not just contents) so the retired
			// lane's ring buffer stays owned by exactly one slot.
			fw.windows[l], fw.windows[last] = fw.windows[last], fw.windows[l]
			fw.laneReplica[l] = fw.laneReplica[last]
			fw.dts[l] = fw.dts[last]
		}
		active--
	}

	// rescue is the one-shot divergence rescue, mirroring SolveWith: the
	// lane is re-seeded from its replica seed (replaying the init draws),
	// its time step halved, and its §3.3.1 window reset. The shared RNG is
	// reseeded per lane, so trajectories stay deterministic no matter how
	// many lanes rescue in one sample pass.
	rescue := func(l, r int) {
		fw.rescued[r] = true
		stats.Rescued[r] = true
		met.Rescues.Inc()
		fw.dts[l] *= 0.5
		fw.rng.Seed(params.Seed + int64(r))
		xl := fw.x[l*n : l*n+n]
		yl := fw.y[l*n : l*n+n]
		for i := 0; i < n; i++ {
			yl[i] = (fw.rng.Float64()*2 - 1) * params.InitAmplitude
			xl[i] = (fw.rng.Float64()*2 - 1) * params.InitAmplitude * 0.01
		}
		if params.Variant == Discrete {
			sl := fw.sgn[l*n : l*n+n]
			for i, v := range xl {
				if v >= 0 {
					sl[i] = 1
				} else {
					sl[i] = -1
				}
			}
		}
		fw.windows[l].reset(windowSize(params))
	}

	// sample inspects every active lane's rounded solution at iteration
	// it: one batched field product over the ±1 spin views, then a
	// per-lane energy reduction replicating EnergyContinuousInto's order.
	// Lanes are scanned top-down (like the stop-check loop) so a
	// quarantine's compaction moves an already-processed lane into the
	// vacated slot, never an unprocessed one.
	sample := func(it int) {
		ab := active * n
		for l := 0; l < active; l++ {
			sp := fw.spins[l*n : l*n+n]
			ising.SignsInto(fw.x[l*n:l*n+n], sp)
			xs := fw.xs[l*n : l*n+n]
			for i, s := range sp {
				xs[i] = float64(s)
			}
		}
		ising.FieldBatch(p.Coup, fw.xs[:ab], fw.fld[:ab], active)
		for l := active - 1; l >= 0; l-- {
			xs := fw.xs[l*n : l*n+n]
			f := fw.fld[l*n : l*n+n]
			e := 0.0
			for i := 0; i < n; i++ {
				e -= 0.5 * f[i] * xs[i]
				e -= p.Bias(i) * xs[i]
			}
			r := fw.laneReplica[l]
			fw.samples[r]++
			if siteDiverge.FireKey(params.Seed + int64(r)) {
				e = math.NaN()
			}
			fw.lastSampled[r] = it
			if !isFinite(e) || (scanX && !allFinite(fw.x[l*n:l*n+n])) {
				if params.RescueDiverged && !fw.rescued[r] {
					rescue(l, r)
				} else {
					// Quarantine: +Inf energy, last rounded state when no
					// finite sample was ever recorded (SolveWith's contract).
					if math.IsInf(fw.bestE[r], 1) {
						copy(fw.best[r*n:(r+1)*n], fw.spins[l*n:l*n+n])
					}
					fw.bestE[r] = math.Inf(1)
					stats.Diverged[r] = true
					retire(l, it, metrics.StopDiverged, false)
				}
				continue
			}
			if e < fw.bestE[r] {
				fw.bestE[r] = e
				copy(fw.best[r*n:(r+1)*n], fw.spins[l*n:l*n+n])
			}
		}
	}

	// The time step is per lane (fw.dts): identical to params.Dt
	// everywhere until a rescue damps one lane's step, so the no-fault
	// arithmetic stays bit-identical to the shared-scalar form.
	steps := params.Steps
	for iter := 0; iter < steps && active > 0; iter++ {
		at := a0 * float64(iter) / float64(steps) // shared pump ramp 0 -> a0
		ab := active * n

		// One traversal of the coupling structure serves every lane. The
		// quantized path (dSB-only) consumes the same incrementally
		// maintained sign lanes the float dSB product reads, so the two
		// paths see identical spins step for step.
		switch {
		case planes != nil:
			planes.FieldSignsBatch(fw.sgn[:ab], fw.fld[:ab], active)
		case quant != nil:
			quant.FieldSignsBatch(fw.sgn[:ab], fw.fld[:ab], active)
		default:
			src := fw.x
			if params.Variant == Discrete {
				src = fw.sgn
			}
			ising.FieldBatch(p.Coup, src[:ab], fw.fld[:ab], active)
		}
		if p.H != nil {
			for l := 0; l < active; l++ {
				f := fw.fld[l*n : l*n+n]
				for i, h := range p.H {
					f[i] += h
				}
			}
		}

		// The per-lane updates use SolveWith's exact expression shapes so
		// the compiled floating-point sequence (including any FMA fusing)
		// matches the scalar engine term for term.
		switch params.Variant {
		case Adiabatic:
			for l := 0; l < active; l++ {
				x := fw.x[l*n : l*n+n]
				y := fw.y[l*n : l*n+n]
				f := fw.fld[l*n : l*n+n]
				dt := fw.dts[l]
				for i := 0; i < n; i++ {
					y[i] += dt * (-(x[i]*x[i]+a0-at)*x[i] + c0*f[i])
					x[i] += dt * a0 * y[i]
				}
			}
		case Discrete:
			for l := 0; l < active; l++ {
				x := fw.x[l*n : l*n+n]
				y := fw.y[l*n : l*n+n]
				f := fw.fld[l*n : l*n+n]
				s := fw.sgn[l*n : l*n+n]
				dt := fw.dts[l]
				for i := 0; i < n; i++ {
					y[i] += dt * (-(a0-at)*x[i] + c0*f[i])
					x[i] += dt * a0 * y[i]
					if x[i] > 1 {
						x[i] = 1
						y[i] = 0
					} else if x[i] < -1 {
						x[i] = -1
						y[i] = 0
					}
					// Refresh the dSB sign in the same pass; x is final for
					// this step, so sign(x) here equals the sign SolveWith
					// would materialize at the top of the next step.
					if x[i] >= 0 {
						s[i] = 1
					} else {
						s[i] = -1
					}
				}
			}
		default: // Ballistic
			for l := 0; l < active; l++ {
				x := fw.x[l*n : l*n+n]
				y := fw.y[l*n : l*n+n]
				f := fw.fld[l*n : l*n+n]
				dt := fw.dts[l]
				for i := 0; i < n; i++ {
					y[i] += dt * (-(a0-at)*x[i] + c0*f[i])
					x[i] += dt * a0 * y[i]
					if x[i] > 1 {
						x[i] = 1
						y[i] = 0
					} else if x[i] < -1 {
						x[i] = -1
						y[i] = 0
					}
				}
			}
		}

		it := iter + 1
		if sampleEvery > 0 && it%sampleEvery == 0 {
			sample(it)
		}
		if stopF > 0 && it%stopF == 0 {
			// One batched field product yields every lane's continuous
			// energy for the §3.3.1 windows. Lanes are scanned top-down so
			// a retirement's compaction moves an already-processed lane
			// into the vacated slot, never an unprocessed one.
			ab = active * n
			ising.FieldBatch(p.Coup, fw.x[:ab], fw.fld[:ab], active)
			for l := active - 1; l >= 0; l-- {
				x := fw.x[l*n : l*n+n]
				f := fw.fld[l*n : l*n+n]
				e := 0.0
				for i := 0; i < n; i++ {
					e -= 0.5 * f[i] * x[i]
					e -= p.Bias(i) * x[i]
				}
				fw.windows[l].push(e)
				if it >= minIters && fw.windows[l].full() && fw.windows[l].variance() < params.Stop.Epsilon {
					retire(l, it, metrics.StopConverged, true)
				}
			}
		}
		if ctxEvery > 0 && it%ctxEvery == 0 && active > 0 && ctx.Err() != nil {
			reason := metrics.ReasonFromContext(ctx)
			for active > 0 {
				retire(active-1, it, reason, false)
			}
		}
	}
	// Survivors ran the full budget.
	for active > 0 {
		retire(active-1, steps, metrics.StopMaxIters, false)
	}

	best := -1
	for r := 0; r < replicas; r++ {
		if stats.Stopped[r] == metrics.StopNone {
			continue // never launched; Energies[r] is the +Inf sentinel
		}
		// Strict < keeps the lowest replica index among equal energies,
		// the same tie-break a serial scan uses.
		if best < 0 || stats.Energies[r] < stats.Energies[best] {
			best = r
		}
	}
	stats.BestReplica = best
	for _, stopped := range stats.EarlyStopped {
		if stopped {
			stats.EarlyStops++
		}
	}
	for r := range stats.Diverged {
		if stats.Diverged[r] {
			stats.Diverges++
		}
		if stats.Rescued[r] {
			stats.Rescues++
		}
	}
	if reason := metrics.ReasonFromContext(ctx); reason != metrics.StopNone {
		stats.BatchStopped = reason
	}

	res := Result{
		Spins:        fw.best[best*n : (best+1)*n],
		Energy:       stats.Energies[best],
		Objective:    stats.Energies[best] + p.Offset,
		Iterations:   stats.Iterations[best],
		Stopped:      stats.Stopped[best],
		StoppedEarly: stats.EarlyStopped[best],
		Samples:      fw.samples[best],
		Diverged:     stats.Diverged[best],
		Rescued:      stats.Rescued[best],
		Quantized:    quant != nil,
		BitPacked:    planes != nil,
	}

	wall := time.Since(batchStart)
	batchMet.ObserveRun(wall, stats.BatchStopped)
	// The fused engine is one lock-step worker: busy time equals wall
	// time, so utilization reads 1 rather than diluting across idle
	// worker slots that were never spawned.
	batchMet.WorkerBusy.Observe(wall)
	batchMet.WorkerCapacity.Observe(wall)
	if launch > 1 {
		batchMet.Restarts.Add(int64(launch - 1))
	}
	return res, stats
}
