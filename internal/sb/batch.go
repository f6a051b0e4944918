package sb

import (
	"context"
	"fmt"
	"log"
	"math"
	"runtime"
	"sync"
	"time"

	"isinglut/internal/fault"
	"isinglut/internal/ising"
	"isinglut/internal/metrics"
)

// batchMet instruments the replica-batch layer: batch runs, replica
// restarts, and worker busy time vs capacity (their ratio is the worker
// utilization reported by metrics.Snapshot).
var batchMet = metrics.ForSolver("sb.batch")

// siteBatchWorker panics a replica worker when armed, modelling a solver
// bug inside one trajectory; the worker's recover boundary converts it
// into a failed replica instead of killing the process.
var siteBatchWorker = fault.NewSite("sb.batch.worker")

// BatchParams configures a multi-replica SB run. SB hardware and GPU
// implementations always run many replicas of the oscillator network in
// parallel and keep the best rounded state; this is the CPU counterpart
// using goroutines.
type BatchParams struct {
	// Base holds the per-replica parameters; replica r runs with seed
	// Base.Seed + r.
	Base Params
	// Replicas is the number of independent trajectories (default 4).
	Replicas int
	// Workers bounds the number of concurrent replicas (default
	// GOMAXPROCS). Each worker owns one Workspace reused across all
	// replicas it runs, so a batch allocates per worker, not per replica.
	Workers int
	// MakeOnSample, when non-nil, builds a fresh sample hook per replica
	// so hooks with scratch state (like the Theorem-3 intervention) can
	// run concurrently. It overrides Base.OnSample.
	MakeOnSample func(replica int) func(iter int, x, y []float64)
}

// Stats reports the full replica portfolio of one SolveBatch call, so
// callers can see the spread behind the winner: how tight the energy
// distribution is, how many replicas the dynamic stop cut short, and how
// much iteration budget the batch actually consumed.
type Stats struct {
	// Replicas is the number of trajectories requested; Launched is the
	// number actually run (smaller only when the context interrupted the
	// batch before every replica was dispatched).
	Replicas int
	Launched int
	// Energies holds each replica's best rounded energy, indexed by
	// replica. Entries for never-launched replicas are +Inf, so a consumer
	// scanning for a minimum can never mistake an unlaunched slot for a
	// winning energy; Stopped still records StopNone for those slots.
	Energies []float64
	// Iterations holds each replica's executed Euler steps; entries for
	// never-launched replicas stay 0 (no steps were executed), which is
	// also their correct contribution to TotalIterations.
	Iterations []int
	// Stopped records why each launched replica ended (converged,
	// max-iters, cancelled, deadline); StopNone marks a replica that was
	// never launched.
	Stopped []metrics.StopReason
	// EarlyStopped marks the replicas whose dynamic stop criterion fired;
	// EarlyStops is their count.
	EarlyStopped []bool
	EarlyStops   int
	// Diverged marks the replicas quarantined by the numerical divergence
	// guard (their Energies entry is +Inf, their Stopped entry is
	// StopDiverged); Diverges is their count. Rescued marks the replicas
	// whose first divergence was re-seeded with a damped Dt instead
	// (Params.RescueDiverged); Rescues is their count. A replica that
	// panicked carries StopFailed in Stopped and +Inf in Energies.
	Diverged []bool
	Diverges int
	Rescued  []bool
	Rescues  int
	// BestReplica is the index of the winning replica (lowest energy,
	// ties toward the lowest index); -1 when no replica ran.
	BestReplica int
	// BatchStopped is the batch-level reason: StopCancelled/StopDeadline
	// when the context interrupted the batch, otherwise StopMaxIters (all
	// replicas ran their course).
	BatchStopped metrics.StopReason
}

// TotalIterations sums the executed Euler steps across replicas — the
// batch's whole iteration bill, for budget accounting.
func (s Stats) TotalIterations() int {
	total := 0
	for _, it := range s.Iterations {
		total += it
	}
	return total
}

// SolveBatch runs Replicas independent SB trajectories and returns the
// best result (ties broken toward the lowest replica index, so results
// are deterministic for a fixed Base.Seed) together with the per-replica
// statistics.
//
// The engine follows from the parameters. A batch of more than one
// replica without per-replica control flow (no OnSample hook, no
// MakeOnSample factory, no trace recording) runs on the fused lock-step
// engine (SolveFused), which streams the coupling structure once per
// step for all replicas. Everything else runs on the goroutine engine,
// where each worker goroutine reuses one Workspace across its replicas,
// so the batch performs O(workers) allocations rather than O(replicas).
// The two engines produce bit-identical winners and per-replica Stats
// for equal Base.Seed.
//
// Cancellation honors the sample-point granularity of SolveWith: when ctx
// fires, in-flight replicas return their best-so-far state within one
// sample period, queued replicas are abandoned (Stats.Stopped records
// StopNone for them), and the winner among everything that did run is
// returned with Stats.BatchStopped set. At least one replica is always
// run — even under an already-cancelled context the call returns a valid
// (if unconverged) state rather than discarding the request.
func SolveBatch(ctx context.Context, p *ising.Problem, bp BatchParams) (Result, Stats) {
	if bp.Replicas <= 0 {
		bp.Replicas = 4
	}
	if bp.Replicas > 1 && fusedEligible(bp) {
		return SolveFused(ctx, p, bp)
	}
	return solveReplicas(ctx, p, bp)
}

// solveReplicas is SolveBatch's goroutine engine: one SolveWith
// trajectory per replica, concurrently across Workers. It is the engine
// for batches with per-replica hooks or trace recording and the
// reference the fused engine is tested against.
func solveReplicas(ctx context.Context, p *ising.Problem, bp BatchParams) (Result, Stats) {
	batchStart := time.Now()
	replicas := bp.Replicas
	if replicas <= 0 {
		replicas = 4
	}
	// Resolve the automatic coupling scale once per batch: every replica
	// uses the same c0, and leaving C0 == 0 would rescan the coupling
	// norm inside each SolveWith call instead.
	if bp.Base.C0 == 0 {
		bp.Base.C0 = autoC0(p)
	}
	workers := bp.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > replicas {
		workers = replicas
	}
	if bp.Base.OnSample != nil && bp.MakeOnSample == nil && workers > 1 {
		// A shared OnSample hook would race across replicas unless the
		// caller made it safe; serializing keeps the contract simple.
		// Use MakeOnSample to run stateful hooks concurrently.
		workers = 1
	}

	stats := Stats{
		Replicas:     replicas,
		Energies:     make([]float64, replicas),
		Iterations:   make([]int, replicas),
		Stopped:      make([]metrics.StopReason, replicas),
		EarlyStopped: make([]bool, replicas),
		Diverged:     make([]bool, replicas),
		Rescued:      make([]bool, replicas),
		BatchStopped: metrics.StopMaxIters,
	}
	// A never-launched replica has no energy: +Inf keeps it out of any
	// minimum scan, where a zero would read as a valid — often winning —
	// result to a consumer that forgot to cross-check Stopped.
	for r := range stats.Energies {
		stats.Energies[r] = math.Inf(1)
	}

	// Each worker keeps only its local winner (with spins copied out of
	// the reused workspace); the final merge across workers re-applies the
	// same (energy, replica index) order a serial scan would use.
	type localBest struct {
		replica int
		res     Result
	}
	bests := make([]localBest, workers)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := NewWorkspace(p.N())
			var spinsBuf []int8
			local := localBest{replica: -1}
			busy := time.Duration(0)
			for r := range next {
				replicaStart := time.Now()
				params := bp.Base
				params.Seed = bp.Base.Seed + int64(r)
				if bp.MakeOnSample != nil {
					params.OnSample = bp.MakeOnSample(r)
				}
				res, err := runReplica(ctx, p, params, ws, r)
				busy += time.Since(replicaStart)
				if err != nil {
					// The replica panicked: record it as failed (+Inf keeps
					// it out of the minimum scan) and keep the worker alive
					// for the remaining replicas.
					log.Printf("sb: %v", err)
					stats.Energies[r] = math.Inf(1)
					stats.Stopped[r] = metrics.StopFailed
					met.ObserveRun(time.Since(replicaStart), metrics.StopFailed)
					continue
				}
				stats.Energies[r] = res.Energy
				stats.Iterations[r] = res.Iterations
				stats.Stopped[r] = res.Stopped
				stats.EarlyStopped[r] = res.StoppedEarly
				stats.Diverged[r] = res.Diverged
				stats.Rescued[r] = res.Rescued
				// Replicas arrive in increasing order per worker, so a
				// strict < keeps the lowest index among equal energies.
				if local.replica < 0 || res.Energy < local.res.Energy {
					spinsBuf = append(spinsBuf[:0], res.Spins...)
					res.Spins = spinsBuf
					local = localBest{replica: r, res: res}
				}
			}
			bests[w] = local
			batchMet.WorkerBusy.Observe(busy)
		}(w)
	}
	// Replica 0 is dispatched unconditionally so the batch always returns
	// a valid state; the rest race against the context.
	done := ctx.Done()
	launched := 0
dispatch:
	for r := 0; r < replicas; r++ {
		if r == 0 || done == nil {
			next <- r
			launched++
			continue
		}
		// The select below picks randomly when both channels are ready, so
		// check the context first — an already-cancelled batch must launch
		// exactly replica 0.
		if ctx.Err() != nil {
			break dispatch
		}
		select {
		case next <- r:
			launched++
		case <-done:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	stats.Launched = launched

	best := localBest{replica: -1}
	for _, b := range bests {
		if b.replica < 0 {
			continue
		}
		if best.replica < 0 || b.res.Energy < best.res.Energy ||
			(b.res.Energy == best.res.Energy && b.replica < best.replica) {
			best = b
		}
	}
	stats.BestReplica = best.replica
	if best.replica < 0 {
		// Every launched replica panicked: return a deterministic all-up
		// state with its true energy instead of a zero-value Result, so
		// the caller still holds a valid (if unoptimized) configuration.
		best.res = failedFallback(p)
	}
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

	wall := time.Since(batchStart)
	batchMet.ObserveRun(wall, stats.BatchStopped)
	batchMet.WorkerCapacity.Observe(wall * time.Duration(workers))
	if launched > 1 {
		batchMet.Restarts.Add(int64(launched - 1))
	}
	return best.res, stats
}

// runReplica executes one replica inside a recover boundary, converting a
// panic anywhere under SolveWith (or an armed sb.batch.worker failpoint)
// into an error so one buggy trajectory can never take down the batch.
func runReplica(ctx context.Context, p *ising.Problem, params Params, ws *Workspace, replica int) (res Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("replica %d panicked: %v", replica, rec)
		}
	}()
	if siteBatchWorker.Fire() {
		panic("fault: injected sb.batch.worker panic")
	}
	return SolveWith(ctx, p, params, ws), nil
}

// failedFallback is the all-replicas-panicked result: the deterministic
// all-up spin state with its true energy and StopFailed, so consumers get
// a valid configuration honestly labelled rather than a zero value whose
// 0 energy could read as a winning result.
func failedFallback(p *ising.Problem) Result {
	n := p.N()
	spins := make([]int8, n)
	for i := range spins {
		spins[i] = 1
	}
	e := p.EnergySpinsInto(spins, make([]float64, n), make([]float64, n))
	return Result{
		Spins:     spins,
		Energy:    e,
		Objective: e + p.Offset,
		Stopped:   metrics.StopFailed,
	}
}
