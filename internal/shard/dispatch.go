package shard

import (
	"context"
	"fmt"

	"isinglut/internal/fault"
	"isinglut/internal/ising"
	"isinglut/internal/metrics"
	"isinglut/internal/sb"
)

// Failpoints (no-ops unless a chaos test arms them): shard.solve fails a
// local sub-solve, modelling a broken shard engine — the shard keeps its
// current spins for the round; shard.exchange corrupts a proposal's
// evaluated energy so the accept guard must reject it, modelling a
// mangled exchange payload; shard.dispatch (armed in the serve-layer
// coordinator) fails a peer dispatch so the local fallback path runs.
var (
	siteSolve    = fault.NewSite("shard.solve")
	siteExchange = fault.NewSite("shard.exchange")
)

// SubProblem is one shard's clamped subproblem: the intra-shard couplings
// in local coordinates plus the effective biases that fold the boundary
// spins of the current global snapshot into each member's field
// (h_eff[i] = h_i + sum over outside neighbors j of J_ij sigma_j). It is
// self-contained by design — exactly what travels to a peer daemon over
// the /v1/solve wire format in coordinator mode.
type SubProblem struct {
	// Round and Index locate the sub-solve in the exchange schedule
	// (diagnostics and failpoint keys; they do not affect the answer).
	Round int
	Index int
	// N is the shard size; Couplings are the intra-shard entries with
	// I < J in local [0,N) coordinates; Bias is the length-N effective
	// bias vector.
	N         int
	Couplings []ising.Triplet
	Bias      []float64
	// Seed drives the sub-solve's deterministic trajectory; the exchange
	// loop derives a distinct seed per (round, shard).
	Seed int64
}

// SubResult reports one sub-solve: the shard's proposed local spins and
// the solver's own accounting. Energy is the subproblem energy under the
// clamped biases — advisory only; the exchange loop re-evaluates every
// proposal against the live global state before accepting it.
type SubResult struct {
	Spins      []int8
	Energy     float64
	Iterations int
	Quantized  bool
	BitPacked  bool
}

// Dispatcher runs one shard subproblem somewhere — in-process
// (LocalDispatcher) or on a peer daemon (the serve-layer coordinator).
// Implementations must be safe for concurrent calls and deterministic
// per SubProblem.Seed: the exchange loop's worker-count independence
// rests on it.
type Dispatcher interface {
	Solve(ctx context.Context, sub SubProblem) (SubResult, error)
}

// BatchDispatcher is a Dispatcher that additionally accepts one
// round's sub-solves in a single call, so an implementation that talks
// to remote peers can coalesce same-destination work into one round
// trip. SolveBatch returns parallel slices: results[i] is valid iff
// errs[i] is nil. Failures are strictly per item — the exchange loop
// degrades a failed sub-solve to kept spins exactly as it would for a
// failed Solve, and the whole call must be deterministic per
// SubProblem.Seed like Solve is.
type BatchDispatcher interface {
	Dispatcher
	SolveBatch(ctx context.Context, subs []SubProblem) ([]SubResult, []error)
}

// LocalDispatcher solves subproblems on the in-process batch engine. The
// zero value works: Base falls back to the sb defaults and Replicas to 1.
// Workers is pinned to 1 inside — shard-level parallelism lives in the
// exchange loop, so nesting replica parallelism would oversubscribe.
type LocalDispatcher struct {
	Base     sb.Params
	Replicas int
}

// Solve implements Dispatcher on sb.SolveBatch.
func (d *LocalDispatcher) Solve(ctx context.Context, sub SubProblem) (SubResult, error) {
	if siteSolve.Fire() {
		return SubResult{}, fmt.Errorf("fault: injected shard.solve failure (round %d shard %d)", sub.Round, sub.Index)
	}
	coup, err := ising.NewSparseFromTriplets(sub.N, sub.Couplings)
	if err != nil {
		return SubResult{}, fmt.Errorf("shard %d: %w", sub.Index, err)
	}
	// The same density policy a peer applies to the sub-solve it
	// receives, so both report the same kernels.
	prob, err := ising.NewProblem(ising.CompactCoupler(coup), sub.Bias, 0)
	if err != nil {
		return SubResult{}, fmt.Errorf("shard %d: %w", sub.Index, err)
	}
	params := defaultedParams(d.Base)
	params.Seed = sub.Seed
	replicas := d.Replicas
	if replicas < 1 {
		replicas = 1
	}
	res, _ := sb.SolveBatch(ctx, prob, sb.BatchParams{
		Base:     params,
		Replicas: replicas,
		Workers:  1,
	})
	if res.Diverged || res.Stopped == metrics.StopFailed {
		return SubResult{}, fmt.Errorf("shard %d sub-solve %s: no finite-energy result", sub.Index, res.Stopped)
	}
	// res.Spins may alias batch workspace memory; copy before returning.
	spins := make([]int8, len(res.Spins))
	copy(spins, res.Spins)
	return SubResult{
		Spins:      spins,
		Energy:     res.Energy,
		Iterations: res.Iterations,
		Quantized:  res.Quantized,
		BitPacked:  res.BitPacked,
	}, nil
}

// defaultedParams fills the sb defaults into zero fields without
// clobbering anything the caller set (mirrors sb.DefaultParamsFor,
// including the aSB-stable time step).
func defaultedParams(p sb.Params) sb.Params {
	if p.Steps <= 0 {
		p.Steps = 1000
	}
	if p.Dt <= 0 {
		p.Dt = 1.0
		if p.Variant == sb.Adiabatic {
			p.Dt = 0.5
		}
	}
	if p.A0 <= 0 {
		p.A0 = 1
	}
	if p.InitAmplitude <= 0 {
		p.InitAmplitude = 0.1
	}
	return p
}

// dispatch runs disp.Solve behind a recover boundary: a panicking
// Dispatcher implementation becomes a failed sub-solve for that one
// shard, never a crashed exchange round.
func dispatch(ctx context.Context, disp Dispatcher, sub SubProblem) (res SubResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("shard %d dispatcher panicked: %v", sub.Index, rec)
		}
	}()
	return disp.Solve(ctx, sub)
}

// dispatchBatch runs disp.SolveBatch behind the same recover boundary:
// a panicking implementation fails every sub-solve of the round, never
// the round itself. A malformed return (slice lengths off) is repaired
// to all-errors rather than trusted.
func dispatchBatch(ctx context.Context, disp BatchDispatcher, subs []SubProblem) (res []SubResult, errs []error) {
	defer func() {
		if rec := recover(); rec != nil {
			res = make([]SubResult, len(subs))
			errs = make([]error, len(subs))
			for i := range errs {
				errs[i] = fmt.Errorf("batch dispatcher panicked: %v", rec)
			}
		}
	}()
	res, errs = disp.SolveBatch(ctx, subs)
	if len(res) != len(subs) || len(errs) != len(subs) {
		err := fmt.Errorf("batch dispatcher returned %d results / %d errors for %d subproblems",
			len(res), len(errs), len(subs))
		res = make([]SubResult, len(subs))
		errs = make([]error, len(subs))
		for i := range errs {
			errs[i] = err
		}
	}
	return res, errs
}
