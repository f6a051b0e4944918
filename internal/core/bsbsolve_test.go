package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"isinglut/internal/sb"
)

func TestSolveBSBSelfConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		cop, _ := randomSeparateCOP(rng)
		sol := SolveBSB(context.Background(), cop, DefaultSolverOptions())
		if err := sol.Setting.Validate(); err != nil {
			t.Fatal(err)
		}
		if math.Abs(cop.SettingCost(sol.Setting)-sol.Cost) > 1e-12 {
			t.Fatalf("trial %d: reported cost inconsistent", trial)
		}
	}
}

func TestSolveBSBFindsOptimumTiny(t *testing.T) {
	// On tiny instances bSB with the Theorem-3 heuristic should reach the
	// brute-force optimum with a handful of restarts.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		cop, _ := randomTinyCOP(rng)
		_, want := BruteForce(cop)
		best := math.Inf(1)
		for seed := int64(0); seed < 5; seed++ {
			opts := DefaultSolverOptions()
			opts.SB.Seed = seed
			if c := SolveBSB(context.Background(), cop, opts).Cost; c < best {
				best = c
			}
		}
		if best > want+1e-9 {
			t.Fatalf("trial %d: bSB best %g, optimum %g", trial, best, want)
		}
	}
}

func TestTheorem3HeuristicNeverHurtsFinalT(t *testing.T) {
	// With the heuristic on, the final setting's T must be conditionally
	// optimal for its V1/V2 (the hook runs at the final sample too).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		cop, _ := randomSeparateCOP(rng)
		sol := SolveBSB(context.Background(), cop, DefaultSolverOptions())
		probe := sol.Setting.Clone()
		if c := cop.OptimalT(probe.V1, probe.V2, probe.T); c < sol.Cost-1e-9 {
			t.Fatalf("trial %d: final T not conditionally optimal (%g < %g)", trial, c, sol.Cost)
		}
	}
}

func TestSolveBSBDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cop, _ := randomSeparateCOP(rng)
	opts := DefaultSolverOptions()
	opts.SB.Seed = 11
	a := SolveBSB(context.Background(), cop, opts)
	b := SolveBSB(context.Background(), cop, opts)
	if a.Cost != b.Cost {
		t.Fatal("same seed produced different costs")
	}
	if !a.Setting.V1.Equal(b.Setting.V1) || !a.Setting.T.Equal(b.Setting.T) {
		t.Fatal("same seed produced different settings")
	}
}

func TestSolveBSBReservedHookPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cop, _ := randomSeparateCOP(rng)
	opts := DefaultSolverOptions()
	opts.SB.OnSample = func(int, []float64, []float64) {}
	defer func() {
		if recover() == nil {
			t.Fatal("reserved OnSample did not panic")
		}
	}()
	SolveBSB(context.Background(), cop, opts)
}

func TestDynamicStopReducesIterations(t *testing.T) {
	// With the stop criterion the solver should terminate well before the
	// cap on an easy instance.
	rng := rand.New(rand.NewSource(6))
	cop, _ := randomSeparateCOP(rng)
	opts := DefaultSolverOptions()
	opts.SB.Steps = 100000
	sol := SolveBSB(context.Background(), cop, opts)
	if !sol.SB.StoppedEarly {
		t.Skip("stop did not fire on this instance")
	}
	if sol.SB.Iterations >= opts.SB.Steps {
		t.Fatal("stopped early but ran to the cap")
	}
}

func TestTheorem3AblationQuality(t *testing.T) {
	// Averaged over instances, the heuristic must not make results worse;
	// the paper introduces it as a quality improvement.
	rng := rand.New(rand.NewSource(7))
	withT3, without := 0.0, 0.0
	for trial := 0; trial < 30; trial++ {
		cop, _ := randomSeparateCOP(rng)
		on := DefaultSolverOptions()
		on.SB.Seed = int64(trial)
		off := on
		off.Theorem3 = false
		withT3 += SolveBSB(context.Background(), cop, on).Cost
		without += SolveBSB(context.Background(), cop, off).Cost
	}
	if withT3 > without+1e-9 {
		t.Fatalf("Theorem-3 heuristic hurt on average: %g vs %g", withT3, without)
	}
}

func TestSolveBSBWithoutStopUsesAllSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cop, _ := randomSeparateCOP(rng)
	params := sb.DefaultParams()
	params.Steps = 137
	sol := SolveBSB(context.Background(), cop, SolverOptions{SB: params, Theorem3: false})
	if sol.SB.Iterations != 137 {
		t.Fatalf("iterations %d, want 137", sol.SB.Iterations)
	}
}

func TestSolveBSBBatchQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		cop, _ := randomSeparateCOP(rng)
		opts := DefaultSolverOptions()
		opts.SB.Seed = 100
		single := SolveBSB(context.Background(), cop, opts)
		batch := SolveBSBBatch(context.Background(), cop, opts, 4, 4)
		if batch.Cost > single.Cost+1e-12 {
			t.Fatalf("trial %d: batch %g worse than first replica %g", trial, batch.Cost, single.Cost)
		}
		if err := batch.Setting.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolveBSBBatchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cop, _ := randomSeparateCOP(rng)
	opts := DefaultSolverOptions()
	a := SolveBSBBatch(context.Background(), cop, opts, 5, 3)
	b := SolveBSBBatch(context.Background(), cop, opts, 5, 3)
	if a.Cost != b.Cost {
		t.Fatal("batch solver not deterministic")
	}
}

// TestSolveBSBBatchFusedMatchesUnfused: without the Theorem-3 hook the
// core batch fuses; its result must be bit-identical to independent
// single-trajectory solves of the same bipartite formulation, one per
// replica seed, with the winner picked by lowest energy (ties to the
// lowest replica).
func TestSolveBSBBatchFusedMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cop, _ := randomSeparateCOP(rng)
	opts := DefaultSolverOptions()
	opts.Theorem3 = false // hook-free, so the sb layer auto-fuses
	opts.SB.Seed = 17

	auto := SolveBSBBatch(context.Background(), cop, opts, 5, 2)

	f := Formulate(cop)
	best := -1
	var unfused sb.Result
	for r := 0; r < 5; r++ {
		params := opts.SB
		params.Seed = opts.SB.Seed + int64(r)
		res := sb.Solve(f.Problem, params)
		if auto.Batch.Energies[r] != res.Energy || auto.Batch.Iterations[r] != res.Iterations {
			t.Fatalf("replica %d: batch E=%g after %d iterations, single solve E=%g after %d",
				r, auto.Batch.Energies[r], auto.Batch.Iterations[r], res.Energy, res.Iterations)
		}
		if best < 0 || res.Energy < unfused.Energy {
			best, unfused = r, res
		}
	}
	if auto.SB.Energy != unfused.Energy || auto.Batch.BestReplica != best {
		t.Fatalf("fused (E=%g, best=%d) != single solves (E=%g, best=%d)",
			auto.SB.Energy, auto.Batch.BestReplica, unfused.Energy, best)
	}
	if auto.Cost != cop.SettingCost(f.DecodeSpins(unfused.Spins)) {
		t.Fatalf("fused core batch cost %g != single-solve cost", auto.Cost)
	}
}
