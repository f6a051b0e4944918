package sb

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"isinglut/internal/fault"
	"isinglut/internal/ising"
)

// scalarQuant runs f with ising.NewPlanes refusing every coupling, so
// the quantized solves inside it run on the scalar integer kernels: the
// reference the bit-packed kernels must reproduce bit for bit.
func scalarQuant(f func()) {
	fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
	defer fault.Disarm("ising.bitpack.pack")
	f()
}

// clusteredSparseProblem builds a ~20%-dense instance whose quantized
// form lands in the CSR layout (below DefaultSparseDensity) yet still
// passes the bit-pack density × width heuristic — the regime exercising
// the CSR-backed plane blocks through a real solve.
func clusteredSparseProblem(n int, seed int64) *ising.Problem {
	rng := rand.New(rand.NewSource(seed))
	d := ising.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.2 {
				d.Set(i, j, rng.NormFloat64())
			}
		}
	}
	p, err := ising.NewProblem(ising.NewSparseFromDense(d), nil, 0)
	if err != nil {
		panic(err)
	}
	return p
}

// TestBitPackExactRepresentableMatchesFloat closes the full identity
// chain on a losslessly-quantizable coupling: float solve == quantized
// solve == bit-packed solve, bitwise, including the trajectory shape.
func TestBitPackExactRepresentableMatchesFloat(t *testing.T) {
	p := exactQuantProblem(20, 5)
	params := divergenceParams(Discrete)
	exact := Solve(p, params)
	params.Quantize = true
	packed := Solve(p, params)
	if !packed.Quantized || !packed.BitPacked {
		t.Fatalf("bit-packed fast path not taken: %+v", []bool{packed.Quantized, packed.BitPacked})
	}
	if exact.BitPacked {
		t.Fatal("float solve reports BitPacked")
	}
	assertSameTrajectory(t, exact, packed, "exact-representable bit-packed dSB")
}

// TestBitPackMatchesQuantTrajectory pins the core contract on a generic
// (lossy) quantization: the bit-packed solve is bit-identical to the
// scalar quantized solve — same integer fields, same trajectory, same
// spins — with only the BitPacked flag distinguishing the results. This
// is what lets every quantized solve pack without asking.
func TestBitPackMatchesQuantTrajectory(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *ising.Problem
	}{
		{"dense", randomProblem(64, 7)},
		{"csr", clusteredSparseProblem(96, 11)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var quant Result
			scalarQuant(func() { quant = Solve(tc.p, quantParams()) })
			packed := Solve(tc.p, quantParams())
			if !quant.Quantized || quant.BitPacked {
				t.Fatalf("quant solve flags wrong: %+v", []bool{quant.Quantized, quant.BitPacked})
			}
			if !packed.Quantized || !packed.BitPacked {
				t.Fatalf("bit-packed fast path not taken: %+v", []bool{packed.Quantized, packed.BitPacked})
			}
			assertSameTrajectory(t, quant, packed, tc.name)
		})
	}
}

// TestBitPackFusedMatchesFuseOff pins the engine bit-identity contract on
// the bit-packed path for both plane layouts: the per-replica goroutine
// engine (each worker packing independently) and the fused lock-step
// engine (one replica-bit-sliced sweep per step) must agree bitwise on
// every replica. The goroutine engine is the reference SolveBatch falls
// back to for hooked batches.
func TestBitPackFusedMatchesFuseOff(t *testing.T) {
	const replicas = 4
	for _, tc := range []struct {
		name string
		p    *ising.Problem
	}{
		{"dense", randomProblem(64, 7)},
		{"csr", clusteredSparseProblem(96, 13)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := quantParams()
			resOff, statsOff := solveReplicas(context.Background(), tc.p, BatchParams{
				Base: base, Replicas: replicas,
			})
			resOn, statsOn := SolveFused(context.Background(), tc.p, BatchParams{
				Base: base, Replicas: replicas,
			})
			if !resOff.BitPacked || !resOn.BitPacked {
				t.Fatalf("fast path not taken: goroutine=%v fused=%v", resOff.BitPacked, resOn.BitPacked)
			}
			assertBatchesIdentical(t, resOff, resOn, statsOff, statsOn)
		})
	}
}

// TestBitPackHeuristicFallback: when the density × width dispatch rejects
// packing (a scattered 5%-dense instance), the solve stays on the scalar
// quantized kernels bit-identically, reporting Quantized without
// BitPacked.
func TestBitPackHeuristicFallback(t *testing.T) {
	p := randomSparseProblem(64, 11, true)
	var quant Result
	scalarQuant(func() { quant = Solve(p, quantParams()) })
	packed := Solve(p, quantParams())
	if !quant.Quantized {
		t.Fatal("quantized fast path not taken")
	}
	if !packed.Quantized || packed.BitPacked {
		t.Fatalf("heuristic rejection must fall back to scalar quant: %+v",
			[]bool{packed.Quantized, packed.BitPacked})
	}
	assertSameTrajectory(t, quant, packed, "heuristic fallback")
}

// TestBitPackPackFailpointFallback: with ising.bitpack.pack poisoning the
// packer, both engines must degrade to the scalar quantized path and
// still reproduce the packed batch bit for bit — the chaos contract
// behind the fallback claim.
func TestBitPackPackFailpointFallback(t *testing.T) {
	const replicas = 3
	p := randomProblem(64, 9)
	base := quantParams()
	packedOff, packedStats := solveReplicas(context.Background(), p, BatchParams{
		Base: base, Replicas: replicas,
	})
	if !packedOff.BitPacked {
		t.Fatal("dense 64-spin instance rejected by the packing dispatch")
	}

	defer fault.DisarmAll()
	fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
	fbOff, fbOffStats := solveReplicas(context.Background(), p, BatchParams{
		Base: base, Replicas: replicas,
	})
	fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
	fbOn, fbOnStats := SolveFused(context.Background(), p, BatchParams{
		Base: base, Replicas: replicas,
	})
	fault.DisarmAll()

	if fbOff.BitPacked || fbOn.BitPacked {
		t.Fatal("BitPacked reported after a forced packing failure")
	}
	if !fbOff.Quantized || !fbOn.Quantized {
		t.Fatal("poisoned packer must leave the scalar quantized path intact")
	}
	assertSameTrajectory(t, packedOff, fbOff, "goroutine-engine fallback")
	assertBatchesIdentical(t, fbOff, fbOn, fbOffStats, fbOnStats)
	assertBatchesIdentical(t, packedOff, fbOn, packedStats, fbOnStats)
}

// TestBitPackAccumPoisonDiverges: an always-firing popcount-accumulate
// fault poisons the packed field, and the standard divergence guard must
// catch it at the sample cadence rather than let NaN spins escape.
func TestBitPackAccumPoisonDiverges(t *testing.T) {
	p := randomProblem(64, 17)
	params := quantParams()

	defer fault.DisarmAll()
	fault.MustArm("ising.bitpack.accum", fault.Scenario{After: 3, Times: -1})
	res := Solve(p, params)
	if !res.BitPacked {
		t.Fatal("fast path not taken")
	}
	if !res.Diverged || !math.IsInf(res.Energy, 1) {
		t.Fatalf("poisoned bit-packed run not quarantined: diverged=%v energy=%g", res.Diverged, res.Energy)
	}
	for _, s := range res.Spins {
		if s != 1 && s != -1 {
			t.Fatalf("invalid spin %d in quarantined result", s)
		}
	}
}

// TestBitPackIgnoredOutsideDiscrete: the bit-planes are built only for
// quantized dSB. Quantize on a ballistic solve of a pack-eligible
// instance is a silent no-op — bit-identical to the plain run, no
// fast-path flags — and an unquantized dSB solve never packs either.
func TestBitPackIgnoredOutsideDiscrete(t *testing.T) {
	p := randomProblem(64, 3)
	params := divergenceParams(Ballistic)
	plain := Solve(p, params)
	params.Quantize = true
	packed := Solve(p, params)
	if packed.Quantized || packed.BitPacked {
		t.Fatalf("fast-path flags on a ballistic solve: %+v", []bool{packed.Quantized, packed.BitPacked})
	}
	assertSameTrajectory(t, plain, packed, "bSB with Quantize set")
	if float := Solve(p, divergenceParams(Discrete)); float.BitPacked {
		t.Fatal("unquantized dSB solve reports BitPacked")
	}
}
