package sb

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"isinglut/internal/fault"
	"isinglut/internal/ising"
)

// benchBatchParams is the shared configuration for the engine benches:
// a fixed step budget with no dynamic stop, so both engines execute
// exactly the same Euler steps and the comparison isolates the field
// kernel restructuring.
func benchBatchParams(replicas int) BatchParams {
	base := DefaultParams()
	base.Steps = 100
	base.Seed = 7
	return BatchParams{Base: base, Replicas: replicas}
}

func benchEngineGrid(b *testing.B, run func(b *testing.B, n, r int)) {
	for _, n := range []int{64, 256, 1024} {
		for _, r := range []int{4, 32, 64} {
			b.Run(fmt.Sprintf("n=%d/r=%d", n, r), func(b *testing.B) {
				run(b, n, r)
			})
		}
	}
}

// BenchmarkSolveBatch measures the per-replica goroutine engine (the
// one SolveBatch uses for hooked batches): each replica streams the
// coupling matrix independently.
func BenchmarkSolveBatch(b *testing.B) {
	benchEngineGrid(b, func(b *testing.B, n, r int) {
		p := randomProblem(n, int64(n))
		bp := benchBatchParams(r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solveReplicas(context.Background(), p, bp)
		}
	})
}

// BenchmarkSolveFused measures the fused lock-step engine on the same
// problems: one coupling stream per step for all replicas. The ≥2x
// acceptance gate at n=256, r=32 compares this against BenchmarkSolveBatch.
func BenchmarkSolveFused(b *testing.B) {
	benchEngineGrid(b, func(b *testing.B, n, r int) {
		p := randomProblem(n, int64(n))
		bp := benchBatchParams(r)
		fw := NewFusedWorkspace(n, r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			SolveFusedWith(context.Background(), p, bp, fw)
		}
	})
}

// randomSparseProblem builds a density-0.05 spin-glass instance, the
// regime the CSR and quantized fast paths target, with the coupler picked
// by useCSR.
func randomSparseProblem(n int, seed int64, useCSR bool) *ising.Problem {
	rng := rand.New(rand.NewSource(seed))
	d := ising.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.05 {
				d.Set(i, j, rng.NormFloat64())
			}
		}
	}
	var c ising.Coupler = d
	if useCSR {
		c = ising.NewSparseFromDense(d)
	}
	p, err := ising.NewProblem(c, nil, 0)
	if err != nil {
		panic(err)
	}
	return p
}

// benchFusedDSB runs the fused engine over the grid on a prebuilt problem
// family; all the end-to-end dSB benches share it so the comparisons
// isolate the coupler/quantization choice. bitpack runs the quantized
// solve with the bit-planes the policy picks; quantize alone refuses
// them (the ising.bitpack.pack failpoint), pinning the scalar kernels.
func benchFusedDSB(b *testing.B, prob func(n int) *ising.Problem, quantize, bitpack bool) {
	if quantize && !bitpack {
		fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
		defer fault.Disarm("ising.bitpack.pack")
	}
	benchEngineGrid(b, func(b *testing.B, n, r int) {
		p := prob(n)
		bp := benchBatchParams(r)
		bp.Base.Variant = Discrete
		bp.Base.Quantize = quantize || bitpack
		fw := NewFusedWorkspace(n, r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			SolveFusedWith(context.Background(), p, bp, fw)
		}
	})
}

// BenchmarkSolveFusedDSB is the float dSB trajectory baseline on a dense
// spin glass.
func BenchmarkSolveFusedDSB(b *testing.B) {
	benchFusedDSB(b, func(n int) *ising.Problem { return randomProblem(n, int64(n)) }, false, false)
}

// BenchmarkSolveFusedDSBQuant is the same trajectory through the int8
// fixed-point field kernels (energies still evaluated against exact J).
func BenchmarkSolveFusedDSBQuant(b *testing.B) {
	benchFusedDSB(b, func(n int) *ising.Problem { return randomProblem(n, int64(n)) }, true, false)
}

// BenchmarkSolveFusedDSBBitpack is the same trajectory again through the
// bit-packed popcount kernels: sign/magnitude bit-planes against
// replica-bit-sliced spin masks, bit-identical to the quantized run.
func BenchmarkSolveFusedDSBBitpack(b *testing.B) {
	benchFusedDSB(b, func(n int) *ising.Problem { return randomProblem(n, int64(n)) }, false, true)
}

// BenchmarkSolveFusedDSBSparseDense runs a density-0.05 instance through
// the dense coupler — the end-to-end baseline for the sparse speedup gate.
func BenchmarkSolveFusedDSBSparseDense(b *testing.B) {
	benchFusedDSB(b, func(n int) *ising.Problem { return randomSparseProblem(n, int64(n), false) }, false, false)
}

// BenchmarkSolveFusedDSBSparseCSR is the same instance through the CSR
// coupler: bit-identical trajectory, nnz-bound field kernels.
func BenchmarkSolveFusedDSBSparseCSR(b *testing.B) {
	benchFusedDSB(b, func(n int) *ising.Problem { return randomSparseProblem(n, int64(n), true) }, false, false)
}

// BenchmarkSolveFusedDSBSparseQuant stacks both fast paths: quantized CSR
// codes on the sparse instance.
func BenchmarkSolveFusedDSBSparseQuant(b *testing.B) {
	benchFusedDSB(b, func(n int) *ising.Problem { return randomSparseProblem(n, int64(n), true) }, true, false)
}
