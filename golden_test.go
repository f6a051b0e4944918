package isinglut_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"isinglut"
)

// Golden fixed-seed solves. The solver picks its field kernel from the
// input: the coupler representation (dense or CSR, by density), the
// bit-planes (whenever Quantize is on and they pay off) and the fused
// replica engine (whenever a batch has no per-replica hooks). None of
// those choices may change an answer, so every case below pins the
// spins and energy that the same solve produced when each kernel was
// selected by hand with the float, scalar-quantized or goroutine
// reference. A change to any kernel that moves a trajectory fails here.

// gaussianDense is a fully connected n-spin glass with Gaussian
// couplings and biases, stored densely.
func gaussianDense(n int, seed int64) *isinglut.IsingProblem {
	rng := rand.New(rand.NewSource(seed))
	p := isinglut.NewIsingProblem(n)
	for i := 0; i < n; i++ {
		p.SetBias(i, 0.2*rng.NormFloat64())
		for j := i + 1; j < n; j++ {
			p.SetCoupling(i, j, rng.NormFloat64())
		}
	}
	return p
}

// randomSparse is an n-spin ±1 glass in which each pair is coupled with
// probability density, stored densely or (sparseBacked) in CSR form.
func randomSparse(t *testing.T, n int, density float64, seed int64, sparseBacked bool) *isinglut.IsingProblem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var cs []isinglut.IsingCoupling
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				v := 1.0
				if rng.Intn(2) == 0 {
					v = -1
				}
				cs = append(cs, isinglut.IsingCoupling{I: i, J: j, V: v})
			}
		}
	}
	if sparseBacked {
		p, err := isinglut.NewSparseIsingProblem(n, cs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := isinglut.NewIsingProblem(n)
	for _, c := range cs {
		p.SetCoupling(c.I, c.J, c.V)
	}
	return p
}

// cubicGlass is a ±1 glass on a ring through all n spins plus a random
// perfect matching, stored in CSR form: the oversized sparse shape the
// sharded solver is built for.
func cubicGlass(t *testing.T, n int, seed int64) *isinglut.IsingProblem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sign := func() float64 {
		if rng.Intn(2) == 0 {
			return -1
		}
		return 1
	}
	var cs []isinglut.IsingCoupling
	for i := 0; i < n; i++ {
		cs = append(cs, isinglut.IsingCoupling{I: i, J: (i + 1) % n, V: sign()})
	}
	perm := rng.Perm(n)
	for k := 0; k+1 < n; k += 2 {
		i, j := min(perm[k], perm[k+1]), max(perm[k], perm[k+1])
		if j-i == 1 || (i == 0 && j == n-1) {
			continue
		}
		cs = append(cs, isinglut.IsingCoupling{I: i, J: j, V: sign()})
	}
	p, err := isinglut.NewSparseIsingProblem(n, cs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// spinsDigest is the first 16 hex digits of the SHA-256 of the spins.
func spinsDigest(spins []int8) string {
	b := make([]byte, len(spins))
	for i, s := range spins {
		b[i] = byte(s)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func TestGoldenSolves(t *testing.T) {
	dsb := isinglut.DiscreteSB
	cases := []struct {
		name   string
		prob   func(t *testing.T) *isinglut.IsingProblem
		opts   isinglut.SBOptions
		spins  string
		energy float64
	}{
		{
			name:  "dense direct bSB",
			prob:  func(*testing.T) *isinglut.IsingProblem { return gaussianDense(48, 1) },
			opts:  isinglut.SBOptions{Steps: 600, Seed: 11},
			spins: "9788e0faf9d11997", energy: -215.25486172822204,
		},
		{
			name:  "8% density direct bSB with dynamic stop",
			prob:  func(t *testing.T) *isinglut.IsingProblem { return randomSparse(t, 96, 0.08, 2, false) },
			opts:  isinglut.SBOptions{Steps: 500, Seed: 5, DynamicStop: true},
			spins: "7f27cc3fa123a502", energy: -189,
		},
		{
			name:  "8% density dSB batch",
			prob:  func(t *testing.T) *isinglut.IsingProblem { return randomSparse(t, 96, 0.08, 2, false) },
			opts:  isinglut.SBOptions{Variant: dsb, Steps: 300, Seed: 7, Replicas: 3},
			spins: "14972e78507ab820", energy: -189,
		},
		{
			name:  "CSR-backed 50% density direct bSB",
			prob:  func(t *testing.T) *isinglut.IsingProblem { return randomSparse(t, 40, 0.5, 3, true) },
			opts:  isinglut.SBOptions{Steps: 400, Seed: 3},
			spins: "a9fea4e50b09fe48", energy: -130,
		},
		{
			name:  "multi-replica bSB batch",
			prob:  func(*testing.T) *isinglut.IsingProblem { return gaussianDense(64, 4) },
			opts:  isinglut.SBOptions{Steps: 400, Seed: 21, Replicas: 6, Workers: 2},
			spins: "5adcacacdde6ce51", energy: -385.00532162966107,
		},
		{
			name:  "dense dSB quant direct",
			prob:  func(*testing.T) *isinglut.IsingProblem { return gaussianDense(128, 5) },
			opts:  isinglut.SBOptions{Variant: dsb, Steps: 400, Seed: 9, Quantize: true},
			spins: "bc98aeb02f25b440", energy: -1115.035347735422,
		},
		{
			name:  "dense dSB quant batch",
			prob:  func(*testing.T) *isinglut.IsingProblem { return gaussianDense(128, 5) },
			opts:  isinglut.SBOptions{Variant: dsb, Steps: 400, Seed: 9, Quantize: true, Replicas: 4},
			spins: "bc98aeb02f25b440", energy: -1115.035347735422,
		},
		{
			name:  "20% density dSB quant batch",
			prob:  func(t *testing.T) *isinglut.IsingProblem { return randomSparse(t, 256, 0.2, 6, false) },
			opts:  isinglut.SBOptions{Variant: dsb, Steps: 300, Seed: 13, Quantize: true, Replicas: 2},
			spins: "a2a5933339193d2f", energy: -1347,
		},
		{
			name:  "dense sharded dSB quant",
			prob:  func(*testing.T) *isinglut.IsingProblem { return gaussianDense(96, 7) },
			opts:  isinglut.SBOptions{Variant: dsb, Steps: 200, Seed: 17, Quantize: true, Replicas: 2, MaxShard: 32, ShardRounds: 3},
			spins: "6fc115b1222db3a1", energy: -554.7204934166177,
		},
		{
			name:  "n=2048 sharded bSB",
			prob:  func(t *testing.T) *isinglut.IsingProblem { return cubicGlass(t, 2048, 1) },
			opts:  isinglut.SBOptions{Steps: 200, Seed: 1, Replicas: 2, MaxShard: 256, ShardRounds: 3},
			spins: "4e07d2119bba5899", energy: -2041,
		},
	}
	for _, tc := range cases {
		res, err := isinglut.SolveIsing(tc.prob(t), tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := spinsDigest(res.Spins); got != tc.spins || res.Energy != tc.energy {
			t.Errorf("%s: spins %s energy %v, want spins %s energy %v", tc.name, got, res.Energy, tc.spins, tc.energy)
		}
	}
}
