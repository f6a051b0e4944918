package main

import (
	"os"
	"path/filepath"
	"testing"

	"isinglut"
)

func TestLoadProblemJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	data := `{
		"n": 3,
		"couplings": [
			{"i": 0, "j": 1, "value": -1.0},
			{"i": 1, "j": 2, "value": 0.5}
		],
		"biases": [0.25, 0, -0.25]
	}`
	if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
		t.Fatal(err)
	}
	p, err := loadProblem(path, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 3 {
		t.Fatalf("N = %d", p.N())
	}
	// E(+,+,+) = -(0.25 + 0 - 0.25) - ((-1) + 0.5) = 0.5
	if got := p.Energy([]int8{1, 1, 1}); got != 0.5 {
		t.Fatalf("Energy = %g, want 0.5", got)
	}
}

func TestLoadProblemErrors(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"badjson":  `{`,
		"zeron":    `{"n": 0}`,
		"badedge":  `{"n": 2, "couplings": [{"i": 0, "j": 2, "value": 1}]}`,
		"selfedge": `{"n": 2, "couplings": [{"i": 1, "j": 1, "value": 1}]}`,
		"badbias":  `{"n": 2, "biases": [1]}`,
	}
	for name, data := range cases {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := loadProblem(path, "", 0, 0); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := loadProblem("", "", 0, 0); err == nil {
		t.Error("missing input accepted")
	}
	if _, err := loadProblem("/nonexistent/file.json", "", 0, 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDemoProblems(t *testing.T) {
	ring, err := demoProblem("ring", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ring.N() != 7 {
		t.Fatalf("ring N = %d", ring.N())
	}
	glass, err := demoProblem("spinglass", 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if glass.N() != 6 {
		t.Fatalf("spinglass N = %d", glass.N())
	}
	if _, err := demoProblem("nope", 5, 0); err == nil {
		t.Error("unknown demo accepted")
	}
	if _, err := demoProblem("ring", 1, 0); err == nil {
		t.Error("tiny demo accepted")
	}
}

func TestDemoDeterministic(t *testing.T) {
	a, _ := demoProblem("spinglass", 5, 7)
	b, _ := demoProblem("spinglass", 5, 7)
	spins := []int8{1, -1, 1, -1, 1}
	if a.Energy(spins) != b.Energy(spins) {
		t.Fatal("same seed produced different demo problems")
	}
}

// TestSparseQuantFlagOptions exercises the SBOptions -quant produces on
// a sparse demo ring (which the density policy solves through the CSR
// coupler): the quantized dSB kernels run, the scattered couplings stay
// on the scalar integer kernels, and -quant with a non-dsb solver is an
// error.
func TestSparseQuantFlagOptions(t *testing.T) {
	prob, err := demoProblem("ring", 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := isinglut.SolveIsing(prob, isinglut.SBOptions{
		Variant:  isinglut.DiscreteSB,
		Steps:    300,
		Seed:     3,
		Quantize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quantized {
		t.Fatal("-quant -solver dsb did not take the quantized fast path")
	}
	if res.BitPacked {
		t.Fatal("a 32-spin ring passed the bit-packing rule; its rows hold two couplings each")
	}
	if len(res.Spins) != 32 {
		t.Fatalf("got %d spins, want 32", len(res.Spins))
	}
	// -quant with the default bsb solver must be rejected, not ignored.
	if _, err := isinglut.SolveIsing(prob, isinglut.SBOptions{Quantize: true}); err == nil {
		t.Fatal("-quant without -solver dsb accepted")
	}
}

// TestBitpackFlagOptions: on a dense demo instance -quant alone reaches
// the bit-packed popcount kernels; no separate flag selects them.
func TestBitpackFlagOptions(t *testing.T) {
	prob, err := demoProblem("spinglass", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := isinglut.SolveIsing(prob, isinglut.SBOptions{
		Variant:  isinglut.DiscreteSB,
		Steps:    300,
		Seed:     3,
		Quantize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !packed.BitPacked || !packed.Quantized {
		t.Fatalf("-quant -solver dsb did not take the packed path: %+v",
			[]bool{packed.Quantized, packed.BitPacked})
	}
}
