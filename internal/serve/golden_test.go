package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"isinglut/internal/metrics"
)

// cubicGlassCouplings is a ±1 glass on a ring through all n spins plus
// a random perfect matching (pairs that repeat a ring edge are dropped).
func cubicGlassCouplings(n int, seed int64) []Coupling {
	rng := rand.New(rand.NewSource(seed))
	sign := func() float64 {
		if rng.Intn(2) == 0 {
			return -1
		}
		return 1
	}
	cs := make([]Coupling, 0, n*3/2)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		cs = append(cs, Coupling{I: min(i, j), J: max(i, j), V: sign()})
	}
	perm := rng.Perm(n)
	for k := 0; k+1 < n; k += 2 {
		i, j := min(perm[k], perm[k+1]), max(perm[k], perm[k+1])
		if j-i == 1 || (i == 0 && j == n-1) {
			continue
		}
		cs = append(cs, Coupling{I: i, J: j, V: sign()})
	}
	return cs
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

// TestSolveKeyPinned pins the cache key bytes: reordered, mirrored and
// split couplings must keep hashing to the slot they always hashed to,
// so a change to how the key is computed never strands cached entries
// or, worse, lets two different problems collide.
func TestSolveKeyPinned(t *testing.T) {
	small := SolveRequest{
		N: 5,
		Couplings: []Coupling{
			{I: 3, J: 1, V: 0.5}, {I: 0, J: 4, V: -1}, {I: 1, J: 3, V: 0.25},
			{I: 2, J: 0, V: 2}, {I: 0, J: 2, V: -2}, {I: 1, J: 2, V: 1.5},
		},
		Biases:  []float64{0.1, 0, -0.3, 0, 0.7},
		Variant: "dsb", Steps: 250, Seed: 9, Replicas: 3,
		DynamicStop: true, F: 10, S: 12, Epsilon: 1e-6,
	}
	large := SolveRequest{
		N: 2048, Couplings: cubicGlassCouplings(2048, 1),
		Steps: 300, Seed: 4, Replicas: 2, Shard: 256, ShardRounds: 6,
	}
	for _, tc := range []struct {
		name string
		req  SolveRequest
		want string
	}{
		{"small", small, "s:49d510b0fe6cd6ad4a521c7ac54cf3d5b9c5c55f281a893b552c9e00359fc29f"},
		{"n=2048", large, "s:3dec3fb52f50468dc6c92889bf3e86883a8c4806169719f833560b400b51598b"},
	} {
		if got := tc.req.solveKey(); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSolveDuplicateCouplingsSummed: duplicate and mirrored couplings
// accumulate, both in the cache key and in the problem that is solved.
// The two bodies below share a key, so they must describe the same
// problem (J01 = 3, J12 = -1), whose ground energy is -4; a problem
// built with last-write-wins would hold J01 = 2 and answer -3.
func TestSolveDuplicateCouplingsSummed(t *testing.T) {
	_, ts := testServer(t, Config{})
	whole := SolveRequest{
		N: 3, Couplings: []Coupling{{I: 0, J: 1, V: 3}, {I: 1, J: 2, V: -1}},
		Steps: 300, Seed: 2,
	}
	split := whole
	split.Couplings = []Coupling{{I: 0, J: 1, V: 1}, {I: 1, J: 0, V: 2}, {I: 1, J: 2, V: -1}}
	if whole.solveKey() != split.solveKey() {
		t.Fatal("split couplings hash to a different slot than their sum")
	}
	got := solveOK(t, ts.URL, split)
	if got.Cached {
		t.Fatal("cold solve served from cache")
	}
	s := got.Spins
	if e := -(3*float64(s[0]*s[1]) - float64(s[1]*s[2])); got.Energy != e {
		t.Fatalf("reported energy %v, but the summed couplings give %v for spins %v", got.Energy, e, s)
	}
	if got.Energy != -4 {
		t.Fatalf("energy %v, want the ground energy -4", got.Energy)
	}
	rode := solveOK(t, ts.URL, whole)
	if !rode.Cached || rode.Energy != got.Energy {
		t.Fatalf("summed twin: cached=%v energy %v, want a cache hit with %v", rode.Cached, rode.Energy, got.Energy)
	}
}

// TestShardN2048Golden pins an n=2048 sharded solve, both through a
// coordinator with two peers and on a single node, to the spins and
// energy captured when each daemon built the request densely and every
// sub-solve was routed to CSR by an explicit request flag.
func TestShardN2048Golden(t *testing.T) {
	_, peerA := testServer(t, Config{Workers: 2})
	_, peerB := testServer(t, Config{Workers: 2})
	_, single := testServer(t, Config{Workers: 2})
	_, coord := testServer(t, Config{Workers: 2, Peers: []string{peerA.URL, peerB.URL}})
	req := SolveRequest{
		N: 2048, Couplings: cubicGlassCouplings(2048, 1),
		Steps: 200, Seed: 1, Replicas: 2, Shard: 256, ShardRounds: 3,
	}
	const wantSpins, wantEnergy = "4e07d2119bba5899", -2041.0
	dispatched := metrics.Shard().PeerDispatch.Load()
	for _, node := range []struct{ name, url string }{{"coordinator", coord.URL}, {"single-node", single.URL}} {
		name := node.name
		got := solveOK(t, node.url, req)
		if got.Degraded {
			t.Fatalf("%s: degraded response (%s)", name, got.DegradedReason)
		}
		if d := spinsDigest(got.Spins); d != wantSpins || got.Energy != wantEnergy {
			t.Errorf("%s: spins %s energy %v, want spins %s energy %v", name, d, got.Energy, wantSpins, wantEnergy)
		}
	}
	if metrics.Shard().PeerDispatch.Load() == dispatched {
		t.Fatal("coordinator never dispatched a sub-solve to its peers")
	}
}

// TestCoordinatorQuantMatchesSingleNode: a quantized sharded solve gives
// the same answer and the same kernel report whether its sub-solves run
// on peers or in-process. Every shard of this dense instance packs into
// bit-planes, so both paths must report bitpacked.
func TestCoordinatorQuantMatchesSingleNode(t *testing.T) {
	_, peer := testServer(t, Config{Workers: 2})
	_, single := testServer(t, Config{Workers: 2})
	_, coord := testServer(t, Config{Workers: 2, Peers: []string{peer.URL}})
	base := SolveRequest{
		N: 48, Couplings: denseCouplings(48), Variant: "dsb",
		Steps: 150, Seed: 61, Replicas: 2, Shard: 16, ShardRounds: 3,
	}
	quant := base
	quant.Quant = true
	alias := base
	alias.BitPack = true
	for _, tc := range []struct {
		name string
		req  SolveRequest
	}{{"bitpack", alias}, {"quant", quant}} {
		name, req := tc.name, tc.req
		want := solveOK(t, single.URL, req)
		got := solveOK(t, coord.URL, req)
		if !want.Quantized || !want.BitPacked {
			t.Fatalf("%s: single-node quantized=%v bitpacked=%v, want both", name, want.Quantized, want.BitPacked)
		}
		if got.Quantized != want.Quantized || got.BitPacked != want.BitPacked {
			t.Fatalf("%s: coordinator quantized=%v bitpacked=%v, single-node %v/%v",
				name, got.Quantized, got.BitPacked, want.Quantized, want.BitPacked)
		}
		if got.Energy != want.Energy || spinsDigest(got.Spins) != spinsDigest(want.Spins) {
			t.Fatalf("%s: coordinator energy %v, single-node %v (spins %s vs %s)",
				name, got.Energy, want.Energy, spinsDigest(got.Spins), spinsDigest(want.Spins))
		}
	}
}
