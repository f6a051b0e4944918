package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"isinglut/internal/loadtest"
	"isinglut/internal/metrics"
	"isinglut/internal/serve"
)

// shardSpec is the sharded-solve workload: one ±1 spin glass per
// workload seed, solved once per operation with a fresh solver seed.
type shardSpec struct {
	n, peers                       int
	shard, rounds, replicas, steps int
}

// spinGlass draws a ±1 spin glass on a random cubic graph: a ring
// through all n spins plus a random perfect matching, so the instance is
// connected and every spin has three couplings (two where a matching pair
// repeats a ring edge and is dropped).
func spinGlass(n int, rng *rand.Rand) []serve.Coupling {
	sign := func() float64 {
		if rng.Intn(2) == 0 {
			return -1
		}
		return 1
	}
	cs := make([]serve.Coupling, 0, n*3/2)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		cs = append(cs, serve.Coupling{I: min(i, j), J: max(i, j), V: sign()})
	}
	perm := rng.Perm(n)
	for k := 0; k+1 < n; k += 2 {
		i, j := min(perm[k], perm[k+1]), max(perm[k], perm[k+1])
		if j-i == 1 || (i == 0 && j == n-1) {
			continue
		}
		cs = append(cs, serve.Coupling{I: i, J: j, V: sign()})
	}
	return cs
}

// shardRunner drives sharded POST /v1/solve requests, closed loop over
// one connection, at an in-process coordinator fronting peer daemons.
type shardRunner struct {
	spec      shardSpec
	couplings []serve.Coupling
	absJ      float64
	top       *loadtest.Topology
	client    *http.Client
	// shards is the partition count the first response reported; the
	// instance is fixed, so every response must report the same.
	shards int
}

// newShard generates the instance from seed and returns the set-up step:
// booting the daemons and waiting until each passes /readyz.
func newShard(spec shardSpec, seed int64) func() (runner, error) {
	cs := spinGlass(spec.n, rand.New(rand.NewSource(seed)))
	absJ := 0.0
	for _, c := range cs {
		absJ += math.Abs(c.V)
	}
	return func() (runner, error) {
		workers := runtime.NumCPU()
		cfg := serve.Config{Workers: workers}
		top, err := loadtest.StartTopology(loadtest.TopologyOptions{
			Peers: spec.peers, PeerConfig: cfg, CoordinatorConfig: cfg,
		})
		if err != nil {
			return nil, err
		}
		r := &shardRunner{
			spec: spec, couplings: cs, absJ: absJ, top: top,
			client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		}
		urls := []string{top.CoordinatorURL}
		for i := 0; i < top.NumPeers(); i++ {
			urls = append(urls, top.PeerURL(i))
		}
		for _, u := range urls {
			if err := r.waitReady(u); err != nil {
				r.close()
				return nil, err
			}
		}
		return r, nil
	}
}

func (r *shardRunner) waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := r.client.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %v", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// solve sends one request and returns the decoded response and the
// client round trip: from sending the request to reading the whole
// response body.
func (r *shardRunner) solve(seed int64) (serve.SolveResponse, time.Duration, error) {
	var resp serve.SolveResponse
	body, err := json.Marshal(serve.SolveRequest{
		N: r.spec.n, Couplings: r.couplings, Seed: seed,
		Shard: r.spec.shard, ShardRounds: r.spec.rounds,
		Replicas: r.spec.replicas, Steps: r.spec.steps,
	})
	if err != nil {
		return resp, 0, err
	}
	start := time.Now()
	hr, err := r.client.Post(r.top.CoordinatorURL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return resp, time.Since(start), err
	}
	raw, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	rtt := time.Since(start)
	if err != nil {
		return resp, rtt, err
	}
	if hr.StatusCode != http.StatusOK {
		return resp, rtt, fmt.Errorf("status %d: %s", hr.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return resp, rtt, err
	}
	return resp, rtt, r.check(&resp)
}

// check verifies one response against the benchmark's own copy of the
// instance.
func (r *shardRunner) check(resp *serve.SolveResponse) error {
	if resp.Degraded {
		return fmt.Errorf("degraded response: %s", resp.DegradedReason)
	}
	if resp.StopReason == "cancelled" || resp.StopReason == "deadline" {
		return fmt.Errorf("cut short: %s", resp.StopReason)
	}
	if resp.ShardRounds != r.spec.rounds {
		return fmt.Errorf("%d exchange rounds, want %d", resp.ShardRounds, r.spec.rounds)
	}
	if least := (r.spec.n + r.spec.shard - 1) / r.spec.shard; resp.Shards < least {
		return fmt.Errorf("%d shards, want at least %d", resp.Shards, least)
	}
	if r.shards == 0 {
		r.shards = resp.Shards
	}
	if resp.Shards != r.shards {
		return fmt.Errorf("%d shards, earlier responses %d", resp.Shards, r.shards)
	}
	if len(resp.Spins) != r.spec.n {
		return fmt.Errorf("%d spins, want %d", len(resp.Spins), r.spec.n)
	}
	for i, s := range resp.Spins {
		if s != 1 && s != -1 {
			return fmt.Errorf("spin %d is %d", i, s)
		}
	}
	if e := r.energy(resp.Spins); e != resp.Energy {
		return fmt.Errorf("energy %v, recomputed %v", resp.Energy, e)
	}
	return nil
}

// energy evaluates E = -Σ_{i<j} J_ij s_i s_j on the instance.
func (r *shardRunner) energy(spins []int8) float64 {
	e := 0.0
	for _, c := range r.couplings {
		e -= c.V * float64(spins[c.I]) * float64(spins[c.J])
	}
	return e
}

func (r *shardRunner) run(i int, seed int64) outcome {
	resp, rtt, err := r.solve(seed)
	return outcome{latency: rtt, err: err, value: resp.Energy / -r.absJ}
}

// tracedSeed moves a traced request off the timed seed: the coordinator
// caches results, so repeating the untraced request would be a cache hit.
const tracedSeed = 0x5bd1e995

// runTraced sends one request inside a span carrying the deltas of the
// shard, serve and SB metrics it caused.
func (r *shardRunner) runTraced(rec *recorder, i int, seed int64, _ outcome) outcome {
	before := shardCounters()
	id := rec.begin("op", 0, i)
	resp, rtt, err := r.solve(seed ^ tracedSeed)
	d := counterDelta(before, shardCounters())
	d["serve.elapsed_ns"] = int64(resp.ElapsedMS * 1e6)
	rec.end(id, d)
	return outcome{latency: rtt, err: err, value: resp.Energy / -r.absJ}
}

// shardCounters reads the metrics a sharded request moves, from the
// program's snapshots.
func shardCounters() map[string]int64 {
	c := solverCounters()
	s := metrics.ShardSnapshot()
	c["shard.rounds"] = s.Rounds
	c["shard.sub_solves"] = s.SubSolves
	c["shard.accepted"] = s.Accepted
	c["shard.rejected"] = s.Rejected
	c["shard.round_ns"] = s.RoundTimeNS
	c["shard.peer_batches"] = s.PeerBatches
	c["shard.peer_hedges"] = s.PeerHedges
	c["shard.peer_fallback"] = s.PeerFallback
	for _, sv := range metrics.ServiceSnapshots() {
		if sv.Name == "serve.solve" {
			c["serve.queue_wait_ns"] = sv.QueueWaitNS
			c["serve.cache_hits"] = sv.CacheHits
			c["serve.cache_misses"] = sv.CacheMisses
		}
	}
	return c
}

func (r *shardRunner) quality(_ []int64, outs []outcome) (float64, error) {
	vals := make([]float64, len(outs))
	for i, o := range outs {
		vals[i] = o.value
	}
	return mean(vals), nil
}

// layers splits the traced requests into the per-layer metrics.
func (r *shardRunner) layers(rec *recorder) map[string]float64 {
	c := counterSum{}
	var ops, rtt float64
	for i := range rec.spans {
		s := &rec.spans[i]
		if s.Name != "op" {
			continue
		}
		ops++
		rtt += s.ms()
		c.add(s.Counters)
	}
	if ops == 0 {
		return nil
	}
	// Single-spin shards are never dispatched, so a sub-solve sweeps the
	// remaining spins spread over the dispatched shards of a round.
	spins := 0.0
	if subs := float64(c["shard.sub_solves"]) / float64(c["shard.rounds"]); subs > 0 {
		spins = (float64(r.spec.n) - (float64(r.shards) - subs)) / subs
	}
	m := c.sbLayer(spins)
	roundMS := float64(c["shard.round_ns"]) / 1e6 / ops
	elapsedMS := float64(c["serve.elapsed_ns"]) / 1e6 / ops
	m["shard.rounds_per_op"] = float64(c["shard.rounds"]) / ops
	m["shard.sub_solves_per_op"] = float64(c["shard.sub_solves"]) / ops
	if p := float64(c["shard.accepted"] + c["shard.rejected"]); p > 0 {
		m["shard.accept_frac"] = float64(c["shard.accepted"]) / p
	}
	m["shard.round_ms"] = roundMS
	m["shard.outside_rounds_ms"] = elapsedMS - roundMS
	m["shard.peer_batches_per_op"] = float64(c["shard.peer_batches"]) / ops
	if b := float64(c["shard.peer_batches"]); b > 0 {
		m["shard.peer_hedge_frac"] = float64(c["shard.peer_hedges"]) / b
	}
	m["shard.peer_fallback"] = float64(c["shard.peer_fallback"])
	m["serve.overhead_ms"] = rtt/ops - elapsedMS
	m["serve.queue_wait_ms"] = float64(c["serve.queue_wait_ns"]) / 1e6 / ops
	if l := float64(c["serve.cache_hits"] + c["serve.cache_misses"]); l > 0 {
		m["serve.cache_hit_frac"] = float64(c["serve.cache_hits"]) / l
	}
	return m
}

func (r *shardRunner) stages(m map[string]float64) []stage {
	return []stage{
		{"serve.overhead", m["serve.overhead_ms"]},
		{"shard.outside_rounds", m["shard.outside_rounds_ms"]},
		{"shard.rounds", m["shard.round_ms"]},
	}
}

func (r *shardRunner) close() {
	r.client.CloseIdleConnections()
	r.top.Close()
}
