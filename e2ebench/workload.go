package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/api"
	"repro/internal/scenario"
)

// This file turns (workload, seed, index) into request bytes. The seed
// picks only Monte-Carlo seeds and closed-form point coordinates; grid
// shapes, runs, tbase, MTBF sets and the order of request kinds are
// constants below, so every seed asks for the same amount of work.

// kind is one request type of a workload's traffic mix.
type kind int

const (
	kindWaste    kind = iota // POST /v1/waste on a seeded Table I point
	kindOptimum              // POST /v1/optimum on a seeded Table I point
	kindRisk                 // POST /v1/risk on a seeded Table I point
	kindWarm                 // NDJSON /v1/sweep of a grid evaluated before, all cache hits
	kindFast                 // NDJSON /v1/sweep, fixed budget, fast backend, fresh seed
	kindAdaptive             // NDJSON /v1/sweep, targetRelErr, fast backend, fresh seed
	kindDetailed             // NDJSON /v1/sweep, detailed backend, small n, fresh seed
	kindJob                  // POST /v1/jobs, then follow /v1/jobs/{id}/results
	kindFleet                // NDJSON /v1/sweep sharded by a fabric coordinator (traced replay)
)

var kindNames = [...]string{"waste", "optimum", "risk", "warm_sweep", "fast_sweep",
	"adaptive_sweep", "detailed_sweep", "job", "fleet_sweep"}

func (k kind) String() string { return kindNames[k] }

// isSweep reports whether the kind's response is an NDJSON sweep stream.
func (k kind) isSweep() bool {
	return k == kindWarm || k == kindFast || k == kindAdaptive || k == kindDetailed || k == kindFleet
}

// workload is one traffic mix against one serve process, driven by a
// closed loop with one client.
type workload struct {
	name string
	// mix is the fixed, seed-independent order of request kinds;
	// request i has kind mix[i%len(mix)].
	mix []kind
	// jobs gives the server a job store on disk.
	jobs bool
}

var workloads = []workload{
	{name: "sweep_mc", mix: []kind{kindFast, kindAdaptive, kindDetailed}},
	{name: "jobs_durable", jobs: true, mix: []kind{kindJob}},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// checkpointEvery is the job store's -checkpoint-every: a 16-point job
// makes 2 checkpoints that carry result lines, then an empty flush
// after execution and the terminal meta write.
const checkpointEvery = 8

// Closed-form points: a Table I row, a protocol and seeded
// coordinates inside the region where every protocol is feasible, so
// no seed turns an optimum into the cheap infeasible early return.
var (
	pointScenarios = []string{"Base", "Exa"}
	pointProtocols = []string{"DoubleBlocking", "DoubleNBL", "DoubleBoF", "Triple", "TripleBoF"}
)

const (
	pointMTBFMin = 4 * 3600.0  // s
	pointMTBFMax = 24 * 3600.0 // s
	pointTbase   = 1e5         // s, the /v1/waste runtime projection
	pointLifeMin = 1e5         // s, /v1/risk horizon
	pointLifeMax = 1e6
)

// grid is the seed-independent shape of one sweep or job request.
type grid struct {
	scenario     scenario.Spec
	backends     []string
	protocols    []string
	phiFracs     []float64
	mtbfs        []float64
	tbase        float64
	runs         int
	targetRelErr float64
	maxRuns      int
}

func (g grid) points() int {
	b := len(g.backends)
	if b == 0 {
		b = 1
	}
	return b * len(g.protocols) * len(g.phiFracs) * len(g.mtbfs)
}

func (g grid) request(seed uint64) api.SweepRequest {
	return api.SweepRequest{
		Scenario:     g.scenario,
		Backends:     g.backends,
		Protocols:    g.protocols,
		PhiFracs:     g.phiFracs,
		MTBFs:        g.mtbfs,
		Tbase:        g.tbase,
		Runs:         g.runs,
		TargetRelErr: g.targetRelErr,
		MaxRuns:      g.maxRuns,
		Seed:         seed,
	}
}

func intp(v int) *int { return &v }

// warmGrids are the interactive replay's repeated sweeps, evaluated
// once before it starts so every later request is served from the
// point cache. Each has 768 points; together they fill three quarters
// of the default 4096-entry cache.
var warmGrids = []grid{
	warmGrid("Base", 2e4, 1800, 28800, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}),
	warmGrid("Base", 2e4, 2000, 30000, []float64{0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85}),
	warmGrid("Exa", 1e5, 14400, 172800, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}),
	warmGrid("Base", 2e4, 2500, 36000, []float64{0.05, 0.12, 0.22, 0.38, 0.52, 0.66, 0.88, 0.95}),
}

// warmGrid is a 4-protocol × 8-φ × 24-MTBF grid with geometrically
// spaced MTBFs in [lo, hi]. DoubleBlocking is left out: it pins φ, so
// its points would collapse onto each other's cache entries.
func warmGrid(name string, tbase, lo, hi float64, phis []float64) grid {
	mtbfs := make([]float64, 24)
	for i := range mtbfs {
		mtbfs[i] = math.Round(lo * math.Pow(hi/lo, float64(i)/float64(len(mtbfs)-1)))
	}
	return grid{scenario: scenario.Spec{Name: name},
		protocols: []string{"DoubleNBL", "DoubleBoF", "Triple", "TripleBoF"},
		phiFracs:  phis, mtbfs: mtbfs, tbase: tbase, runs: 8}
}

// Monte-Carlo grids: every request carries a fresh seed, so every
// point misses the cache and runs the kernel.
var (
	fastGrid = grid{scenario: scenario.Spec{Name: "Base"},
		protocols: []string{"DoubleNBL", "DoubleBoF", "Triple", "TripleBoF"},
		phiFracs:  []float64{0.25, 0.75}, mtbfs: []float64{3600, 7200}, tbase: 1e6, runs: 128}
	adaptiveGrid = grid{scenario: scenario.Spec{Name: "Base"},
		protocols: []string{"DoubleNBL", "Triple"},
		phiFracs:  []float64{0.5}, mtbfs: []float64{1800, 3600, 7200, 14400}, tbase: 2e6, runs: 16,
		targetRelErr: 0.01, maxRuns: 256}
	detailedGrid = grid{scenario: scenario.Spec{Name: "Base", N: intp(96)}, backends: []string{"detailed"},
		protocols: []string{"DoubleNBL", "Triple"},
		phiFracs:  []float64{0.5}, mtbfs: []float64{600, 1200}, tbase: 3e4, runs: 8}
	// jobGrid's Monte-Carlo work holds a single node near 35 jobs/s.
	// With a third of it, near 70 jobs/s, the server's system time per
	// job grew from 1.7 to 4.9 ms over three back-to-back runs, and an
	// idle minute reset it. At this size it held still from the first
	// run on.
	jobGrid = grid{scenario: scenario.Spec{Name: "Base"},
		protocols: []string{"DoubleNBL", "Triple"},
		phiFracs:  []float64{0.25, 0.75}, mtbfs: []float64{1800, 3600, 7200, 14400}, tbase: 5e5, runs: 96}
	// fabricGrid is jobGrid with little Monte-Carlo work, so dispatch,
	// merge and replication dominate the fabric replay's times.
	fabricGrid = grid{scenario: scenario.Spec{Name: "Base"},
		protocols: []string{"DoubleNBL", "Triple"},
		phiFracs:  []float64{0.25, 0.75}, mtbfs: []float64{1800, 3600, 7200, 14400}, tbase: 5e5, runs: 8}
)

// request is one generated request plus what its output check needs.
type request struct {
	kind kind
	path string
	body []byte
	// point is the decoded closed-form request, re-evaluated in
	// process by the check.
	point *api.PointRequest
	// sweep is the decoded sweep or job request.
	sweep *api.SweepRequest
	// points is the grid size a sweep or job must return.
	points int
}

// mcSeed is the Monte-Carlo base seed of request i: distinct for every
// index of a run (so no two requests share cache points), below 2^53
// so it survives any JSON reader, and a function of the workload seed.
func mcSeed(seed uint64, i int) uint64 {
	h := rand.New(rand.NewPCG(seed, 0x6d63)).Uint64()
	return (h&(1<<32-1))<<20 | uint64(i&(1<<20-1))
}

// warmSeed is the base seed of warm grid j.
func warmSeed(seed uint64, j int) uint64 {
	return rand.New(rand.NewPCG(seed, 0x7761726d+uint64(j))).Uint64() >> 12
}

// generate returns request i of the workload for the given seed.
func (w workload) generate(seed uint64, i int) request {
	k := w.mix[i%len(w.mix)]
	switch k {
	case kindFast:
		return sweepRequest(k, "/v1/sweep", fastGrid, mcSeed(seed, i))
	case kindAdaptive:
		return sweepRequest(k, "/v1/sweep", adaptiveGrid, mcSeed(seed, i))
	case kindDetailed:
		return sweepRequest(k, "/v1/sweep", detailedGrid, mcSeed(seed, i))
	case kindJob:
		return sweepRequest(k, "/v1/jobs", jobGrid, mcSeed(seed, i))
	}
	panic(fmt.Sprintf("e2ebench: kind %d has no generator", k))
}

// fabricRequest is request i of the traced run's fabric replay: three
// durable jobs on fabricGrid, then one synchronous sweep of it that the
// coordinator shards.
func fabricRequest(seed uint64, i int) request {
	if i%4 == 3 {
		return sweepRequest(kindFleet, "/v1/sweep", fabricGrid, mcSeed(seed, i))
	}
	return sweepRequest(kindJob, "/v1/jobs", fabricGrid, mcSeed(seed, i))
}

func sweepRequest(k kind, path string, g grid, seed uint64) request {
	req := g.request(seed)
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of plain fields always encodes
	}
	return request{kind: k, path: path, body: body, sweep: &req, points: g.points()}
}

// interactiveRequest is request i of the traced run's interactive
// replay: five sweeps of the warm grids in turn, then one closed-form
// query, cycling over waste, optimum and risk.
func interactiveRequest(seed uint64, i int) request {
	if i%6 == 5 {
		return pointRequest([]kind{kindWaste, kindOptimum, kindRisk}[(i/6)%3], seed, i)
	}
	j := (i - i/6) % len(warmGrids)
	return sweepRequest(kindWarm, "/v1/sweep", warmGrids[j], warmSeed(seed, j))
}

func pointRequest(k kind, seed uint64, i int) request {
	rnd := rand.New(rand.NewPCG(seed, uint64(i)))
	mtbf := pointMTBFMin * math.Pow(pointMTBFMax/pointMTBFMin, rnd.Float64())
	req := api.PointRequest{
		Scenario: scenario.Spec{Name: pointScenarios[rnd.IntN(len(pointScenarios))], MTBF: &mtbf},
		Protocol: pointProtocols[rnd.IntN(len(pointProtocols))],
		PhiFrac:  rnd.Float64(),
	}
	path := "/v1/" + k.String()
	switch k {
	case kindWaste:
		req.Tbase = pointTbase
	case kindRisk:
		req.Life = pointLifeMin + (pointLifeMax-pointLifeMin)*rnd.Float64()
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return request{kind: k, path: path, body: body, point: &req}
}
