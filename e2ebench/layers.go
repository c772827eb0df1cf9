package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/jobs"
)

// The traced run. Phase A drives the workload's real servers with one
// closed-loop client; it gives the end-to-end time each request kind
// takes, the cache-hit share and the pool's busy share. Phase B replays
// the same seeded inputs through each layer's public functions in this
// process, recording a span around every call, and derives the
// per-layer metrics from the spans' self times. trace.unattributed_share
// compares the stages phase B attributes to a request with the
// end-to-end time phase A measured for it.

// span is one timed call. Spans of one request share Req; Parent is
// the enclosing span's ID, or -1.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, req int, fn func() error) error {
	id := t.begin(name, parent, req)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns, per span name, the summed self time (duration
// minus the durations of direct children) and the span count.
func (t *tracer) selfTimes() (map[string]time.Duration, map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	count := map[string]int{}
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
		count[s.Name]++
	}
	return self, count
}

// meanUS is the mean self time of the named spans, in µs.
func meanUS(self map[string]time.Duration, count map[string]int, name string) float64 {
	if count[name] == 0 {
		return 0
	}
	return float64(self[name]) / float64(count[name]) / 1e3
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// phaseA is what the traced run measured against the real servers.
type phaseA struct {
	meanMS    map[kind]float64 // untraced mean latency per request kind
	cpuPerReq float64          // server CPU ms per request, untraced
	busy      float64          // server CPU / (wall × nproc)
	hitShare  float64
	requests  int
	failed    int
	steal     float64
}

// Phase B sizes: enough calls for stable means, few enough that every
// trace run ends well inside its time limit.
const (
	traceInteractiveReqs = 180 // ten cycles of interactiveRequest
	traceSweepCycles     = 3
	traceJobs            = 12
	traceFleetSweeps     = 8
	traceFsyncs          = 40
	traceRepeats         = 200 // per-line and per-item micro-loops
)

func runTraced(ctx context.Context, servePath, dir string, w workload, seed uint64, seconds float64) (report, error) {
	a, err := runPhaseA(ctx, servePath, dir, w, seed, seconds)
	if err != nil {
		return report{}, err
	}
	tr := newTracer()
	lm := map[string]metric{}
	attempted, failed := a.requests, a.failed
	// Every layer is measured in every traced run, each on the seeded
	// inputs of the workload that loads it, so each run prints the
	// whole per-layer set. The interactive replay has no end-to-end
	// workload; it measures the HTTP, expansion, encoding and
	// closed-form layers on cache-warm sweeps and Table I points.
	steps := []struct {
		name string
		fn   func(context.Context, *tracer, uint64, string, map[string]metric) (int, error)
	}{
		{"interactive", traceInteractive},
		{"sweep_mc", traceSweeps},
		{"jobs_durable", traceDurable},
		{"fabric", traceFabric},
	}
	phaseB := time.Now()
	for _, st := range steps {
		n, err := st.fn(ctx, tr, seed, filepath.Join(dir, "layers-"+st.name), lm)
		attempted += n
		if err != nil {
			failed++
			fmt.Printf("  FAILED layer replay %s: %v\n", st.name, err)
		}
	}
	phaseBWall := time.Since(phaseB)
	self, count := tr.selfTimes()
	stages := stageMS(tr, self, count, lm)

	// Stages attributed to the workload's mix versus the end-to-end
	// time of the same mix. The sweep_mc server fans each request's
	// points over its pool, so its wall time is CPU time over the
	// pool's parallelism; the serial stage sum is compared with the
	// server CPU per request instead.
	var attributed, e2e float64
	for _, k := range w.mix {
		attributed += stages[k]
		e2e += a.meanMS[k]
	}
	if w.name == "sweep_mc" {
		e2e = a.cpuPerReq * float64(len(w.mix))
	}
	unattributed := 1 - attributed/e2e
	lm["trace.unattributed_share"] = metric{unattributed, "share"}
	lm["api.cache_hit_share"] = metric{a.hitShare, "share"}
	lm["jobs.pool_busy_share"] = metric{a.busy, "share"}

	path := filepath.Join(filepath.Dir(filepath.Dir(dir)), "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := tr.write(path); err != nil {
		return report{}, err
	}
	spans := len(tr.spans)
	cost := spanCost()
	fmt.Printf("workload %s seed %d (traced): %d requests against the servers, host steal %.1f%%\n",
		w.name, seed, a.requests, 100*a.steal)
	fmt.Printf("  tracing overhead %.3f%% of phase B: %d spans at %v each in %.2fs; spans in %s\n",
		100*float64(cost)*float64(spans)/float64(phaseBWall), spans, cost, phaseBWall.Seconds(), path)
	fmt.Printf("  mix stages %.3f ms attributed of %.3f ms end to end: unattributed %.1f%%\n",
		attributed, e2e, 100*unattributed)
	for k := kind(0); int(k) < len(kindNames); k++ {
		if v, ok := a.meanMS[k]; ok {
			fmt.Printf("  %-15s e2e mean %.3f ms, stages %.3f ms\n", k, v, stages[k])
		}
	}
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: lm}, nil
}

// spanCost is the cost of one begin/end pair, timed on a scratch
// tracer.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("cost", -1, i))
	}
	return time.Since(start) / n
}

// stageMS is the per-request stage sum of each kind, from phase B.
func stageMS(tr *tracer, self map[string]time.Duration, count map[string]int, lm map[string]metric) map[kind]float64 {
	us := func(name string) float64 { return meanUS(self, count, name) }
	out := map[kind]float64{}
	// sweep_mc: expand, then per point resolve, kernel, experiments
	// self and item encoding (compile happens once per physical point,
	// during setup's warm-up, and is left out).
	for _, k := range []kind{kindFast, kindAdaptive, kindDetailed} {
		per := count["engine.kernel."+k.String()]
		reqs := count["api.expand."+k.String()]
		if reqs == 0 {
			continue
		}
		pts := float64(per) / float64(reqs)
		pointUS := us("engine.resolve."+k.String()) + us("engine.kernel."+k.String()) +
			lm["experiments.self_us_per_point"].Value + lm["api.encode_us_per_item"].Value
		out[k] = (us("api.expand."+k.String()) + pts*pointUS) / 1e3
	}
	// jobs_durable: a job's whole in-process span on a single-node
	// manager, from Submit until Wait returns. Its submit child is part
	// of it, and the manager's own time, the execution and each
	// checkpoint's fsyncs and meta writes, is its self time; the sum of
	// the tree's self times is the root's length.
	if n := count["job"]; n > 0 {
		out[kindJob] = ms(spanTotal(tr, "job")) / float64(n)
	}
	return out
}

// runPhaseA measures the workload's request kinds end to end against
// freshly launched servers, for a third of the run's seconds, at most
// 10 s.
func runPhaseA(ctx context.Context, servePath, dir string, w workload, seed uint64, seconds float64) (phaseA, error) {
	a := phaseA{meanMS: map[kind]float64{}}
	f, err := setupServers(ctx, servePath, filepath.Join(dir, "servers"), w, seed)
	if err != nil {
		return a, err
	}
	defer f.stop()
	client := newClient()
	defer client.CloseIdleConnections()
	length := min(seconds/3, 10)
	h0, err := getHealth(ctx, f.entry)
	if err != nil {
		return a, err
	}
	win, err := measure(f, func() ([]result, time.Duration) {
		return closedLoop(ctx, client, f.entry, w, seed, length)
	})
	if err != nil {
		return a, err
	}
	st := summarize(win.results)
	a.requests, a.failed, a.steal = st.n, st.failed, win.steal
	a.cpuPerReq = ms(win.cpu) / float64(st.n)
	a.busy = win.cpu.Seconds() / (win.wall.Seconds() * float64(runtime.NumCPU()))
	sum, n := map[kind]float64{}, map[kind]int{}
	for _, r := range win.results {
		sum[r.kind] += ms(r.latency())
		n[r.kind]++
	}
	for k := range sum {
		a.meanMS[k] = sum[k] / float64(n[k])
	}
	// The server's cache counters cover sweeps and job executions alike
	// (a job's results carry no cache trailers).
	h1, err := getHealth(ctx, f.entry)
	if err != nil {
		return a, err
	}
	if d := h1.CacheHits + h1.CacheMisses - h0.CacheHits - h0.CacheMisses; d > 0 {
		a.hitShare = float64(h1.CacheHits-h0.CacheHits) / float64(d)
	}
	return a, nil
}

// traceInteractive measures the closed-form model, sweep expansion,
// item encoding and the HTTP layer on cache-warm sweeps and seeded
// Table I points. Every loopback response is checked: a closed-form
// one against internal/core, a warm sweep for its lines and for every
// point a cache hit.
func traceInteractive(ctx context.Context, tr *tracer, seed uint64, dir string, lm map[string]metric) (int, error) {
	svc := api.NewService(api.Options{})
	srv := httptest.NewServer(api.NewServer(svc))
	defer srv.Close()
	client := newClient()
	defer client.CloseIdleConnections()
	for j, g := range warmGrids {
		if _, _, err := svc.Sweep(ctx, g.request(warmSeed(seed, j))); err != nil {
			return 0, err
		}
	}
	var httpSelf time.Duration
	var evals int
	var evalTime time.Duration
	for i := 0; i < traceInteractiveReqs; i++ {
		r := interactiveRequest(seed, i)
		root := tr.begin("request."+r.kind.String(), -1, i)
		lb := tr.begin("loopback."+r.kind.String(), root, i)
		start := time.Now()
		var res result
		var body []byte
		var points string
		resp, err := post(ctx, client, srv.URL+r.path, r.body, r.kind.isSweep())
		if err == nil {
			body, err = readAll(resp)
		}
		if err == nil && r.kind.isSweep() {
			res.hits, _ = strconv.Atoi(resp.Trailer.Get(api.HeaderSweepHits))
			points = resp.Trailer.Get(api.HeaderSweepPoints)
		}
		loop := time.Since(start)
		tr.end(lb)
		if err == nil {
			if r.kind.isSweep() {
				err = checkSweep(r, res, body, points)
				if err == nil && res.hits != r.points {
					err = fmt.Errorf("warm sweep: %d cache hits of %d points", res.hits, r.points)
				}
			} else {
				err = checkPoint(r, body)
			}
		}
		if err != nil {
			tr.end(root)
			return i, err
		}
		// The in-process service call on the same input.
		start = time.Now()
		if r.point == nil {
			err = tr.timed("api.sweep_cached", root, i, func() error {
				_, _, err := svc.Sweep(ctx, *r.sweep)
				return err
			})
		} else {
			err = tr.timed("core.eval", root, i, func() error { return evalPoint(svc, r) })
		}
		call := time.Since(start)
		tr.end(root)
		if err != nil {
			return i, err
		}
		httpSelf += loop - call
		if r.point != nil {
			evals++
			evalTime += call
		}
	}
	lm["api.http_self_us_per_req"] = metric{float64(httpSelf) / traceInteractiveReqs / 1e3, "us"}
	lm["core.eval_us_per_req"] = metric{float64(evalTime) / float64(evals) / 1e3, "us"}

	// Expansion and encoding of the warm grids.
	var points, items int
	var expand, encode time.Duration
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for rep := 0; rep < traceRepeats/len(warmGrids); rep++ {
		for j, g := range warmGrids {
			req := g.request(warmSeed(seed, j))
			start := time.Now()
			keys, err := svc.PointKeys(req)
			expand += time.Since(start)
			if err != nil {
				return traceInteractiveReqs, err
			}
			points += len(keys)
			got, _, err := svc.Sweep(ctx, req)
			if err != nil {
				return traceInteractiveReqs, err
			}
			start = time.Now()
			for _, item := range got {
				buf.Reset()
				if err := enc.Encode(item); err != nil {
					return traceInteractiveReqs, err
				}
			}
			encode += time.Since(start)
			items += len(got)
		}
	}
	lm["api.expand_us_per_point"] = metric{float64(expand) / float64(points) / 1e3, "us"}
	lm["api.encode_us_per_item"] = metric{float64(encode) / float64(items) / 1e3, "us"}
	return traceInteractiveReqs, nil
}

func evalPoint(svc *api.Service, r request) error {
	var err error
	switch r.kind {
	case kindWaste:
		_, err = svc.Waste(*r.point)
	case kindOptimum:
		_, err = svc.Optimum(*r.point)
	case kindRisk:
		_, err = svc.Risk(*r.point)
	}
	return err
}

// enginePoint is one grid point as the engine sees it.
type enginePoint struct {
	eng engine.Engine
	req engine.Request
}

// enginePoints builds the engine request of every point of a sweep, in
// the service's grid order (backends × protocols × φ × MTBF), with the
// scenario fields the service threads into each backend for grids
// without correlation or trace axes. The api package exports no
// expansion, so traceSweeps pins this copy to the service: every
// replayed point must reproduce the period and the simulated waste of
// the service's own item for it.
func enginePoints(req api.SweepRequest) ([]enginePoint, error) {
	base, err := req.Scenario.Resolve()
	if err != nil {
		return nil, err
	}
	names := req.Backends
	if len(names) == 0 {
		names = []string{req.Scenario.Backend}
	}
	var out []enginePoint
	for _, name := range names {
		eng, err := engine.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, pn := range req.Protocols {
			pr, err := core.ParseProtocol(pn)
			if err != nil {
				return nil, err
			}
			for _, frac := range req.PhiFracs {
				for _, m := range req.MTBFs {
					p := base.WithMTBF(m)
					law, err := req.Scenario.ResolveLaw(p)
					if err != nil {
						return nil, err
					}
					preq := engine.Request{Protocol: pr, Params: p, Phi: core.EffectivePhi(pr, p, frac*p.R),
						Period: req.Period, Tbase: req.Tbase, Law: law}
					if eng.Name() == "detailed" {
						preq.Spares, preq.ImageBytes = engine.NormalizeSubstrate(p, req.Scenario.Spares, req.Scenario.ImageBytes)
					}
					out = append(out, enginePoint{eng, preq})
				}
			}
		}
	}
	return out, nil
}

// traceSweeps measures the engine, the kernels and the experiments
// wrapper on sweep_mc's requests, one worker per point. The service
// evaluates each request first; its items carry the per-point seeds
// the real server derives from the point keys, and the replay of every
// point must reproduce its item's period and simulated waste exactly.
func traceSweeps(ctx context.Context, tr *tracer, seed uint64, dir string, lm map[string]metric) (int, error) {
	w, _ := workloadByName("sweep_mc")
	svc := api.NewService(api.Options{})
	var compileTime time.Duration
	var compiles int
	var adaptiveRuns, adaptivePoints int
	var adaptiveKernel time.Duration
	var fastRuns, detRuns int
	var fastFail, detFail float64
	var fastKernel, detKernel time.Duration
	var fastBatch engine.Batch
	var fastSeed uint64
	var fastPoint enginePoint
	n := 0
	for i := 0; i < traceSweepCycles*len(w.mix); i++ {
		r := w.generate(seed, i)
		items, _, err := svc.Sweep(ctx, *r.sweep)
		if err != nil {
			return n, err
		}
		ks := r.kind.String()
		root := tr.begin("request."+ks, -1, i)
		if err := tr.timed("api.expand."+ks, root, i, func() error {
			_, err := svc.PointKeys(*r.sweep)
			return err
		}); err != nil {
			return n, err
		}
		points, err := enginePoints(*r.sweep)
		if err != nil {
			return n, err
		}
		if len(points) != len(items) {
			return n, fmt.Errorf("%s: replay has %d points, the service %d", ks, len(points), len(items))
		}
		spec := engine.Precision{}
		if r.sweep.TargetRelErr > 0 {
			spec = engine.Precision{TargetRelErr: r.sweep.TargetRelErr, MinRuns: r.sweep.Runs, MaxRuns: r.sweep.MaxRuns}
		}
		for j, pt := range points {
			item := items[j]
			var resolved engine.Request
			if err := tr.timed("engine.resolve."+ks, root, i, func() error {
				var err error
				resolved, err = pt.eng.Resolve(pt.req)
				return err
			}); err != nil {
				return n, err
			}
			if resolved.Period != item.Period {
				return n, fmt.Errorf("%s point %d: replay period %v, the service's %v", ks, j, resolved.Period, item.Period)
			}
			start := time.Now()
			b, err := pt.eng.Compile(resolved)
			compileTime += time.Since(start)
			compiles++
			if err != nil {
				return n, err
			}
			var waste float64
			kid := tr.begin("engine.kernel."+ks, root, i)
			start = time.Now()
			if spec.Enabled() {
				ar, err := engine.RunAdaptive(b, item.Seed, spec, 1)
				if err != nil {
					return n, err
				}
				adaptiveKernel += time.Since(start)
				adaptiveRuns += ar.RunsUsed
				adaptivePoints++
				waste = ar.Estimate
			} else {
				agg, err := engine.RunMany(b, item.Seed, r.sweep.Runs, 1)
				if err != nil {
					return n, err
				}
				d := time.Since(start)
				if r.kind == kindFast {
					fastKernel += d
					fastRuns += r.sweep.Runs
					fastFail += agg.Failures.Mean() * float64(agg.Failures.N())
					if fastBatch == nil {
						fastBatch, fastSeed, fastPoint = b, item.Seed, pt
					}
				} else {
					detKernel += d
					detRuns += r.sweep.Runs
					detFail += agg.Failures.Mean() * float64(agg.Failures.N())
				}
				waste = agg.Waste.Mean()
			}
			tr.end(kid)
			n++
			if waste != item.SimWaste {
				return n, fmt.Errorf("%s point %d: replay waste %v, the service's %v", ks, j, waste, item.SimWaste)
			}
		}
		tr.end(root)
	}
	lm["engine.resolve_us_per_point"] = metric{meanAll(tr, "engine.resolve."), "us"}
	lm["engine.compile_us_per_point"] = metric{float64(compileTime) / float64(compiles) / 1e3, "us"}
	lm["engine.adaptive_runs_per_point"] = metric{float64(adaptiveRuns) / float64(adaptivePoints), "count"}
	lm["engine.adaptive_ns_per_run"] = metric{float64(adaptiveKernel) / float64(adaptiveRuns), "ns"}
	lm["sim.fast_ns_per_run"] = metric{float64(fastKernel) / float64(fastRuns), "ns"}
	lm["sim.fast_failures_per_s"] = metric{fastFail / fastKernel.Seconds(), "1/s"}
	lm["sim.detailed_ms_per_run"] = metric{float64(detKernel) / float64(detRuns) / 1e6, "ms"}
	lm["sim.detailed_failures_per_s"] = metric{detFail / detKernel.Seconds(), "1/s"}

	// experiments' own share of a point: ValidateBatch minus the
	// engine.RunMany it wraps, on one run of a fast point cut to a short
	// horizon, so the wrapper's fixed cost is not lost in the kernel's
	// noise. Loops of both calls alternate, so both see the same
	// machine, and the medians of their per-call times are compared.
	short := fastPoint.req
	short.Tbase = 1e3
	short, err := fastPoint.eng.Resolve(short)
	if err != nil {
		return n, err
	}
	tiny, err := fastPoint.eng.Compile(short)
	if err != nil {
		return n, err
	}
	const loop = 50
	var withWrap, bare []float64
	for k := 0; k < traceRepeats; k++ {
		start := time.Now()
		for j := 0; j < loop; j++ {
			if _, err := engine.RunMany(tiny, fastSeed, 1, 1); err != nil {
				return n, err
			}
		}
		bare = append(bare, float64(time.Since(start))/loop)
		start = time.Now()
		for j := 0; j < loop; j++ {
			if _, err := experiments.ValidateBatch(tiny, fastSeed, 1, 1); err != nil {
				return n, err
			}
		}
		withWrap = append(withWrap, float64(time.Since(start))/loop)
	}
	lm["experiments.self_us_per_point"] = metric{(median(withWrap) - median(bare)) / 1e3, "us"}

	// Parallel efficiency of the batch executor on a fast point: the
	// medians of alternated 1-worker and nproc-worker timings.
	const runs = 4096
	workers := runtime.NumCPU()
	var t1, tn []float64
	for k := 0; k < 5; k++ {
		for _, wk := range []int{1, workers} {
			start := time.Now()
			if _, err := engine.RunMany(fastBatch, fastSeed, runs, wk); err != nil {
				return n, err
			}
			d := float64(time.Since(start))
			if wk == 1 {
				t1 = append(t1, d)
			} else {
				tn = append(tn, d)
			}
		}
	}
	lm["sim.parallel_efficiency"] = metric{median(t1) / (float64(workers) * median(tn)), "share"}
	return n, nil
}

// meanAll is the mean self time, in µs, of the spans whose names start
// with prefix.
func meanAll(tr *tracer, prefix string) float64 {
	self, count := tr.selfTimes()
	var sum time.Duration
	var n int
	for name, d := range self {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			sum += d
			n += count[name]
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// timedSink wraps the replicator so every quorum round is a span under
// its job. It counts the checkpoint rounds that carry result lines
// apart from the empty ones: the flush after execution ends, when the
// last window was already full, and the terminal meta round.
type timedSink struct {
	tr   *tracer
	next *fabric.Replicator
	mu   sync.Mutex
	jobs map[string]jobSpans
	// create is the summed create-quorum time; data and empty count
	// the checkpoint rounds with and without lines, dataWait and
	// emptyWait their summed quorum waits, and bytes the lines' size.
	create              time.Duration
	data, empty         int
	dataWait, emptyWait time.Duration
	bytes               int
}

// jobSpans places one job's quorum rounds in its trace: the create
// round under its Submit span, the checkpoint rounds under its root.
type jobSpans struct{ req, root, submit int }

func (s *timedSink) spans(id string) jobSpans {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j
	}
	return jobSpans{req: -1, root: -1, submit: -1}
}

func (s *timedSink) JobCreated(meta jobs.Meta, request []byte) error {
	j := s.spans(meta.ID)
	start := time.Now()
	err := s.tr.timed("fabric.create_quorum", j.submit, j.req, func() error { return s.next.JobCreated(meta, request) })
	s.mu.Lock()
	s.create += time.Since(start)
	s.mu.Unlock()
	return err
}

func (s *timedSink) Checkpoint(id string, meta jobs.Meta, from int, lines []byte) error {
	j := s.spans(id)
	name := "fabric.quorum_wait"
	if len(lines) == 0 {
		name = "fabric.quorum_wait_empty"
	}
	start := time.Now()
	err := s.tr.timed(name, j.root, j.req, func() error { return s.next.Checkpoint(id, meta, from, lines) })
	d := time.Since(start)
	s.mu.Lock()
	if len(lines) > 0 {
		s.data++
		s.dataWait += d
		s.bytes += len(lines)
	} else {
		s.empty++
		s.emptyWait += d
	}
	s.mu.Unlock()
	return err
}

func (s *timedSink) JobRemoved(id string) error { return s.next.JobRemoved(id) }

// traceDurable replays jobs_durable's jobs through an in-process
// single-node job manager on disk, executing on the local sweep
// engine as cmd/serve does without a fleet, and times the fsync of one
// checkpoint's lines on its own.
func traceDurable(ctx context.Context, tr *tracer, seed uint64, dir string, lm map[string]metric) (int, error) {
	w, _ := workloadByName("jobs_durable")
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	svc := api.NewService(api.Options{})
	mgr, err := jobs.NewManager(jobs.Config{
		Dir:             filepath.Join(dir, "store"),
		MaxConcurrent:   2,
		CheckpointEvery: checkpointEvery,
		Exec:            svc.JobExecutor(),
		Normalize:       svc.NormalizeJobRequest,
		JanitorSeed:     1,
	})
	if err != nil {
		return 0, err
	}
	defer mgr.Close()
	var submitTime time.Duration
	var last request
	for i := 0; i < traceJobs; i++ {
		r := w.generate(seed, i)
		root := tr.begin("job", -1, i)
		submitSpan := tr.begin("jobs.submit", root, i)
		start := time.Now()
		meta, created, err := mgr.Submit(r.body)
		submitTime += time.Since(start)
		tr.end(submitSpan)
		if err == nil && !created {
			err = fmt.Errorf("job %s deduped; seeds must be fresh", meta.ID)
		}
		if err != nil {
			tr.end(root)
			return i, err
		}
		final, err := mgr.Wait(ctx, meta.ID)
		tr.end(root)
		if err != nil {
			return i + 1, err
		}
		if final.State != jobs.Done || final.Completed != r.points {
			return i + 1, fmt.Errorf("job %s ended %s with %d of %d points", meta.ID, final.State, final.Completed, r.points)
		}
		last = r
	}
	lm["jobs.submit_ms"] = metric{ms(submitTime) / traceJobs, "ms"}

	// fsync of one checkpoint's worth of the last job's result lines.
	items, _, err := svc.Sweep(ctx, *last.sweep)
	if err != nil {
		return traceJobs, err
	}
	var lines [][]byte
	for _, item := range items {
		line, err := json.Marshal(item)
		if err != nil {
			return traceJobs, err
		}
		lines = append(lines, append(line, '\n'))
	}
	store, err := jobs.NewStore(filepath.Join(dir, "fsync"))
	if err != nil {
		return traceJobs, err
	}
	const fsyncJob = "job-fsync"
	if err := store.Create(jobs.Meta{ID: fsyncJob, State: jobs.Pending, Total: traceFsyncs * checkpointEvery}, last.body); err != nil {
		return traceJobs, err
	}
	rf, _, err := store.OpenResults(fsyncJob)
	if err != nil {
		return traceJobs, err
	}
	defer rf.Close()
	var syncTime time.Duration
	for k := 0; k < traceFsyncs; k++ {
		for j := 0; j < checkpointEvery; j++ {
			if err := rf.Append(lines[j%len(lines)]); err != nil {
				return traceJobs, err
			}
		}
		start := time.Now()
		err := rf.Sync()
		syncTime += time.Since(start)
		if err != nil {
			return traceJobs, err
		}
	}
	lm["jobs.fsync_ms"] = metric{ms(syncTime) / traceFsyncs, "ms"}
	return traceJobs, nil
}

// traceFabric replays durable jobs and sharded sweeps through an
// in-process fleet: a job manager replicating to two loopback replicas
// and executing through a coordinator over two loopback workers.
func traceFabric(ctx context.Context, tr *tracer, seed uint64, dir string, lm map[string]metric) (int, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var servers []*httptest.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	serve := func(h http.Handler) string {
		s := httptest.NewServer(h)
		servers = append(servers, s)
		return s.URL
	}
	var workerURLs, replicaURLs []string
	for i := 0; i < 2; i++ {
		workerURLs = append(workerURLs, serve(api.NewServer(api.NewService(api.Options{}))))
		store, err := jobs.NewStore(filepath.Join(dir, fmt.Sprintf("replica%d", i)))
		if err != nil {
			return 0, err
		}
		rp, err := fabric.NewReplica(fabric.ReplicaConfig{Store: store})
		if err != nil {
			return 0, err
		}
		mux := http.NewServeMux()
		rp.Routes(mux)
		replicaURLs = append(replicaURLs, serve(mux))
	}
	coordSvc := api.NewService(api.Options{})
	coord, err := fabric.New(fabric.Config{Service: coordSvc, Workers: workerURLs, JitterSeed: 1})
	if err != nil {
		return 0, err
	}
	leaderDir := filepath.Join(dir, "leader")
	leaderStore, err := jobs.NewStore(leaderDir)
	if err != nil {
		return 0, err
	}
	repl, err := fabric.NewReplicator(fabric.ReplicatorConfig{Self: "http://leader", Peers: replicaURLs, Store: leaderStore})
	if err != nil {
		return 0, err
	}
	sink := &timedSink{tr: tr, next: repl, jobs: map[string]jobSpans{}}
	mgr, err := jobs.NewManager(jobs.Config{
		Dir:             leaderDir,
		MaxConcurrent:   2,
		CheckpointEvery: checkpointEvery,
		Normalize:       coordSvc.NormalizeJobRequest,
		Replicate:       sink,
		JanitorSeed:     1,
		Exec:            coord.Executor(),
	})
	if err != nil {
		return 0, err
	}
	defer mgr.Close()

	n := 0
	jobsRun := 0
	for i := 0; jobsRun < traceJobs; i++ {
		r := fabricRequest(seed, i)
		if r.kind != kindJob {
			continue
		}
		canonical, _, err := coordSvc.NormalizeJobRequest(r.body)
		if err != nil {
			return n, err
		}
		root := tr.begin("fabric.job", -1, i)
		submitSpan := tr.begin("fabric.submit", root, i)
		sink.mu.Lock()
		sink.jobs[jobs.IDFor(canonical)] = jobSpans{req: i, root: root, submit: submitSpan}
		sink.mu.Unlock()
		meta, created, err := mgr.Submit(r.body)
		tr.end(submitSpan)
		if err == nil && !created {
			err = fmt.Errorf("job %s deduped; seeds must be fresh", meta.ID)
		}
		if err != nil {
			tr.end(root)
			return n, err
		}
		final, err := mgr.Wait(ctx, meta.ID)
		tr.end(root)
		n++
		if err != nil {
			return n, err
		}
		if final.State != jobs.Done || final.Completed != r.points {
			return n, fmt.Errorf("job %s ended %s with %d of %d points", meta.ID, final.State, final.Completed, r.points)
		}
		jobsRun++
	}
	sink.mu.Lock()
	lm["fabric.create_quorum_ms"] = metric{ms(sink.create) / traceJobs, "ms"}
	lm["jobs.checkpoints_per_job"] = metric{float64(sink.data) / traceJobs, "count"}
	lm["fabric.quorum_wait_ms"] = metric{ms(sink.dataWait) / float64(sink.data), "ms"}
	lm["fabric.replica_kb_per_checkpoint"] = metric{float64(sink.bytes) / 1024 / float64(sink.data), "KiB"}
	fmt.Printf("  replication: %d jobs, %d checkpoint rounds with lines, %d without (mean quorum wait %.3f ms)\n",
		traceJobs, sink.data, sink.empty, ms(sink.emptyWait)/float64(max(sink.empty, 1)))
	sink.mu.Unlock()

	// Sharded sweeps: the coordinator against the single-node engine on
	// the same request; the lines must be byte-identical.
	single := api.NewService(api.Options{})
	var coordTime, localTime time.Duration
	var ranges int
	var lines [][]byte
	sweeps := 0
	for i := 0; sweeps < traceFleetSweeps; i++ {
		r := fabricRequest(seed, i)
		if r.kind != kindFleet {
			continue
		}
		root := tr.begin("request.fleet", -1, i)
		var got [][]byte
		start := time.Now()
		err := tr.timed("fabric.coord_sweep", root, i, func() error {
			return coord.SweepStreamFrom(ctx, r.body, 0, nil, func(line []byte) error {
				got = append(got, append([]byte(nil), line...))
				return nil
			})
		})
		coordTime += time.Since(start)
		if err != nil {
			tr.end(root)
			return n, err
		}
		var want [][]byte
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		start = time.Now()
		err = tr.timed("api.sweep_local", root, i, func() error {
			_, err := single.SweepStreamFrom(ctx, *r.sweep, 0, jobs.Interactive, nil, func(item api.SweepItem) error {
				buf.Reset()
				if err := enc.Encode(item); err != nil {
					return err
				}
				want = append(want, append([]byte(nil), buf.Bytes()...))
				return nil
			})
			return err
		})
		localTime += time.Since(start)
		tr.end(root)
		n++
		if err != nil {
			return n, err
		}
		if len(got) != len(want) {
			return n, fmt.Errorf("sharded sweep: %d lines, single node %d", len(got), len(want))
		}
		for j := range got {
			if !bytes.Equal(got[j], want[j]) {
				return n, fmt.Errorf("sharded sweep line %d differs from the single-node line", j)
			}
		}
		keys, err := coordSvc.PointKeys(*r.sweep)
		if err != nil {
			return n, err
		}
		ranges += len(coord.Ring().Ranges(keys, 0))
		lines = got
		sweeps++
	}
	lm["fabric.coord_overhead_ms_per_sweep"] = metric{ms(coordTime-localTime) / traceFleetSweeps, "ms"}
	lm["fabric.ranges_per_sweep"] = metric{float64(ranges) / traceFleetSweeps, "count"}

	// Merge and frame, per line, over the last sweep's lines.
	var mergeTime, frameTime time.Duration
	var frame []byte
	for rep := 0; rep < traceRepeats; rep++ {
		m := fabric.NewMerger(0, len(lines), func([]byte) error { return nil })
		start := time.Now()
		for j, line := range lines {
			if _, err := m.Add(j, line); err != nil {
				return n, err
			}
		}
		mergeTime += time.Since(start)
		start = time.Now()
		for _, line := range lines {
			frame = api.AppendFrameLine(frame[:0], line)
		}
		frameTime += time.Since(start)
	}
	perLine := float64(traceRepeats * len(lines))
	lm["fabric.merge_us_per_line"] = metric{float64(mergeTime) / perLine / 1e3, "us"}
	lm["api.frame_us_per_line"] = metric{float64(frameTime) / perLine / 1e3, "us"}

	return n, nil
}

// spanTotal is the summed duration of the named spans.
func spanTotal(tr *tracer, name string) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var d time.Duration
	for _, s := range tr.spans {
		if s.Name == name && s.End > 0 {
			d += s.End - s.Start
		}
	}
	return d
}
