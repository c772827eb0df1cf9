// Command e2ebench is the repository's end-to-end benchmark. It drives
// real cmd/serve processes over loopback HTTP and prints one JSON line
// of metrics for one workload:
//
//	e2ebench -serve <serve binary> -workdir <scratch dir> \
//	    --workload sweep_mc|jobs_durable --seed N --seconds S --trace 0|1
//
// run.sh builds both binaries from the checkout and calls it. With
// --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it reports the per-layer metrics, measured by replaying the
// same seeded inputs through each layer's public functions in process.
// Human-readable diagnostics precede the JSON line; they explain
// outliers and never filter runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setups is how many times a run sets its server up; setup_s is their
// median, and the last one serves the timed window.
const setups = 5

// runDeadline bounds a whole run, so a wedged server fails the run
// instead of hanging it.
const runDeadline = 170 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	servePath := flag.String("serve", "", "path to the cmd/serve binary")
	workdir := flag.String("workdir", "", "scratch directory for job stores and trace output")
	name := flag.String("workload", "", "workload: sweep_mc or jobs_durable")
	seed := flag.Uint64("seed", 1, "workload seed (Monte-Carlo seeds and closed-form coordinates)")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from the traced run")
	flag.Parse()

	if err := run(*servePath, *workdir, *name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(servePath, workdir, name string, seed uint64, seconds float64, trace int) error {
	if servePath == "" || workdir == "" {
		return errors.New("-serve and -workdir are required")
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	// An interrupt or the deadline cancels the run; deferred cleanup
	// still kills and reaps every server before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	dir := filepath.Join(workdir, "run", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	defer os.RemoveAll(dir)

	var rep report
	switch trace {
	case 0:
		rep, err = runE2E(ctx, servePath, dir, w, seed, seconds)
	case 1:
		rep, err = runTraced(ctx, servePath, dir, w, seed, seconds)
	default:
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("run cut short: %w", err)
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setupServers launches the workload's servers and warms them: one
// request of every kind compiles the batches a fresh seed will reuse.
// Warm-up requests use indices the timed window never reaches, so the
// window's points still miss.
func setupServers(ctx context.Context, servePath, dir string, w workload, seed uint64) (*servers, error) {
	f, err := launch(ctx, servePath, dir, w)
	if err != nil {
		return nil, err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	for k, kd := range w.mix {
		if k > 0 && kd == w.mix[k-1] {
			continue
		}
		r := w.generate(seed, warmupIndex+k)
		if r.kind != kd {
			panic("e2ebench: warm-up index off the kind cycle")
		}
		if res := do(ctx, client, f.entry, r, time.Now()); res.err != nil {
			f.stop()
			return nil, fmt.Errorf("warm-up %s: %w", kd, res.err)
		}
	}
	return f, nil
}

// warmupIndex is an index far past any timed window, below the 2^20
// indices mcSeed keeps apart, and a multiple of every mix length, so
// warmupIndex+k has kind mix[k].
const warmupIndex = 36 * 26000

// setupTimes sets the server up `setups` times and returns the last,
// live one and every setup time in seconds.
func setupTimes(ctx context.Context, servePath, dir string, w workload, seed uint64) (*servers, []float64, error) {
	// Start from a clean disk: writeback left by earlier processes would
	// otherwise land in this run's fsyncs.
	syscall.Sync()
	var times []float64
	for s := 0; ; s++ {
		start := time.Now()
		f, err := setupServers(ctx, servePath, dir, w, seed)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if s == setups-1 {
			return f, times, nil
		}
		f.stop()
	}
}

// window is what the timed part of a run measured.
type window struct {
	results []result
	wall    time.Duration
	cpu     time.Duration // all server processes
	sys     time.Duration // the system part of cpu
	rssMB   float64
	steal   float64
}

// measure runs the load loop between CPU and steal snapshots.
func measure(f *servers, loop func() ([]result, time.Duration)) (window, error) {
	var win window
	h0, err := readHostCPU()
	if err != nil {
		return win, err
	}
	c0, s0, err := f.cpu()
	if err != nil {
		return win, err
	}
	win.results, win.wall = loop()
	c1, s1, err := f.cpu()
	if err != nil {
		return win, err
	}
	h1, err := readHostCPU()
	if err != nil {
		return win, err
	}
	win.steal = stealShare(h0, h1)
	win.cpu, win.sys = c1-c0, s1-s0
	win.rssMB, err = f.hwmMB()
	return win, err
}

func runE2E(ctx context.Context, servePath, dir string, w workload, seed uint64, seconds float64) (report, error) {
	f, setupSecs, err := setupTimes(ctx, servePath, dir, w, seed)
	if err != nil {
		return report{}, err
	}
	defer f.stop()
	client := newClient()
	defer client.CloseIdleConnections()

	win, err := measure(f, func() ([]result, time.Duration) {
		return closedLoop(ctx, client, f.entry, w, seed, seconds)
	})
	if err != nil {
		return report{}, err
	}

	st := summarize(win.results)
	if st.ok == 0 {
		return report{}, fmt.Errorf("no request of %d succeeded; first error: %v", st.n, win.results[0].err)
	}
	wall := win.wall.Seconds()
	rep := report{
		Correct:   st.failed == 0,
		Attempted: len(win.results),
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setupSecs), "s"},
			"lat_p50_ms":     {st.p50, "ms"},
			"lat_p90_ms":     {st.p90, "ms"},
			"points_per_s":   {float64(st.points) / wall, "points/s"},
			"cpu_ms_per_req": {ms(win.cpu) / float64(st.ok), "ms"},
			"rss_peak_mb":    {win.rssMB, "MB"},
			"ok_share":       {float64(st.ok) / float64(len(win.results)), "share"},
		},
	}
	fmt.Printf("workload %s seed %d: %d requests (%d ok) in %.2fs, %d servers, 1 client connection\n",
		w.name, seed, len(win.results), st.ok, wall, len(f.procs))
	fmt.Printf("  setup times %.4v s\n", setupSecs)
	fmt.Printf("  latency samples %d: p50 %.3f ms (%d above), p90 %.3f ms (%d above)\n",
		st.n, st.p50, st.above50, st.p90, st.above90)
	cpus := runtime.NumCPU()
	fmt.Printf("  host steal %.1f%%, server busy %.1f%% of %d CPUs, server CPU %.0f ms (%.0f ms system)\n",
		100*win.steal, 100*win.cpu.Seconds()/(wall*float64(cpus)), cpus, ms(win.cpu), ms(win.sys))
	printKinds(win.results)
	for _, r := range win.results {
		if r.err != nil {
			fmt.Printf("  FAILED %s: %v\n", r.kind, r.err)
			break
		}
	}
	return rep, nil
}

// stats summarizes a window's results. Failed requests count as
// missing every latency limit (infinite latency).
type stats struct {
	n, ok, failed, points int
	p50, p90              float64 // ms
	above50, above90      int     // samples strictly above each percentile
}

func summarize(rs []result) stats {
	st := stats{n: len(rs)}
	lat := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r.err != nil {
			st.failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		st.ok++
		st.points += r.points
		lat = append(lat, ms(r.latency()))
	}
	sort.Float64s(lat)
	st.p50, st.above50 = percentile(lat, 0.5)
	st.p90, st.above90 = percentile(lat, 0.9)
	return st
}

// percentile returns the nearest-rank q-quantile of sorted xs and how
// many samples lie above it.
func percentile(sorted []float64, q float64) (float64, int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	v := sorted[i]
	above := len(sorted) - sort.Search(len(sorted), func(j int) bool { return sorted[j] > v })
	return v, above
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func printKinds(rs []result) {
	by := map[kind][]float64{}
	for _, r := range rs {
		if r.err == nil {
			by[r.kind] = append(by[r.kind], ms(r.latency()))
		}
	}
	for k := kind(0); int(k) < len(kindNames); k++ {
		if l := by[k]; len(l) > 0 {
			sort.Float64s(l)
			p50, _ := percentile(l, 0.5)
			fmt.Printf("  %-15s n=%-6d p50 %.3f ms\n", k, len(l), p50)
		}
	}
}
