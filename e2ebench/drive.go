package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/jobs"
)

// result is the outcome of one request.
type result struct {
	kind kind
	// sent is when the request was sent and done when its last byte
	// arrived, both as offsets from the start of the window.
	sent, done time.Duration
	err        error
	// points is the number of sweep points the response delivered.
	points int
	// hits and misses are the X-Sweep-Cache-* trailers (cached is
	// false when the response carries none).
	hits, misses int
	cached       bool
}

func (r result) latency() time.Duration { return r.done - r.sent }

// newClient returns a client with one loopback connection: every loop
// here has one request in flight at a time.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// do sends one request and checks its output. The request's done time
// is stamped when its last byte has arrived, before the check runs.
func do(ctx context.Context, client *http.Client, base string, r request, t0 time.Time) result {
	var res result
	var check func() error
	var err error
	if r.kind == kindJob {
		check, err = doJob(ctx, client, base, r)
	} else {
		res, check, err = doSweep(ctx, client, base, r)
	}
	res.kind = r.kind
	res.done = time.Since(t0)
	if err == nil {
		err = check()
	}
	res.err = err
	if err == nil && r.kind == kindJob {
		res.points = r.points
	}
	return res
}

func post(ctx context.Context, client *http.Client, url string, body []byte, ndjson bool) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ndjson {
		req.Header.Set("Accept", api.NDJSONContentType)
	}
	return client.Do(req)
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// checkPoint compares a closed-form response with internal/core
// evaluated in this process. JSON carries float64 exactly, so the
// fields must be equal, not close.
func checkPoint(r request, body []byte) error {
	pr, err := core.ParseProtocol(r.point.Protocol)
	if err != nil {
		return err
	}
	p, err := r.point.Scenario.Resolve()
	if err != nil {
		return err
	}
	phi := core.EffectivePhi(pr, p, r.point.PhiFrac*p.R)
	type fields struct {
		Period      float64 `json:"period"`
		Waste       float64 `json:"waste"`
		Feasible    bool    `json:"feasible"`
		RiskWindow  float64 `json:"riskWindow"`
		SuccessProb float64 `json:"successProb"`
	}
	var got fields
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: %w", r.kind, err)
	}
	var want fields
	switch r.kind {
	case kindWaste, kindOptimum:
		want.Feasible = true
		if want.Period, err = core.OptimalPeriod(pr, p, phi); err != nil {
			return err
		}
		if r.kind == kindWaste {
			want.Waste, err = core.Waste(pr, p, phi, want.Period)
		} else {
			want.Waste = core.OptimalWaste(pr, p, phi)
		}
		if err != nil {
			return err
		}
	case kindRisk:
		want.RiskWindow = core.RiskWindow(pr, p, phi)
		want.SuccessProb = core.SuccessProbability(pr, p, phi, r.point.Life)
	}
	if got != want {
		return fmt.Errorf("%s %s: got %+v, core gives %+v", r.kind, r.body, got, want)
	}
	return nil
}

// checkLines verifies an NDJSON body of sweep items: exactly want
// lines, no error record, each a strict SweepItem.
func checkLines(body []byte, want int) error {
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"error"`)) {
			return fmt.Errorf("error record after %d lines: %s", n, line)
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var item api.SweepItem
		if err := dec.Decode(&item); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		if item.Runs < 1 || item.Seed == 0 {
			return fmt.Errorf("line %d: implausible item %s", n, line)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("%d lines, want %d", n, want)
	}
	return nil
}

func doSweep(ctx context.Context, client *http.Client, base string, r request) (result, func() error, error) {
	res := result{kind: r.kind}
	resp, err := post(ctx, client, base+r.path, r.body, true)
	if err != nil {
		return res, nil, err
	}
	body, err := readAll(resp)
	if err != nil {
		return res, nil, err
	}
	res.points = r.points
	if h := resp.Trailer.Get(api.HeaderSweepHits); h != "" {
		res.cached = true
		res.hits, _ = strconv.Atoi(h)
		res.misses, _ = strconv.Atoi(resp.Trailer.Get(api.HeaderSweepMisses))
	}
	points := resp.Trailer.Get(api.HeaderSweepPoints)
	return res, func() error { return checkSweep(r, res, body, points) }, nil
}

// checkSweep verifies a sweep body and its trailers: the grid size in
// lines and in the X-Sweep-Points trailer, and, for a fresh
// Monte-Carlo seed on a single node, every point a cache miss.
func checkSweep(r request, res result, body []byte, points string) error {
	if points != strconv.Itoa(r.points) {
		return fmt.Errorf("%s: %s trailer %q, want %d", r.kind, api.HeaderSweepPoints, points, r.points)
	}
	if err := checkLines(body, r.points); err != nil {
		return fmt.Errorf("%s: %w", r.kind, err)
	}
	switch r.kind {
	case kindFast, kindAdaptive, kindDetailed:
		if !res.cached || res.misses != r.points || res.hits != 0 {
			return fmt.Errorf("%s: %d hits, %d misses; every point of a fresh seed must miss",
				r.kind, res.hits, res.misses)
		}
	}
	return nil
}

// doJob submits a durable job and follows its results to the last line.
func doJob(ctx context.Context, client *http.Client, base string, r request) (func() error, error) {
	resp, err := post(ctx, client, base+r.path, r.body, false)
	if err != nil {
		return nil, err
	}
	status := resp.StatusCode
	body, err := readAll(resp)
	if err != nil {
		return nil, err
	}
	if status != http.StatusAccepted {
		return nil, fmt.Errorf("job submit: status %d, want 202 for a fresh seed", status)
	}
	var meta jobs.Meta
	if err := json.Unmarshal(body, &meta); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+meta.ID+"/results", nil)
	if err != nil {
		return nil, err
	}
	resp, err = client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err = readAll(resp)
	if err != nil {
		return nil, err
	}
	return func() error {
		if meta.Total != r.points {
			return fmt.Errorf("job %s: total %d, want %d", meta.ID, meta.Total, r.points)
		}
		if err := checkLines(body, r.points); err != nil {
			return fmt.Errorf("job %s: %w", meta.ID, err)
		}
		return nil
	}, nil
}

// closedLoop sends the workload's requests one at a time until the
// window has lasted `seconds`, and returns the results and the window
// length.
func closedLoop(ctx context.Context, client *http.Client, base string, w workload, seed uint64,
	seconds float64) ([]result, time.Duration) {
	var out []result
	limit := time.Duration(seconds * float64(time.Second))
	t0 := time.Now()
	for i := 0; time.Since(t0) < limit && ctx.Err() == nil; i++ {
		r := w.generate(seed, i)
		sent := time.Since(t0)
		res := do(ctx, client, base, r, t0)
		res.sent = sent
		out = append(out, res)
	}
	return out, time.Since(t0)
}
