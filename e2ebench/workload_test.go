package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/api"
)

// requestsPerWorkload covers several full mix cycles, and several
// cycles of the interactive replay with every warm grid.
const requestsPerWorkload = 64

// shape is the seed-independent part of a request.
type shape struct {
	Kind      kind
	Points    int
	Runs      int
	Tbase     float64
	MTBFs     []float64
	Backends  []string
	MaxRuns   int
	RelErr    float64
	Protocols []string
	PhiFracs  []float64
}

func (r request) shape() shape {
	s := shape{Kind: r.kind, Points: r.points}
	if r.sweep != nil {
		s.Runs, s.Tbase, s.MTBFs, s.Backends = r.sweep.Runs, r.sweep.Tbase, r.sweep.MTBFs, r.sweep.Backends
		s.MaxRuns, s.RelErr = r.sweep.MaxRuns, r.sweep.TargetRelErr
		s.Protocols, s.PhiFracs = r.sweep.Protocols, r.sweep.PhiFracs
	}
	return s
}

// One seed always yields the same request bytes.
func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range workloads {
		for i := 0; i < requestsPerWorkload; i++ {
			a, b := w.generate(7, i), w.generate(7, i)
			if a.path != b.path || !bytes.Equal(a.body, b.body) {
				t.Fatalf("%s request %d: two generations differ:\n%s\n%s", w.name, i, a.body, b.body)
			}
		}
	}
	for i := 0; i < requestsPerWorkload; i++ {
		a, b := interactiveRequest(7, i), interactiveRequest(7, i)
		if a.path != b.path || !bytes.Equal(a.body, b.body) {
			t.Fatalf("interactive replay request %d: two generations differ:\n%s\n%s", i, a.body, b.body)
		}
	}
}

// Two seeds yield the same work shape: kinds in the same order, the
// same grid sizes, runs, tbase, MTBF sets and adaptive settings.
func TestSeedsShareWorkShape(t *testing.T) {
	for _, w := range workloads {
		for i := 0; i < requestsPerWorkload; i++ {
			a, b := w.generate(1, i), w.generate(99, i)
			if !reflect.DeepEqual(a.shape(), b.shape()) {
				t.Fatalf("%s request %d: shapes differ:\n%+v\n%+v", w.name, i, a.shape(), b.shape())
			}
			if a.kind != w.mix[i%len(w.mix)] {
				t.Fatalf("%s request %d: kind %s, mix says %s", w.name, i, a.kind, w.mix[i%len(w.mix)])
			}
		}
	}
	for i := 0; i < requestsPerWorkload; i++ {
		a, b := interactiveRequest(1, i), interactiveRequest(99, i)
		if !reflect.DeepEqual(a.shape(), b.shape()) {
			t.Fatalf("interactive replay request %d: shapes differ:\n%+v\n%+v", i, a.shape(), b.shape())
		}
	}
}

// The seed does change what it is meant to change: Monte-Carlo seeds
// and closed-form coordinates.
func TestSeedsDiffer(t *testing.T) {
	for _, w := range workloads {
		for i := 0; i < len(w.mix); i++ {
			if bytes.Equal(w.generate(1, i).body, w.generate(2, i).body) {
				t.Errorf("%s request %d: seeds 1 and 2 give the same bytes", w.name, i)
			}
		}
	}
}

// Within a run no two Monte-Carlo requests share a seed, so every point
// of the timed window misses the cache — including against setup's
// warm-up requests.
func TestFreshSeedsPerRequest(t *testing.T) {
	for _, name := range []string{"sweep_mc", "jobs_durable"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]int{}
		for i := 0; i < 20000; i++ {
			s := w.generate(3, i).sweep.Seed
			if j, dup := seen[s]; dup {
				t.Fatalf("%s: requests %d and %d share seed %d", name, j, i, s)
			}
			seen[s] = i
		}
		for k := range w.mix {
			if _, dup := seen[w.generate(3, warmupIndex+k).sweep.Seed]; dup {
				t.Fatalf("%s: warm-up request %d reuses a window seed", name, k)
			}
		}
	}
}

// Every seeded closed-form point is feasible, so no seed takes the
// cheaper infeasible path of /v1/optimum, and the in-process check
// agrees with the service on it.
func TestClosedFormPointsFeasible(t *testing.T) {
	svc := api.NewService(api.Options{})
	for seed := uint64(1); seed <= 20; seed++ {
		for i := 0; i < 36; i++ {
			r := interactiveRequest(seed, i)
			if r.point == nil {
				continue
			}
			var body []byte
			var err error
			switch r.kind {
			case kindWaste:
				var resp api.WasteResponse
				if resp, err = svc.Waste(*r.point); err == nil && !resp.Feasible {
					t.Fatalf("seed %d request %d infeasible: %s", seed, i, r.body)
				}
				body, _ = json.Marshal(resp)
			case kindOptimum:
				var resp api.OptimumResponse
				if resp, err = svc.Optimum(*r.point); err == nil && !resp.Feasible {
					t.Fatalf("seed %d request %d infeasible: %s", seed, i, r.body)
				}
				body, _ = json.Marshal(resp)
			case kindRisk:
				var resp api.RiskResponse
				resp, err = svc.Risk(*r.point)
				body, _ = json.Marshal(resp)
			}
			if err != nil {
				t.Fatalf("seed %d request %d: %v", seed, i, err)
			}
			if err := checkPoint(r, body); err != nil {
				t.Fatalf("seed %d request %d: %v", seed, i, err)
			}
		}
	}
}
