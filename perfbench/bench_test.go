package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"trinit/internal/dataset"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestWorkloadsOnSmallWorld runs every workload briefly on the small
// world, untraced and traced, and checks that each run is correct and
// prints exactly the metrics BENCHMARK.json lists, with their units.
func TestWorkloadsOnSmallWorld(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		perLayer[m.Name] = m.Unit
	}

	// The small world holds too few facts for the bench cadence of
	// checkpoints; checkpoint every 5 batches so each run makes some.
	saved := append([]workload(nil), workloads...)
	defer func() { workloads = saved }()
	for i := range workloads {
		workloads[i].every = 5
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			want := endToEnd
			if trace {
				name, want = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				c := &config{
					workload: w.name,
					seed:     2,
					seconds:  1,
					trace:    trace,
					world:    dataset.DefaultConfig(),
					setups:   2,
					scratch:  t.TempDir(),
				}
				rep, err := run(c)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d, record %v", rep.Correct, rep.Failed, rep.Attempted, rep.record)
				}
				if r := rep.record["fail_ratio"]; r != 0.0 {
					t.Errorf("fail_ratio = %v, want 0", r)
				}
				for name, unit := range want {
					m, ok := rep.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					}
				}
				for name := range rep.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not listed in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}
