package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"
)

// tinySizes shrink every workload to seconds: one simulated mission, three
// reports over a one-data-day mission, and a one-habitat fleet driven for
// about a second at one rate.
var tinySizes = sizes{
	Setups:      1,
	MissionDays: 2,
	Habitats:    1,
	HabitatDays: 2,
	Rates:       []float64{50},
	RefRate:     50,
	MaxOps:      3,
}

func tinyEnv(t *testing.T, traced bool) *env {
	t.Helper()
	return &env{
		seed:    7,
		budget:  1500 * time.Millisecond,
		trace:   traced,
		workdir: t.TempDir(),
		size:    tinySizes,
		log:     io.Discard,
	}
}

// TestSmokeEmitsDeclaredMetrics runs every workload at tiny sizes, untraced
// and traced, and checks that the JSON line carries every metric
// BENCHMARK.json declares for that run, with its declared unit, and that
// nothing failed.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	decl, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		want := decl.EndToEnd
		if traced {
			want = decl.PerLayer
		}
		for _, w := range workloads {
			e := tinyEnv(t, traced)
			if w.name == "simulate" {
				e.size.MaxOps = 1
			}
			results, err := runWorkloads(e, []workload{w})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			var text bytes.Buffer
			line, correct, err := report(results, decl, traced, &text, "")
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !correct {
				t.Errorf("%s (traced %v): failed: %v", w.name, traced, results[0].Problems)
			}
			var res jsonResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("%s: bad JSON line %q: %v", w.name, line, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (traced %v): attempted %d, failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics on the JSON line, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s (traced %v): %s = %+v, want unit %s", w.name, traced, d.Name, m, d.Unit)
				}
			}
			if !traced {
				for _, d := range want {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestGatesFireOnTamperedReference alters every correctness reference as
// it is recorded: each workload must then report failed operations and an
// incorrect run.
func TestGatesFireOnTamperedReference(t *testing.T) {
	for _, w := range workloads {
		e := tinyEnv(t, false)
		e.size.MaxOps = 2
		e.tamper = func(ref *[32]byte) { ref[0] ^= 0xff }
		results, err := runWorkloads(e, []workload{w})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if o := results[0]; o.Failed == 0 {
			t.Errorf("%s: tampered reference went unnoticed (%d ops attempted)", w.name, o.Attempted)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, tc.q); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestDeriveSeparatesSeeds(t *testing.T) {
	seen := make(map[uint64]bool)
	for seed := uint64(0); seed < 10; seed++ {
		for i := 0; i < 50; i++ {
			s := derive(seed, i)
			if seen[s] {
				t.Fatalf("derive(%d, %d) repeats a mission seed", seed, i)
			}
			seen[s] = true
		}
	}
}
