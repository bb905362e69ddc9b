package main

import (
	"bytes"
	"math"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"icares/internal/stats"
)

func TestPkgKey(t *testing.T) {
	cases := []struct {
		fn   string
		key  string
		repo bool
	}{
		{"icares/internal/crew.(*Engine).Step", "crew", true},
		{"icares/internal/sociometry.(*memo[go.shape.struct { name string; day int },go.shape.[]icares/internal/localization.Fix]).get", "sociometry", true},
		{"icares/internal/sociometry.forEach[...].func1", "sociometry", true},
		{"icares/internal/fleet.(*Fleet).FleetAlerts.func1", "fleet", true},
		{"icares.Simulate", "icares", true},
		{"icares/bench.runSimulate", "bench", true},
		{"icares/bench/benchdiff.compare", "bench", true},
		{"icares/cmd/icares.main", "icares", true},
		{"runtime.mallocgc", "", false},
		{"encoding/json.(*encodeState).marshal", "", false},
		{"type:.eq.icares/internal/record.Record", "", false},
	}
	for _, tc := range cases {
		key, ok := pkgKey(tc.fn)
		if key != tc.key || ok != tc.repo {
			t.Errorf("pkgKey(%q) = %q, %v; want %q, %v", tc.fn, key, ok, tc.key, tc.repo)
		}
	}
}

// spin keeps a repository package's function on the CPU for d.
func spin(d time.Duration) (sink int) {
	xs := make([]float64, 1500)
	for i := range xs {
		xs[i] = float64((i * 7919) % 1000)
	}
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		s, _, _ := stats.MannKendall(xs)
		sink += s
	}
	return sink
}

func TestCPUSharesAttributeSpinningPackage(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime samples have no Go caller to attribute")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable (already profiling?): %v", err)
	}
	spin(time.Second)
	pprof.StopCPUProfile()

	share, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples < 20 {
		t.Fatalf("only %d samples in a one-second spin", samples)
	}
	var sum float64
	for _, v := range share {
		sum += v
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if share["stats"] < 0.8 {
		t.Errorf("stats got %.2f of %d samples, want >= 0.8: %v", share["stats"], samples, share)
	}
}

func TestAllocByPackageAttributesAllocatingPackage(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 4 << 10
	defer func() { runtime.MemProfileRate = old }()

	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64(i)
	}
	runtime.GC()
	before := allocByPackage()
	var keep [][]float64
	for i := 0; i < 512; i++ { // 512 × 32 KiB
		keep = append(keep, stats.Normalize(xs))
	}
	runtime.GC()
	after := allocByPackage()
	runtime.KeepAlive(keep)

	delta := make(map[string]float64)
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			delta[k] = d
		}
	}
	share := shares(delta)
	if share["stats"] < 0.8 {
		t.Errorf("stats got %.2f of the allocations, want >= 0.8: %v", share["stats"], share)
	}
	// The estimate is unbiased: 16 MiB allocated, read back within 25%.
	if got := delta["stats"] / mib; got < 12 || got > 20 {
		t.Errorf("stats allocated %.1f MiB by the profile, want about 16", got)
	}
}

func TestEachFieldRejectsTruncatedInput(t *testing.T) {
	// Field 2, length-delimited, claims 5 bytes but carries 2.
	err := eachField([]byte{0x12, 0x05, 0x01, 0x02}, func(int, int, uint64, []byte) error { return nil })
	if err == nil {
		t.Fatal("truncated message decoded without error")
	}
}
