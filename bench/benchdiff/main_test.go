package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes ten runs of one report_resident metric line per value.
func writeRuns(t *testing.T, dir, name, metric string, values []float64) string {
	t.Helper()
	var b strings.Builder
	for _, v := range values {
		fmt.Fprintf(&b, "report_resident  %s  %g ms n=100\n", metric, v)
		b.WriteString(`{"correct": true, "attempted": 100, "failed": 0, "metrics": {}}` + "\n")
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeConfig(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "BENCHMARK.json")
	cfg := `{"end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
		"per_layer": [{"name": "cpu.store", "unit": "frac", "better": "lower"}]}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// spread returns ten values around base, alternating by up to ±2%.
func spread(base float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = base * (1 + 0.004*float64(i%5-2))
	}
	return out
}

func TestVerdicts(t *testing.T) {
	old := spread(100)
	cases := []struct {
		name    string
		new     []float64
		verdict string
		status  int
	}{
		{"clear win", spread(80), "win", 0},
		{"inside the spread", spread(100.2), "~", 0},
		{"slower within the bound", spread(105), "worse", 0},
		{"regression past the bound", spread(115), "REGRESSION", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := writeConfig(t, dir)
			a := writeRuns(t, dir, "old.txt", "op_p50_ms", old)
			b := writeRuns(t, dir, "new.txt", "op_p50_ms", tc.new)
			var out, errb bytes.Buffer
			status := run([]string{"-config", cfg, a, b}, &out, &errb)
			if status != tc.status {
				t.Fatalf("exit status %d, want %d\n%s%s", status, tc.status, out.String(), errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if len(lines) != 2 {
				t.Fatalf("want a header and one row, got:\n%s", out.String())
			}
			fields := strings.Fields(lines[1])
			if got := fields[len(fields)-1]; got != tc.verdict {
				t.Errorf("verdict %q, want %q:\n%s", got, tc.verdict, out.String())
			}
		})
	}
}

func TestUndeclaredMetricGetsNoVerdict(t *testing.T) {
	dir := t.TempDir()
	cfg := writeConfig(t, dir)
	a := writeRuns(t, dir, "old.txt", "api_p99_ms", spread(10))
	b := writeRuns(t, dir, "new.txt", "api_p99_ms", spread(20))
	var out, errb bytes.Buffer
	if status := run([]string{"-config", cfg, a, b}, &out, &errb); status != 0 {
		t.Fatalf("exit status %d: %s", status, errb.String())
	}
	row := strings.Fields(strings.Split(strings.TrimSpace(out.String()), "\n")[1])
	if last := row[len(row)-1]; last != "0/10" {
		t.Errorf("undeclared metric: last column %q, want the pair count and no verdict", last)
	}
}

func TestWinNeedsNineOfTenPairs(t *testing.T) {
	old := spread(100)
	cur := spread(80)
	// Two pairs lose: the medians still differ clearly, but the change
	// does not win nine tenths of the pairs.
	cur[0], cur[1] = 130, 130
	r := compare(&runs{Values: map[key][]float64{{"w", "op_p50_ms"}: old}},
		&runs{Values: map[key][]float64{{"w", "op_p50_ms"}: cur}},
		map[string]rule{"op_p50_ms": {Bound: 0.5}})
	if len(r) != 1 || r[0].Verdict != "~" || r[0].Wins != 8 {
		t.Fatalf("got %+v, want 8/10 wins and ~", r)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartiles([]float64{4, 1, 2}), [3]float64{1, 2, 4}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
