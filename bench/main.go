// Command bench is the repository benchmark. It runs four workloads —
// simulate, report_resident, archive and fleet_api (see README.md for
// what each measures and why) — checks that their outputs are correct,
// prints every metric as "workload metric value unit [n=samples]", and
// ends with one JSON line:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}
//
// The JSON line carries the metrics BENCHMARK.json declares: the
// end-to-end list for an untraced run (-trace 0), the per-layer list for
// a traced run (-trace 1). Run it from the repository root through
// bench/run.sh, which builds it:
//
//	bash bench/run.sh -workload archive -seed 3 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"simulate", runSimulate},
	{"report_resident", runReportResident},
	{"archive", runArchive},
	{"fleet_api", runFleetAPI},
}

// env is what a workload run is given: its seed, its measuring budget, the
// sizes of its inputs, and whether this is the traced run.
type env struct {
	seed    uint64
	budget  time.Duration
	trace   bool
	workdir string
	size    sizes
	log     io.Writer
	// tamper alters every correctness reference as it is recorded; nil
	// outside the gate tests.
	tamper func(ref *[32]byte)
}

// setups is how many set-ups a run times: one on a traced run, which
// reports no set-up metric.
func (e *env) setups() int {
	if e.trace {
		return 1
	}
	return e.size.Setups
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// sizes scales the workloads' inputs. defaultSizes is the benchmark; the
// smoke test shrinks it.
type sizes struct {
	Setups      int       // set-ups per untraced run; setup_s is their median
	MissionDays int       // report_resident, archive: mission length in days
	Habitats    int       // fleet_api: habitats in the fleet
	HabitatDays int       // fleet_api: mission length per habitat
	Rates       []float64 // fleet_api: offered request rates, req/s
	RefRate     float64   // fleet_api: the rate the end-to-end latencies are read at
	MaxOps      int       // cap on operations per closed loop (0: none)
}

// Inputs the smoke test runs at full size.
const (
	simDays     = 2           // simulate: mission length in days; day 1 holds no data
	saveShare   = 0.25        // archive: share of the budget spent saving
	habitatTick = time.Minute // fleet_api: simulation step per habitat
	stagePasses = 3           // traced report runs: stage passes, the median reported
)

var defaultSizes = sizes{
	Setups:      3,
	MissionDays: 5,
	Habitats:    4,
	HabitatDays: 3,
	Rates:       []float64{250, 500, 1000, 2000},
	RefRate:     500,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "comma-separated workloads to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed; every mission seed is derived from it")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := fs.String("out", "", "also append the metric lines to this file")
	workdir := fs.String("workdir", ".bench_build/work", "directory for archives and profiles")
	config := fs.String("config", "BENCHMARK.json", "benchmark declaration listing the JSON line's metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: bench [-workload names] [-seed n] [-seconds s] [-trace 0|1] [-out file]")
		return 2
	}
	decl, err := loadDeclaration(*config)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *trace == 1 {
		// Finer allocation sampling for the per-package split; set before
		// the workloads allocate anything.
		runtime.MemProfileRate = 64 << 10
	}
	e := &env{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workdir: *workdir,
		size:    defaultSizes,
		log:     stderr,
	}
	results, err := runWorkloads(e, selected)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, correct, err := report(results, decl, e.trace, stdout, *out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !correct {
		return 3
	}
	return 0
}

func selectWorkloads(spec string) ([]workload, error) {
	if spec == "all" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(spec, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// runWorkloads runs each workload in turn, in its own scratch directory
// under the work directory, removed afterwards.
func runWorkloads(e *env, selected []workload) ([]*outcome, error) {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return nil, err
	}
	var results []*outcome
	for _, w := range selected {
		dir, err := os.MkdirTemp(e.workdir, w.name+"-")
		if err != nil {
			return nil, err
		}
		we := *e
		we.workdir = dir
		start := time.Now()
		o, err := w.run(&we)
		if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
			err = rmErr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		o.Workload = w.name
		e.logf("%s: %d ops, %d failed, %.1f s", w.name, o.Attempted, o.Failed, time.Since(start).Seconds())
		for _, p := range o.Problems {
			e.logf("%s: FAILED: %s", w.name, p)
		}
		results = append(results, o)
	}
	return results, nil
}

// declaration is the part of BENCHMARK.json the program reads: which
// metrics go on the JSON line, with their units.
type declaration struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read declaration: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return &d, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints every metric line (and appends them to outPath when set)
// and builds the final JSON line from the declared metrics. A declared
// metric that a workload did not produce, or produced with another unit or
// a non-finite value, is an error: the line would misreport the run.
func report(results []*outcome, decl *declaration, traced bool, w io.Writer, outPath string) (string, bool, error) {
	var lines strings.Builder
	for _, o := range results {
		for _, m := range o.Metrics {
			fmt.Fprintf(&lines, "%-16s %-34s %.6g %s", o.Workload, m.Name, m.Value, m.Unit)
			if m.N > 0 {
				fmt.Fprintf(&lines, " n=%d", m.N)
			}
			lines.WriteByte('\n')
		}
	}
	if _, err := io.WriteString(w, lines.String()); err != nil {
		return "", false, err
	}
	if outPath != "" {
		if err := appendFile(outPath, lines.String()); err != nil {
			return "", false, err
		}
	}

	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	res := jsonResult{Metrics: make(map[string]jsonMetric)}
	for _, o := range results {
		res.Attempted += o.Attempted
		res.Failed += o.Failed
		for _, d := range want {
			m, ok := o.lookup(d.Name)
			switch {
			case !ok:
				return "", false, fmt.Errorf("%s: declared metric %s not produced", o.Workload, d.Name)
			case m.Unit != d.Unit:
				return "", false, fmt.Errorf("%s: metric %s in %s, declared in %s", o.Workload, d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				return "", false, fmt.Errorf("%s: metric %s is %v", o.Workload, d.Name, m.Value)
			}
			key := d.Name
			if len(results) > 1 {
				key = o.Workload + "." + d.Name
			}
			res.Metrics[key] = jsonMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	if res.Attempted == 0 {
		return "", false, errors.New("no operations attempted")
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return "", false, err
	}
	return string(line), res.Correct, nil
}

func appendFile(path, text string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(text); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
