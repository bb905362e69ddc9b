// Command benchdiff compares two sets of benchmark runs. Each file holds
// the metric lines of several runs ("workload metric value unit
// [n=samples]", as the benchmark prints them and appends with -out); the
// k-th value of a (workload, metric) pair in each file forms the k-th
// pair. For every pair it prints each side's median and quartiles, the
// pairs the new side won, and a verdict:
//
//	win         the new side won at least 9 of 10 pairs, and the medians
//	            differ, in the better direction, by more than the old
//	            side's interquartile range
//	worse       the same rule in the worse direction, within the bound
//	REGRESSION  the new median is worse than the old by more than the
//	            metric's bound in BENCHMARK.json
//	unresolved  the old side's own spread is wider than the bound
//	~           a difference inside the spread
//
// Metrics BENCHMARK.json does not declare have no direction and get no
// verdict. The exit status is 1 when any metric regressed.
//
//	go run ./benchdiff -config ../BENCHMARK.json old.txt new.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	config := fs.String("config", "BENCHMARK.json", "benchmark declaration giving each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-config BENCHMARK.json] old.txt new.txt")
		return 2
	}
	rules, err := loadRules(*config)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	old, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	cur, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	rows := compare(old, cur, rules)
	printRows(stdout, rows)
	for _, r := range rows {
		if r.Verdict == "REGRESSION" {
			return 1
		}
	}
	return 0
}

// rule is a declared metric's direction and, for end-to-end metrics, the
// share of the old median by which it may worsen.
type rule struct {
	HigherBetter bool
	Bound        float64 // 0: no bound (a per-layer metric)
}

func loadRules(path string) (map[string]rule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	rules := make(map[string]rule)
	for _, m := range decl.PerLayer {
		rules[m.Name] = rule{HigherBetter: m.Better == "higher"}
	}
	for _, m := range decl.EndToEnd {
		rules[m.Name] = rule{HigherBetter: m.Better == "higher", Bound: m.Bound}
	}
	return rules, nil
}

// key is one (workload, metric) pair.
type key struct {
	Workload, Metric string
}

// runs holds each pair's values in the order the runs appear, and the
// units seen.
type runs struct {
	Values map[key][]float64
	Units  map[key]string
}

// readRuns reads every metric line of a results file. Lines that are not
// metric lines (the JSON result line, logs) are skipped.
func readRuns(path string) (*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseRuns(f)
}

func parseRuns(r io.Reader) (*runs, error) {
	out := &runs{Values: make(map[key][]float64), Units: make(map[key]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || strings.HasPrefix(f[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		k := key{f[0], f[1]}
		out.Values[k] = append(out.Values[k], v)
		out.Units[k] = f[3]
	}
	return out, sc.Err()
}

// row is one compared (workload, metric).
type row struct {
	key
	Unit               string
	Old, New           [3]float64 // first quartile, median, third quartile
	Pairs, Wins, Loses int
	Verdict            string
}

// compare applies the pair rule to every pair present on both sides.
func compare(old, cur *runs, rules map[string]rule) []row {
	var rows []row
	for k, ov := range old.Values {
		nv, ok := cur.Values[k]
		if !ok {
			continue
		}
		r := row{key: k, Unit: old.Units[k], Old: quartiles(ov), New: quartiles(nv)}
		rl, declared := rules[k.Metric]
		dir := -1.0
		if rl.HigherBetter {
			dir = 1
		}
		for i := 0; i < len(ov) && i < len(nv); i++ {
			r.Pairs++
			switch d := (nv[i] - ov[i]) * dir; {
			case d > 0:
				r.Wins++
			case d < 0:
				r.Loses++
			}
		}
		if declared {
			r.Verdict = verdict(r, rl, dir)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return rows[i].Metric < rows[j].Metric
	})
	return rows
}

func verdict(r row, rl rule, dir float64) string {
	oldMed, newMed := r.Old[1], r.New[1]
	iqr := r.Old[2] - r.Old[0]
	gain := (newMed - oldMed) * dir // > 0: the new side is better
	clear := math.Abs(newMed-oldMed) > iqr
	switch {
	case rl.Bound > 0 && -gain > rl.Bound*math.Abs(oldMed):
		return "REGRESSION"
	case clear && gain > 0 && 10*r.Wins >= 9*r.Pairs:
		return "win"
	case clear && gain < 0 && 10*r.Loses >= 9*r.Pairs:
		return "worse"
	case rl.Bound > 0 && iqr > rl.Bound*math.Abs(oldMed):
		return "unresolved"
	}
	return "~"
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method), so spreads read the same as in any script using it.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func printRows(w io.Writer, rows []row) {
	tw := bufio.NewWriter(w)
	defer tw.Flush()
	fmt.Fprintf(tw, "%-16s %-34s %-8s %-34s %-34s %-7s %s\n",
		"workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "won", "verdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%-16s %-34s %-8s %-34s %-34s %-7s %s\n",
			r.Workload, r.Metric, r.Unit, span(r.Old), span(r.New),
			fmt.Sprintf("%d/%d", r.Wins, r.Pairs), r.Verdict)
	}
}

func span(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
