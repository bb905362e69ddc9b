package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"icares/internal/record"
	"icares/internal/sociometry"
	"icares/internal/store"
	"icares/internal/telemetry"
)

// Per-layer metrics come from a traced run: the workload's operation is
// measured untraced for half the budget, then traced for the other half
// (CPU profile on, allocations sampled finely), and the workload adds
// probes that time calls into each layer's public functions from here.
// Every per-layer metric BENCHMARK.json declares is emitted on every
// workload; a layer the workload does not run reads 0.

// layerPkgs are the repository packages with their own cpu.* and alloc.*
// shares. Other repository packages (the icares facade, faultplan,
// uplink, survey) share "other"; frames outside the repository with no
// repository caller go to "outside".
var layerPkgs = []string{
	// simulator
	"crew", "radio", "beacon", "badge", "record", "store", "stats", "geometry", "habitat", "mission", "simtime",
	// analysis
	"sociometry", "localization", "speech", "activity", "proximity", "timesync", "segment",
	// fleet service
	"fleet", "support", "telemetry", "offload",
	// the benchmark itself (load generator, loops)
	"bench",
}

// stageNames are the Table I report's analysis stages in dependency order.
// "open" makes the source ready: OpenSegments for an archive, the
// pipeline constructor for a resident dataset.
var stageNames = []string{
	"open", "rectify", "worn", "localize", "intervals", "speech",
	"activity", "proximity", "environment", "render",
}

// histStages are the labels of the pipeline's own
// sociometry_stage_seconds histograms.
var histStages = []string{"records", "worn", "track", "intervals", "frames", "activity"}

// tracedPair runs measure untraced for half the budget and traced for the
// other half, and emits the profile shares, the GC share and the tracing
// overhead. measure runs the workload's operations into the phase for the
// given time. The untraced phase is returned for the layer probes.
func tracedPair(e *env, o *outcome, name string, measure func(ph *phase, budget time.Duration) error) (*phase, error) {
	half := e.budget / 2
	base, err := measureUntraced(half, measure)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	allocBefore := allocByPackage()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	traced := beginPhase()
	err = measure(traced, half)
	traced.end()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	allocAfter := allocByPackage()

	cpuShare, samples, err := cpuShares(cpu.Bytes())
	if err != nil {
		return nil, err
	}
	if err := keepProfiles(filepath.Dir(e.workdir), name, cpu.Bytes()); err != nil {
		return nil, err
	}
	allocDelta := make(map[string]float64)
	for k, v := range allocAfter {
		if d := v - allocBefore[k]; d > 0 {
			allocDelta[k] = d
		}
	}
	emitShares(o, "cpu", cpuShare, 1, "frac", samples)
	emitShares(o, "alloc", shares(allocDelta), traced.perOp(traced.AllocMB), "MB", traced.ops())
	o.addN("op_p90_ms", quantile(base.Norm, 0.9), "ms", base.ops())
	o.add("gc.cpu_frac", base.GCFrac, "frac")
	overhead := quantile(traced.Norm, 0.5)/quantile(base.Norm, 0.5) - 1
	o.addN("trace_overhead_frac", overhead, "frac", base.ops()+traced.ops())
	return base, nil
}

// keepProfiles writes the traced phase's CPU profile and the allocation
// profile into dir for go tool pprof. dir is the work directory itself,
// which outlives the workload's own scratch directory.
func keepProfiles(dir, name string, cpu []byte) error {
	if err := os.WriteFile(filepath.Join(dir, name+".cpu.pprof"), cpu, 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".allocs.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emitShares emits one metric per layer package plus "other" and
// "outside", each share multiplied by scale.
func emitShares(o *outcome, prefix string, share map[string]float64, scale float64, unit string, n int) {
	rest := make(map[string]float64, len(share))
	for k, v := range share {
		rest[k] = v
	}
	for _, pkg := range layerPkgs {
		o.addN(prefix+"."+pkg, rest[pkg]*scale, unit, n)
		delete(rest, pkg)
	}
	outside := rest[outsideKey]
	delete(rest, outsideKey)
	var other float64
	for _, v := range rest {
		other += v
	}
	o.addN(prefix+".other", other*scale, unit, n)
	o.addN(prefix+"."+outsideKey, outside*scale, unit, n)
}

// emitRecordKinds emits the records of each kind in a record source.
func emitRecordKinds(o *outcome, counts map[record.Kind]int) {
	for k := record.KindAccel; k <= record.KindBattery; k++ {
		o.add("records."+k.String(), float64(counts[k]), "count")
	}
}

// kindCounts counts a source's records per kind by iterating every badge's
// view once per kind.
func kindCounts(src store.Viewer) map[record.Kind]int {
	out := make(map[record.Kind]int)
	for _, id := range src.Badges() {
		v, ok := src.View(id)
		if !ok {
			continue
		}
		for k := record.KindAccel; k <= record.KindBattery; k++ {
			it := v.Iter(math.MinInt64, math.MaxInt64, k)
			for b := it.NextBatch(); b != nil; b = it.NextBatch() {
				out[k] += len(b)
			}
		}
	}
	return out
}

// openFunc makes a fresh pipeline ready for a stage pass; close releases
// whatever it opened.
type openFunc func() (p *sociometry.Pipeline, close func(), err error)

// timeStages times the report's stages over stagePasses fresh pipelines and
// returns the median milliseconds per stage, plus the per-pass
// milliseconds the pipeline's own stage histograms recorded. Each pass
// runs at Parallelism 1 and calls the public methods in dependency order,
// each stage summing its calls over the whole crew; "render" is Report on
// the caches the earlier stages warmed.
func timeStages(open openFunc) (stages, hist map[string]float64, err error) {
	reg := telemetry.NewRegistry()
	perStage := make(map[string][]float64)
	for i := 0; i < stagePasses; i++ {
		start := time.Now()
		p, closeFn, err := open()
		if err != nil {
			return nil, nil, err
		}
		perStage["open"] = append(perStage["open"], ms(time.Since(start)))
		p.Parallelism = 1
		p.SetTelemetry(reg)
		names := p.Source().Names
		each := func(fn func(name string)) func() {
			return func() {
				for _, n := range names {
					fn(n)
				}
			}
		}
		steps := []struct {
			name string
			run  func()
		}{
			{"rectify", func() { _, _ = p.RectifyClocks() }},
			{"worn", each(func(n string) { p.WornRanges(n) })},
			{"localize", each(func(n string) { p.Track(n) })},
			{"intervals", each(func(n string) { p.Intervals(n) })},
			{"speech", each(func(n string) { p.Frames(n) })},
			{"activity", each(func(n string) { p.WalkingFraction(n) })},
			{"proximity", func() { p.Presence(); p.Pairwise() }},
			{"environment", func() { p.RoomClimates() }},
			{"render", func() { _ = p.Report() }},
		}
		for _, s := range steps {
			start := time.Now()
			s.run()
			perStage[s.name] = append(perStage[s.name], ms(time.Since(start)))
		}
		closeFn()
	}
	stages = make(map[string]float64, len(perStage))
	for name, xs := range perStage {
		stages[name] = quantile(xs, 0.5)
	}
	hist = make(map[string]float64, len(histStages))
	for _, s := range histStages {
		snap := reg.Histogram("sociometry_stage_seconds", telemetry.DefBuckets, telemetry.L("stage", s)).Snapshot()
		hist[s] = snap.Sum * 1000 / stagePasses
	}
	return stages, hist, nil
}

// emitStages emits each stage's share of the untraced report latency
// (declared), the stage milliseconds and histogram readings (printed
// only), and the coverage: the stages' sum over the report latency. nil
// stages (a workload without a report) read 0.
func emitStages(o *outcome, stages, hist map[string]float64, opP50 float64, passes int) {
	var sum float64
	for _, s := range stageNames {
		sum += stages[s]
	}
	for _, s := range stageNames {
		var frac float64
		if stages != nil {
			frac = stages[s] / opP50
			o.addN("stage."+s+"_ms", stages[s], "ms", passes)
		}
		o.addN("stage."+s+"_frac", frac, "frac", passes)
	}
	var coverage float64
	if stages != nil {
		coverage = sum / opP50
	}
	o.addN("stage.coverage", coverage, "frac", passes)
	for _, s := range histStages {
		if hist != nil {
			o.addN("stage_hist."+s+"_ms", hist[s], "ms", passes)
		}
	}
}

// segStats are the segment store's layer metrics.
type segStats struct {
	ScanMRecPerS  float64 // decode throughput over every badge and kind of a fresh store
	ReadMBPerOp   float64 // rchar bytes per archive report
	OnDiskMB      float64
	CorruptBlocks int64
}

func emitSeg(o *outcome, s segStats, ops int) {
	o.add("seg.scan_mrec_per_s", s.ScanMRecPerS, "Mrec/s")
	o.addN("seg.read_mb_per_op", s.ReadMBPerOp, "MB", ops)
	o.add("seg.bytes_on_disk_mb", s.OnDiskMB, "MB")
	o.add("seg.corrupt_blocks", float64(s.CorruptBlocks), "count")
}

// scanSegments opens the archive afresh and decodes every badge's records
// kind by kind. It returns the decode throughput and size on disk, the
// records decoded, and the record count the block indexes give, which the
// scan must match.
func scanSegments(dir string) (s segStats, scanned, indexed int, err error) {
	ss, rep, err := store.OpenSegments(dir)
	if err != nil {
		return s, 0, 0, err
	}
	defer ss.Close()
	if !rep.Clean() {
		return s, 0, 0, fmt.Errorf("archive %s does not load cleanly", dir)
	}
	start := time.Now()
	counts := kindCounts(ss)
	elapsed := time.Since(start)
	for _, n := range counts {
		scanned += n
	}
	s.ScanMRecPerS = float64(scanned) / elapsed.Seconds() / 1e6
	s.OnDiskMB = float64(ss.BytesOnDisk()) / mib
	return s, scanned, ss.TotalRecords(), nil
}
