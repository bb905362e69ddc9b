package icares

// The benchmark harness regenerates every table and figure of the paper's
// evaluation from one shared full-mission dataset, and adds ablation
// benchmarks for the design choices DESIGN.md calls out (the 10 s dwell
// filter, metal-wall shielding, clock rectification, the 60 dB / 20%
// speech thresholds, and the nominal-vs-true badge assignment).
//
// Shape metrics are reported via b.ReportMetric so `go test -bench` output
// doubles as the reproduction record consumed by EXPERIMENTS.md.

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"icares/internal/habitat"
	"icares/internal/localization"
	"icares/internal/mission"
	"icares/internal/proximity"
	"icares/internal/radio"
	"icares/internal/record"
	"icares/internal/sociometry"
	"icares/internal/speech"
	"icares/internal/stats"
	"icares/internal/store"
)

// The full 14-day mission is expensive (~45 s); build it once and share it
// across benchmarks.
var (
	benchOnce sync.Once
	benchM    *Mission
	benchPipe *sociometry.Pipeline
	benchErr  error
)

func benchSetup(b *testing.B) (*Mission, *sociometry.Pipeline) {
	b.Helper()
	benchOnce.Do(func() {
		benchM, benchErr = Simulate(Options{Seed: 42})
		if benchErr != nil {
			return
		}
		benchPipe, benchErr = benchM.Pipeline(TrueAssignment)
		if benchErr != nil {
			return
		}
		_, benchErr = benchPipe.RectifyClocks()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchM, benchPipe
}

// BenchmarkFig2TransitionMatrix regenerates the room-passage matrix.
func BenchmarkFig2TransitionMatrix(b *testing.B) {
	_, p := benchSetup(b)
	var m sociometry.TransitionMatrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = p.Transitions(nil)
	}
	b.StopTimer()
	ko := m.At(habitat.Kitchen, habitat.Office) + m.At(habitat.Office, habitat.Kitchen)
	b.ReportMetric(float64(m.Total()), "passages")
	b.ReportMetric(float64(ko), "kitchen-office")
	top := m.TopPairs(1)
	if len(top) == 0 {
		b.Fatal("empty matrix")
	}
	pair := top[0]
	isKO := (pair[0] == habitat.Kitchen && pair[1] == habitat.Office) ||
		(pair[0] == habitat.Office && pair[1] == habitat.Kitchen)
	if !isKO {
		b.Logf("top pair is %v->%v, expected kitchen<->office", pair[0], pair[1])
	}
}

// BenchmarkFig3Heatmap regenerates astronaut A's 28 cm heatmap.
func BenchmarkFig3Heatmap(b *testing.B) {
	_, p := benchSetup(b)
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid, err := p.Heatmap("A", 0)
		if err != nil {
			b.Fatal(err)
		}
		total = grid.LogScaled().Total()
	}
	b.StopTimer()
	b.ReportMetric(total, "log-dwell")
}

// BenchmarkFig4Walking regenerates the per-day walking fractions.
func BenchmarkFig4Walking(b *testing.B) {
	m, p := benchSetup(b)
	var byName map[string]map[int]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		byName = make(map[string]map[int]float64)
		for _, n := range m.Names() {
			byName[n] = p.WalkingByDay(n)
		}
	}
	b.StopTimer()
	// Shape: A lowest, {D,F} > {B,E} on the mission mean.
	mean := func(n string) float64 {
		var s float64
		var c int
		for _, v := range byName[n] {
			s += v
			c++
		}
		if c == 0 {
			return 0
		}
		return s / float64(c)
	}
	b.ReportMetric(mean("A"), "walkA")
	b.ReportMetric(mean("D"), "walkD")
	b.ReportMetric(mean("E"), "walkE")
	if !(mean("A") < mean("E") && mean("D") > mean("B")) {
		b.Logf("walking ordering: A=%.3f B=%.3f D=%.3f E=%.3f F=%.3f",
			mean("A"), mean("B"), mean("D"), mean("E"), mean("F"))
	}
}

// BenchmarkFig5Timeline regenerates the day-4 timeline and the consolation
// detection.
func BenchmarkFig5Timeline(b *testing.B) {
	_, p := benchSetup(b)
	present := []string{"A", "B", "D", "E", "F"}
	var found bool
	var quieter bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Timeline(4, 5*time.Minute)
		f, ok := p.FindConsolation(4, present)
		found = ok
		quieter = ok && f.QuieterThanLunch
	}
	b.StopTimer()
	b.ReportMetric(boolMetric(found), "consolation-found")
	b.ReportMetric(boolMetric(quieter), "quieter-than-lunch")
}

// BenchmarkFig6Speech regenerates the per-day speech fractions.
func BenchmarkFig6Speech(b *testing.B) {
	m, p := benchSetup(b)
	var slope, tau float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range m.Names() {
			_ = p.SpeechByDay(n)
		}
		slope, tau = p.SpeechTrend()
	}
	b.StopTimer()
	b.ReportMetric(slope, "slope-per-day")
	b.ReportMetric(tau, "mann-kendall-tau")
}

// BenchmarkTableICentrality regenerates the centrality table.
func BenchmarkTableICentrality(b *testing.B) {
	_, p := benchSetup(b)
	var rows []sociometry.TableIRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = p.TableI()
	}
	b.StopTimer()
	for _, r := range rows {
		switch r.Name {
		case "C":
			b.ReportMetric(boolMetric(math.IsNaN(r.Company)), "C-company-na")
			b.ReportMetric(r.Talking, "C-talking")
		case "B":
			b.ReportMetric(r.Company, "B-company")
		}
	}
}

// BenchmarkMissionStats regenerates the headline wear/stay/pairwise
// statistics.
func BenchmarkMissionStats(b *testing.B) {
	_, p := benchSetup(b)
	var wear sociometry.WearStats
	var pw sociometry.PairwiseReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wear = p.Wear()
		pw = p.Pairwise()
		_ = p.Stays(30 * time.Minute)
	}
	b.StopTimer()
	af := proximity.MakePair("A", "F")
	de := proximity.MakePair("D", "E")
	b.ReportMetric(wear.WornFraction, "worn-fraction")
	b.ReportMetric(pw.All[af].Hours()-pw.All[de].Hours(), "AF-DE-gap-hours")
}

// BenchmarkAblationDwellFilter compares Fig. 2 with and without the 10 s
// dwell filter (paper footnote 1: suppressing beacon bleed-through). The
// unfiltered matrix comes from a second pipeline over the same mission.
func BenchmarkAblationDwellFilter(b *testing.B) {
	m, p := benchSetup(b)
	raw, err := m.Pipeline(TrueAssignment, sociometry.WithMinDwell(0))
	if err != nil {
		b.Fatal(err)
	}
	p.Warm()
	raw.Warm()
	var with, without int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with = p.Transitions(nil).Total()
		without = raw.Transitions(nil).Total()
	}
	b.StopTimer()
	b.ReportMetric(float64(with), "passages-filtered")
	b.ReportMetric(float64(without), "passages-raw")
	if without < with {
		b.Log("dwell filter removed nothing: bleed-through not exercised")
	}
}

// BenchmarkAblationShielding compares room-detection accuracy with the
// metal-wall model against a free-space model (WallFactor 0).
func BenchmarkAblationShielding(b *testing.B) {
	hab := habitat.Standard()
	rng := stats.NewRNG(99)
	loc, err := localization.NewLocator(hab)
	if err != nil {
		b.Fatal(err)
	}
	shielded, err := radio.NewChannel(hab, radio.BLE24, rng.Split())
	if err != nil {
		b.Fatal(err)
	}
	open := radio.ProfileFor(radio.BLE24)
	open.WallFactor = 0
	free, err := radio.NewChannelWithProfile(hab, open, rng.Split())
	if err != nil {
		b.Fatal(err)
	}
	sites := hab.Beacons()
	// Each probe is one scan window of beacon records, located by the same
	// TrackCursor pass the pipeline runs.
	accuracy := func(ch *radio.Channel) float64 {
		var recs []record.Record
		truth := make(map[time.Duration]habitat.RoomID)
		probe := rng.Split()
		for i := 0; i < 500; i++ {
			ids := hab.RoomIDs()
			room := ids[probe.Intn(len(ids))]
			pos, err := hab.RandomPointIn(room, 0.5, probe)
			if err != nil {
				continue
			}
			at := time.Duration(i) * time.Minute
			for _, s := range sites {
				if tr := ch.Transmit(s.Pos, pos, 0); tr.Received {
					recs = append(recs, record.NewBeacon(at, uint16(s.ID), float32(tr.RSSI)))
				}
			}
			truth[at] = room
		}
		c := record.NewCursor(recs)
		fixes := loc.TrackCursor(nil, &c, time.Minute, record.RangeSet{{From: math.MinInt64, To: math.MaxInt64}})
		if len(fixes) == 0 {
			return 0
		}
		correct := 0
		for _, fix := range fixes {
			if fix.Room == truth[fix.At] {
				correct++
			}
		}
		return float64(correct) / float64(len(fixes))
	}
	var accShielded, accFree float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accShielded = accuracy(shielded)
		accFree = accuracy(free)
	}
	b.StopTimer()
	b.ReportMetric(accShielded, "room-acc-shielded")
	b.ReportMetric(accFree, "room-acc-freespace")
	if accShielded <= accFree {
		b.Log("shielding did not improve room detection")
	}
}

// BenchmarkAblationTimesync compares cross-badge analyses on rectified vs
// raw (skewed) clocks. Badge crystals at ~20 ppm accumulate tens of
// seconds over the mission, which breaks the 15 s cross-badge
// deduplication of infrared contacts: both badges record the same contact
// but their timestamps land in different slots, double-counting
// face-to-face time. Rectification restores the agreement.
func BenchmarkAblationTimesync(b *testing.B) {
	const days = 9
	// Both arms read one raw dataset: the rectified arm fits corrections,
	// the raw-clock arm passes none. The simulation runs outside the timer
	// — the benchmark measures the analysis under each clock regime, not
	// the simulator.
	m, err := Simulate(Options{Seed: 77, Days: days})
	if err != nil {
		b.Fatal(err)
	}
	pRect, err := m.Pipeline(TrueAssignment)
	if err != nil {
		b.Fatal(err)
	}
	pRaw, err := m.Pipeline(TrueAssignment, sociometry.WithCorrections(nil))
	if err != nil {
		b.Fatal(err)
	}
	// Warm both arms outside the timer (rectification included): the lane
	// measures the cost of answering the ablation query against a folded
	// pipeline, the steady state of the incremental operators.
	pRect.Warm()
	pRaw.Warm()
	irHours := func(p *sociometry.Pipeline) float64 {
		var total time.Duration
		for _, d := range p.Pairwise().IR {
			total += d
		}
		return total.Hours()
	}
	var rectified, raw float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rectified = irHours(pRect)
		raw = irHours(pRaw)
	}
	b.StopTimer()
	b.ReportMetric(rectified, "ir-hours-rectified")
	b.ReportMetric(raw, "ir-hours-raw-clocks")
	if raw <= rectified {
		b.Log("raw clocks did not inflate IR time; skew too small to matter")
	}
}

// BenchmarkAblationSpeechThreshold sweeps the 60 dB / 20% boundary values
// the paper "determined experimentally".
func BenchmarkAblationSpeechThreshold(b *testing.B) {
	m, p := benchSetup(b)
	configs := []speech.Config{
		{MinLoudDB: 50, MinFraction: 0.1},
		{MinLoudDB: 60, MinFraction: 0.2}, // the paper's values
		{MinLoudDB: 70, MinFraction: 0.4},
	}
	means := make([]float64, len(configs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci, cfg := range configs {
			var sum float64
			var n int
			for _, name := range m.Names() {
				c := record.NewCursor(p.RecordsFor(name))
				frames := speech.FramesCursor(nil, &c, cfg, p.WornRanges(name))
				sum += speech.Fraction(frames)
				n++
			}
			means[ci] = sum / float64(n)
		}
	}
	b.StopTimer()
	b.ReportMetric(means[0], "frac-loose")
	b.ReportMetric(means[1], "frac-paper")
	b.ReportMetric(means[2], "frac-strict")
	if !(means[0] >= means[1] && means[1] >= means[2]) {
		b.Fatalf("threshold sweep not monotone: %v", means)
	}
}

// BenchmarkAblationAssignment measures the swap-day confusion: under the
// nominal one-owner assignment, A's day-6 mobility is actually B's.
func BenchmarkAblationAssignment(b *testing.B) {
	m, pTrue := benchSetup(b)
	pNominal, err := m.Pipeline(NominalAssignment)
	if err != nil {
		b.Fatal(err)
	}
	swapDay := m.Result().Assignment.SwapDay
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trueA := pTrue.WalkingByDay("A")[swapDay]
		nomA := pNominal.WalkingByDay("A")[swapDay]
		gap = nomA - trueA
	}
	b.StopTimer()
	b.ReportMetric(gap, "swap-day-walk-gap")
}

// benchReport measures the full Report over a fresh pipeline (cold memo
// caches, shared rectified dataset) at the given fan-out width — the
// end-to-end cost of the complete analysis suite.
func benchReport(b *testing.B, parallelism int) {
	m, _ := benchSetup(b)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := m.Pipeline(TrueAssignment)
		if err != nil {
			b.Fatal(err)
		}
		p.Parallelism = parallelism
		n = len(p.Report())
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "report-bytes")
}

// BenchmarkReportSequential is the single-worker baseline for the fan-out
// speedup comparison.
func BenchmarkReportSequential(b *testing.B) { benchReport(b, 1) }

// BenchmarkReportParallel runs the crew fan-out at the default
// runtime.NumCPU() width; compare ns/op against BenchmarkReportSequential.
func BenchmarkReportParallel(b *testing.B) { benchReport(b, 0) }

// BenchmarkIncrementalFold measures the streaming path: a following
// pipeline over a live dataset that already holds all but the last mission
// day, folding 15-minute batches of the remaining records in as they
// arrive. Each op appends one batch and re-queries the transition matrix
// and a walking fraction — with window-scoped invalidation only the
// touched (astronaut, day) windows recompute. The "rebuild" arm answers the
// same queries by building a cold pipeline per op, the cost the fold
// replaces.
func BenchmarkIncrementalFold(b *testing.B) {
	const days = 6
	m, err := Simulate(Options{Seed: 99, Days: days})
	if err != nil {
		b.Fatal(err)
	}
	res := m.Result()
	cut := time.Duration(days-1) * 24 * time.Hour

	type arrival struct {
		id  store.BadgeID
		rec record.Record
	}
	live := store.NewDataset()
	var tail []arrival
	for _, id := range res.Dataset.Badges() {
		s := live.Series(id)
		for _, r := range res.Dataset.Series(id).All() {
			if r.Local < cut {
				s.Append(r)
			} else {
				tail = append(tail, arrival{id, r})
			}
		}
	}
	// Deliver the held-back records in global timestamp order, like the
	// offload gateway would, grouped into 15-minute batches.
	sort.SliceStable(tail, func(i, j int) bool {
		return tail[i].rec.Local < tail[j].rec.Local
	})
	var batches [][]arrival
	for i := 0; i < len(tail); {
		j := i
		slot := tail[i].rec.Local / (15 * time.Minute)
		for j < len(tail) && tail[j].rec.Local/(15*time.Minute) == slot {
			j++
		}
		batches = append(batches, tail[i:j])
		i = j
	}
	if len(batches) == 0 {
		b.Fatal("no held-back records")
	}

	src := sociometry.Source{
		Habitat:       res.Habitat,
		Data:          live,
		Names:         m.Names(),
		BadgeFor:      res.Assignment.TrueBadgeFor,
		VoiceProfiles: m.VoiceProfiles(),
		FirstDay:      mission.FirstDataDay,
		LastDay:       days,
	}
	query := func(p *sociometry.Pipeline) int {
		n := p.Transitions(nil).Total()
		for _, name := range src.Names {
			_ = p.WalkingFraction(name)
		}
		return n
	}

	var total int
	b.Run("fold", func(b *testing.B) {
		p, err := sociometry.NewPipeline(src)
		if err != nil {
			b.Fatal(err)
		}
		stop := p.Follow()
		defer stop()
		// NewPipeline fitted the clock corrections over the records live
		// held before the tail; the warm-up fills every window outside
		// the timer.
		p.Warm()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range batches[i%len(batches)] {
				live.Series(a.id).Append(a.rec)
			}
			total = query(p)
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := sociometry.NewPipeline(src)
			if err != nil {
				b.Fatal(err)
			}
			total = query(p)
		}
	})
	_ = total
}

// BenchmarkMissionSimulation measures the simulator itself on a 1-day run.
func BenchmarkMissionSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := Simulate(Options{Seed: uint64(i), Days: 2})
		if err != nil {
			b.Fatal(err)
		}
		_ = m.Result().Dataset.TotalRecords()
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
