package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"icares"
	"icares/internal/record"
	"icares/internal/sociometry"
	"icares/internal/store"
)

// fingerprint identifies a simulated mission's output for the determinism
// gate: its record count and encoded size.
func fingerprint(m *icares.Mission) []byte {
	ds := m.Result().Dataset
	return []byte(fmt.Sprintf("%d records, %d bytes", ds.TotalRecords(), ds.EncodedBytes()))
}

// runSimulate: a closed loop of one client simulating short missions with
// seeds derived from the workload seed, one data day each. The set-up is
// a warm-up mission of the first seed; the first measured mission repeats
// that seed, and all of them must agree record for record (determinism
// gate).
func runSimulate(e *env) (*outcome, error) {
	o := &outcome{}
	opts := func(i int) icares.Options {
		return icares.Options{Seed: derive(e.seed, i), Days: simDays}
	}
	g := newGate(e.tamper)
	var ref *icares.Mission
	setups := e.setups()
	setup, wallSetup, err := timeSetups(setups, func() { ref = nil }, func() error {
		m, err := icares.Simulate(opts(0))
		if err != nil {
			return err
		}
		o.Attempted++
		if !g.check("seed0", fingerprint(m)) {
			o.fail("simulate: set-up missions of seed %d differ: %s", opts(0).Seed, fingerprint(m))
		}
		ref = m
		return nil
	})
	if err != nil {
		return nil, err
	}

	var records []int // per mission, warm-up included
	op := func(i int) error {
		m, err := icares.Simulate(opts(i))
		if err != nil {
			return err
		}
		o.Attempted++
		records = append(records, m.Result().Dataset.TotalRecords())
		if i == 0 && !g.check("seed0", fingerprint(m)) {
			o.fail("simulate: seed %d not deterministic: %s", opts(0).Seed, fingerprint(m))
		}
		return nil
	}
	measure := func(ph *phase, budget time.Duration) error {
		return closedLoop(ph, budget, e.size.MaxOps, op)
	}

	if e.trace {
		o.add("setup_s", setup, "s")
		base, err := tracedPair(e, o, "simulate", measure)
		if err != nil {
			return nil, err
		}
		emitRecordKinds(o, kindCounts(ref.Result().Dataset))
		emitStages(o, nil, nil, quantile(base.Lat, 0.5), 0)
		emitSeg(o, segStats{}, 0)
		emitFleetLayers(o, fleetLayers{})
		return o, nil
	}

	o.addN("setup_s", setup, "s", setups)
	o.addN("wall.setup_s", wallSetup, "s", setups)
	ph, err := measureUntraced(e.budget, measure)
	if err != nil {
		return nil, err
	}
	addPhase(o, ph)
	var measured int
	for _, n := range records[len(records)-ph.ops():] {
		measured += n
	}
	o.addN("records_per_s", float64(measured)/ph.busySeconds(), "1/s", ph.ops())
	addFailedFrac(o)
	return o, nil
}

// residentMission simulates the analysed mission and rectifies its clocks
// in place, as every resident report expects.
func residentMission(e *env) (*icares.Mission, error) {
	m, err := icares.Simulate(icares.Options{Seed: derive(e.seed, 0), Days: e.size.MissionDays})
	if err != nil {
		return nil, err
	}
	p, err := m.Pipeline(icares.TrueAssignment)
	if err != nil {
		return nil, err
	}
	if _, err := p.RectifyClocks(); err != nil {
		return nil, err
	}
	return m, nil
}

// runReportResident: a closed loop of one client rendering the Table I
// report from a fresh pipeline over one resident, rectified mission at the
// default parallelism. Every report must hash the same as the first.
func runReportResident(e *env) (*outcome, error) {
	o := &outcome{}
	var m *icares.Mission
	setups := e.setups()
	setup, wallSetup, err := timeSetups(setups, func() { m = nil }, func() error {
		var err error
		m, err = residentMission(e)
		return err
	})
	if err != nil {
		return nil, err
	}

	g := newGate(e.tamper)
	op := func(i int) error {
		p, err := m.Pipeline(icares.TrueAssignment)
		if err != nil {
			return err
		}
		o.Attempted++
		if !g.check("report", []byte(p.Report())) {
			o.fail("report_resident: report %d differs from the first", i)
		}
		return nil
	}
	measure := func(ph *phase, budget time.Duration) error {
		return closedLoop(ph, budget, e.size.MaxOps, op)
	}

	if e.trace {
		o.add("setup_s", setup, "s")
		base, err := tracedPair(e, o, "report_resident", measure)
		if err != nil {
			return nil, err
		}
		emitRecordKinds(o, kindCounts(m.Result().Dataset))
		stages, hist, err := timeStages(func() (*sociometry.Pipeline, func(), error) {
			p, err := m.Pipeline(icares.TrueAssignment)
			return p, func() {}, err
		})
		if err != nil {
			return nil, err
		}
		emitStages(o, stages, hist, quantile(base.Lat, 0.5), stagePasses)
		emitSeg(o, segStats{}, 0)
		emitFleetLayers(o, fleetLayers{})
		return o, nil
	}

	o.addN("setup_s", setup, "s", setups)
	o.addN("wall.setup_s", wallSetup, "s", setups)
	ph, err := measureUntraced(e.budget, measure)
	if err != nil {
		return nil, err
	}
	addPhase(o, ph)
	addFailedFrac(o)
	return o, nil
}

// runArchive: the same mission, archived and analysed out of core. Writes:
// the raw (unrectified) dataset saved into fresh directories for a share
// of the budget. Then the resident report is computed as the reference,
// the mission is dropped, and reads run for the rest of the budget: each
// opens the archive cold, builds the ground analyst's pipeline over it and
// renders the report, which must equal the resident one, with no corrupt
// blocks.
func runArchive(e *env) (*outcome, error) {
	o := &outcome{}
	var m *icares.Mission
	setups := e.setups()
	setup, wallSetup, err := timeSetups(setups, func() { m = nil }, func() error {
		var err error
		m, err = icares.Simulate(icares.Options{Seed: derive(e.seed, 0), Days: e.size.MissionDays})
		return err
	})
	if err != nil {
		return nil, err
	}

	// Writes, each into a fresh directory. The reads use the first
	// archive; the others are removed once the writes are timed.
	archive := filepath.Join(e.workdir, "archive-0")
	saves := beginPhase()
	saveBudget := time.Duration(float64(e.budget) * saveShare)
	if e.trace {
		saveBudget = 0 // one save: the archive the reads need
	}
	err = closedLoop(saves, saveBudget, e.size.MaxOps, func(i int) error {
		dir := filepath.Join(e.workdir, fmt.Sprintf("archive-%d", i))
		o.Attempted++
		if err := m.Result().Dataset.SaveSegments(dir); err != nil {
			o.fail("archive: save %d: %v", i, err)
		}
		return nil
	})
	saves.end()
	if err != nil {
		return nil, err
	}
	for i := 1; i < saves.ops(); i++ {
		if err := os.RemoveAll(filepath.Join(e.workdir, fmt.Sprintf("archive-%d", i))); err != nil {
			return nil, err
		}
	}

	// The reference: the resident report of the same mission.
	p, err := m.Pipeline(icares.TrueAssignment)
	if err != nil {
		return nil, err
	}
	g := newGate(e.tamper)
	g.check("report", []byte(p.Report()))
	var kinds map[record.Kind]int
	if e.trace {
		kinds = kindCounts(m.Result().Dataset)
	}
	m, p = nil, nil

	var corrupt int64
	op := func(i int) error {
		o.Attempted++
		ss, rep, err := store.OpenSegments(archive)
		if err != nil {
			o.fail("archive: open: %v", err)
			return nil
		}
		defer ss.Close()
		if !rep.Clean() {
			o.fail("archive: read %d: load report not clean", i)
		}
		ap, err := icares.ArchivePipeline(ss, 0, icares.TrueAssignment)
		if err != nil {
			return err
		}
		if !g.check("report", []byte(ap.Report())) {
			o.fail("archive: read %d: archive report differs from the resident report", i)
		}
		if n := ss.CorruptBlocks(); n != 0 {
			corrupt += n
			o.fail("archive: read %d: %d corrupt blocks", i, n)
		}
		return nil
	}
	readBudget := e.budget - saveBudget
	measure := func(ph *phase, budget time.Duration) error {
		return closedLoop(ph, budget, e.size.MaxOps, op)
	}

	if e.trace {
		o.add("setup_s", setup, "s")
		e.budget = readBudget
		base, err := tracedPair(e, o, "archive", measure)
		if err != nil {
			return nil, err
		}
		emitRecordKinds(o, kinds)
		stages, hist, err := timeStages(func() (*sociometry.Pipeline, func(), error) {
			ss, _, err := store.OpenSegments(archive)
			if err != nil {
				return nil, nil, err
			}
			p, err := icares.ArchivePipeline(ss, 0, icares.TrueAssignment)
			if err != nil {
				ss.Close()
				return nil, nil, err
			}
			return p, func() { ss.Close() }, nil
		})
		if err != nil {
			return nil, err
		}
		emitStages(o, stages, hist, quantile(base.Lat, 0.5), stagePasses)
		seg, scanned, indexed, err := scanSegments(archive)
		if err != nil {
			return nil, err
		}
		o.Attempted++
		if scanned != indexed {
			o.fail("archive: scan decoded %d records, the block indexes hold %d", scanned, indexed)
		}
		seg.ReadMBPerOp = base.perOp(float64(base.RChar) / mib)
		seg.CorruptBlocks = corrupt
		emitSeg(o, seg, base.ops())
		o.addN("save_p50_ms", quantile(saves.Norm, 0.5), "ms", saves.ops())
		emitFleetLayers(o, fleetLayers{})
		return o, nil
	}

	o.addN("setup_s", setup, "s", setups)
	o.addN("wall.setup_s", wallSetup, "s", setups)
	ph, err := measureUntraced(readBudget, measure)
	if err != nil {
		return nil, err
	}
	addPhase(o, ph)
	o.addN("save_p50_ms", quantile(saves.Norm, 0.5), "ms", saves.ops())
	o.addN("wall.save_p50_ms", quantile(saves.Lat, 0.5), "ms", saves.ops())
	o.addN("save_alloc_mb_per_op", saves.perOp(saves.AllocMB), "MB", saves.ops())
	addFailedFrac(o)
	return o, nil
}

// addFailedFrac prints failed operations over attempted ones.
func addFailedFrac(o *outcome) {
	var frac float64
	if o.Attempted > 0 {
		frac = float64(o.Failed) / float64(o.Attempted)
	}
	o.addN("failed_frac", frac, "frac", o.Attempted)
}
