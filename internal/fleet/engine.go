// Package fleet promotes habitatd from one mission engine to mission
// control as a backend: N concurrent habitats — each with its own seed,
// scenario, fault plan, clock domain, store, and live sociometric
// analytics — behind a stdlib HTTP API serving per-habitat and
// cross-fleet queries under heavy concurrent load.
//
// The SPHERE 100 Homes deployment is the template: the same badge/beacon
// pipeline replicated across ~100 dwellings is a fleet dataset, not a
// bigger single deployment. Correctness here is a fleet property, so the
// package's test battery pins the things single-habitat suites cannot
// see: per-habitat reports byte-identical to standalone runs, queries
// racing live ingest across habitats, and one frozen or panicking
// habitat never stalling the rest.
//
// # Isolation model
//
// Every habitat's mutable state (support daemon, its offload feed of
// uploaders and gateway, live analytics dataset) is owned by exactly one
// worker goroutine. Queries reach it as closures through a bounded work
// queue with per-request deadlines; ingest runs as interleaved steps on the
// same goroutine, so daemon state needs no locks and cannot be torn by
// a scrape. Panics — in a habitat's fault-plan-driven ingest or in a
// pathological query — are contained to that habitat: the worker marks
// itself failed (or fails the one query) and the fleet keeps serving.
package fleet

import (
	"fmt"
	"time"

	"icares"
	"icares/internal/faultplan"
	"icares/internal/support"
	"icares/internal/telemetry"
)

// HabitatConfig describes one habitat in the fleet.
type HabitatConfig struct {
	// ID names the habitat in the API (e.g. "hab-00"). Required, unique.
	ID string
	// Seed drives the habitat's mission; equal seeds give identical
	// habitats.
	Seed uint64
	// Days is the mission length (default 2: one acclimatization day
	// plus one data day).
	Days int
	// Tick is the habitat's simulation step (default 5 s). Each habitat
	// is its own clock domain: ticks, ingest steps, and fault windows
	// advance on the habitat-local simulated clock, never a shared one.
	Tick time.Duration
	// Faults optionally subjects the habitat's offload path and mission
	// to a deterministic fault schedule. Faults in one habitat must
	// never be observable from another — the isolation tests pin this.
	Faults *faultplan.Plan
}

func (c HabitatConfig) withDefaults() HabitatConfig {
	if c.Days == 0 {
		c.Days = 2
	}
	return c
}

// engine is the single-threaded core of one fleet habitat: a simulated
// mission whose dataset streams through the support system's offload feed
// (per-badge uploaders and a gateway) into a support daemon with live
// analytics. All methods must be called from one goroutine (the runner's
// worker); only snapshot() is additionally safe for concurrent callers.
type engine struct {
	id      string
	cfg     HabitatConfig
	reg     *telemetry.Registry // habitat-local registry
	journal *telemetry.Journal  // habitat-local flight recorder

	mission   *icares.Mission
	daemon    *support.Daemon
	analytics *support.Analytics
	feed      *support.Replayer // owns the habitat-local clock

	steps int

	// Fault-window edge detection: the engine samples the plan's point
	// queries each step and journals enter/exit transitions, so the
	// flight recorder carries the injected failure story as events even
	// though the plan itself is a pure schedule.
	inGatewayCrash, inBlackout, inRF bool

	// stepHook, when non-nil, runs at the start of every step with the
	// step ordinal — the seam the isolation battery uses to model a
	// habitat whose own pipeline blows up mid-ingest.
	stepHook func(step int)

	cIngested *telemetry.Counter
	gClock    *telemetry.Gauge
}

// newEngine simulates the habitat's mission and assembles its online
// path. It is CPU-heavy (a full mission simulation); the fleet builds
// engines concurrently, which is safe because engines share nothing.
func newEngine(id string, cfg HabitatConfig) (*engine, error) {
	cfg = cfg.withDefaults()
	reg := telemetry.NewRegistry()
	journal := telemetry.NewJournal(0)
	journal.SetHabitat(id)
	m, err := icares.Simulate(icares.Options{
		Seed:      cfg.Seed,
		Days:      cfg.Days,
		Tick:      cfg.Tick,
		Faults:    cfg.Faults,
		Telemetry: reg,
		Journal:   journal,
	})
	if err != nil {
		return nil, fmt.Errorf("habitat %s: %w", id, err)
	}

	e := &engine{
		id:      id,
		cfg:     cfg,
		reg:     reg,
		journal: journal,
		mission: m,
	}

	d, feed := m.SupportSystem()
	d.Instrument(reg)
	d.AttachJournal(journal)
	feed.Instrument(reg)
	feed.AttachJournal(journal)
	a, err := m.LiveAnalytics(d, icares.TrueAssignment)
	if err != nil {
		return nil, fmt.Errorf("habitat %s: analytics: %w", id, err)
	}
	e.daemon, e.analytics, e.feed = d, a, feed

	e.cIngested = reg.Counter("fleet_engine_records_ingested_total")
	e.gClock = reg.Gauge("fleet_engine_clock_seconds")
	return e, nil
}

// step advances the habitat's clock domain by one feed window, journaling
// the fault-window edges at its start and the ingest milestones around
// it. It returns how many records reached the daemon this step.
func (e *engine) step() int {
	if e.feed.Done() {
		return 0
	}
	e.steps++
	if e.steps == 1 {
		e.journal.Emit(e.feed.Now(), telemetry.SevInfo, "fleet", "ingest-start",
			"habitat ingest started",
			telemetry.Fi("records", e.feed.Records()),
			telemetry.Fi("badges", len(e.mission.Result().Dataset.Badges())))
	}
	if e.stepHook != nil {
		e.stepHook(e.steps)
	}
	e.noteFaults(e.feed.Now())
	n := e.feed.Step()
	e.cIngested.Add(uint64(n))
	e.gClock.Set(e.feed.Now().Seconds())
	if e.feed.Done() {
		if e.feed.Undelivered() > 0 {
			e.journal.Emit(e.feed.Now(), telemetry.SevWarn, "fleet", "ingest-undelivered",
				"ingest gave up on records past the drain grace",
				telemetry.Fi("undelivered", e.feed.Undelivered()))
		}
		e.journal.Emit(e.feed.Now(), telemetry.SevInfo, "fleet", "ingest-complete",
			"habitat ingest complete",
			telemetry.Fi("ingested", e.feed.Ingested()),
			telemetry.Fi("undelivered", e.feed.Undelivered()),
			telemetry.Fi("steps", e.steps))
	}
	return n
}

// noteFaults journals fault-plan window transitions at mission time now.
// The offload/uplink wrappers *apply* the faults; this records the story:
// each window's enter and exit become events on the habitat-local clock,
// so an investigator reading the black box sees "gateway crashed here"
// next to the refusals and backoffs it caused.
func (e *engine) noteFaults(now time.Duration) {
	p := e.cfg.Faults
	if p == nil {
		return
	}
	e.noteEdge(now, &e.inGatewayCrash, p.GatewayDown(now), telemetry.SevError,
		"gateway-crash", "fault plan crashed the offload gateway",
		"gateway-restore", "offload gateway back up")
	e.noteEdge(now, &e.inBlackout, p.UplinkDown(now), telemetry.SevWarn,
		"uplink-blackout", "fault plan blacked out the mission-control uplink",
		"uplink-restore", "mission-control uplink restored")
	e.noteEdge(now, &e.inRF, p.RFOut(now), telemetry.SevWarn,
		"rf-outage", "fault plan opened an RF outage window",
		"rf-restore", "RF outage window closed")
}

// noteEdge journals one fault window's transition: entering it (at sev)
// when down turns true, leaving it (at info) when down turns false.
func (e *engine) noteEdge(now time.Duration, in *bool, down bool, sev telemetry.EventSeverity,
	enterKind, enterMsg, exitKind, exitMsg string) {
	if down == *in {
		return
	}
	*in = down
	if down {
		e.journal.Emit(now, sev, "fleet", enterKind, enterMsg)
	} else {
		e.journal.Emit(now, telemetry.SevInfo, "fleet", exitKind, exitMsg)
	}
}

// run steps the engine to completion (test and property-check helper;
// the fleet runner interleaves steps with queries instead).
func (e *engine) run() {
	for !e.feed.Done() {
		e.step()
	}
}

// report returns the habitat's live sociometric report. Must run on the
// worker goroutine (it folds pending windows). The pipeline renders it
// once per fold generation, so a report between two ingest steps is a
// memo read of one shared string. The result for a completed habitat is
// byte-identical to the standalone batch report over the same seed,
// days, and tick.
func (e *engine) report() string {
	return e.analytics.Pipeline().Report()
}

// alerts copies the daemon's alert log (worker goroutine only).
func (e *engine) alerts() []support.Alert {
	return e.daemon.Alerts()
}

// snapshot answers the live analytics summary. Safe for concurrent use
// with a running worker: the analytics pipeline supports queries racing
// ingestion.
func (e *engine) snapshot() support.AnalyticsSnapshot {
	return e.analytics.Snapshot()
}
