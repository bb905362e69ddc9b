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
// Every habitat's mutable state (support daemon, offload gateway,
// uploaders, live analytics dataset) is owned by exactly one worker
// goroutine. Queries reach it as closures through a bounded work queue
// with per-request deadlines; ingest runs as interleaved steps on the
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
	"icares/internal/offload"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/sociometry"
	"icares/internal/store"
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
	// View selects the analytics' badge-to-astronaut mapping (default
	// TrueAssignment).
	View icares.AssignmentView
}

func (c HabitatConfig) withDefaults() HabitatConfig {
	if c.Days == 0 {
		c.Days = 2
	}
	if c.View == 0 {
		c.View = icares.TrueAssignment
	}
	return c
}

// ingestStep is the habitat-local clock advance per engine step: records
// timestamped inside the window are enqueued on their badge's uploader,
// every uploader gets one flush round at the window's start, and the
// records the gateway releases are applied to the daemon.
const ingestStep = time.Minute

// drainGrace is how long past the mission horizon an engine keeps
// flushing before declaring leftover batches undeliverable. It exceeds
// every fault-plan window and the uploader's maximum backoff.
const drainGrace = 24 * time.Hour

// engine is the single-threaded core of one fleet habitat: a simulated
// mission whose dataset streams through per-badge uploaders and an
// offload gateway into a support daemon with live analytics. All methods
// must be called from one goroutine (the runner's worker); only
// snapshot() is additionally safe for concurrent callers.
type engine struct {
	id      string
	cfg     HabitatConfig
	reg     *telemetry.Registry // habitat-local registry
	journal *telemetry.Journal  // habitat-local flight recorder

	mission   *icares.Mission
	daemon    *support.Daemon
	analytics *support.Analytics
	gateway   *offload.Gateway
	uploaders []*offload.Uploader // sorted by badge ID
	transport offload.Transport

	// unfed[i] is what uploaders[i]'s badge has not yet enqueued: a
	// zero-copy, time-ordered view of its SD-card series up to the horizon.
	unfed   [][]record.Record
	records int           // the whole feed's size
	now     time.Duration // habitat-local clock
	horizon time.Duration

	// staged collects the batches the gateway sink released during the
	// current flush round, applied to the daemon in release order.
	staged []offload.Batch

	ingested    int
	undelivered int
	steps       int
	done        bool

	// Fault-window edge detection: the engine samples the plan's point
	// queries each step and journals enter/exit transitions, so the
	// flight recorder carries the injected failure story as events even
	// though the plan itself is a pure schedule. rfWindows caches the RF
	// outage windows (any zone counts as an outage for the recorder).
	rfWindows                        []faultplan.Event
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
		horizon: m.Horizon(),
	}
	if cfg.Faults != nil {
		e.rfWindows = cfg.Faults.Windows(faultplan.RFOutage)
	}

	// Pre-fit the clock corrections on the complete SD-card dataset — the
	// batch pipeline's own fit — and hand them to the live pipeline. It
	// would otherwise freeze corrections at its first analysis, fitted on
	// whatever sync records had trickled in so far, and the final report
	// would depend on query timing; this way the live report stays
	// byte-identical to the standalone run no matter when queries land.
	batch, err := m.Pipeline(cfg.View)
	if err != nil {
		return nil, fmt.Errorf("habitat %s: %w", id, err)
	}
	corrections, err := batch.RectifyClocks()
	if err != nil {
		return nil, fmt.Errorf("habitat %s: %w", id, err)
	}

	d, _ := m.SupportSystem()
	d.Instrument(reg)
	d.AttachJournal(journal)
	a, err := m.LiveAnalytics(d, cfg.View, sociometry.WithCorrections(corrections))
	if err != nil {
		return nil, fmt.Errorf("habitat %s: analytics: %w", id, err)
	}
	e.daemon, e.analytics = d, a

	gw, err := offload.NewGateway(e.sink)
	if err != nil {
		return nil, fmt.Errorf("habitat %s: gateway: %w", id, err)
	}
	gw.MaxHeldPerBadge = 64
	gw.Instrument(reg)
	gw.AttachJournal(journal, func() time.Duration { return e.now })
	e.gateway = gw

	var base offload.Transport = offload.TransportFunc(gw.Offer)
	if cfg.Faults != nil {
		base = faultplan.NewTransport(cfg.Faults, func() time.Duration { return e.now }, base)
	}
	e.transport = base

	ds := m.Result().Dataset
	for _, id := range ds.Badges() {
		u := offload.NewUploader(id)
		u.Instrument(reg)
		u.AttachJournal(journal)
		e.uploaders = append(e.uploaders, u)
		e.unfed = append(e.unfed, ds.Series(id).Range(0, e.horizon))
		e.records += len(e.unfed[len(e.unfed)-1])
	}

	e.cIngested = reg.Counter("fleet_engine_records_ingested_total")
	e.gClock = reg.Gauge("fleet_engine_clock_seconds")
	return e, nil
}

// sink is the gateway's exactly-once, per-badge-ordered output. The
// gateway invokes it under its own lock during a flush round; batches
// are staged as released and applied to the daemon once it completes.
func (e *engine) sink(id store.BadgeID, recs []record.Record) {
	e.staged = append(e.staged, offload.Batch{Badge: id, Records: recs})
}

// step advances the habitat's clock domain by one ingest window:
// enqueue the window's records, flush every uploader, apply whatever
// the gateway released, and detect completion. It returns how many
// records reached the daemon this step.
func (e *engine) step() int {
	if e.done {
		return 0
	}
	e.steps++
	if e.steps == 1 {
		e.journal.Emit(e.now, telemetry.SevInfo, "fleet", "ingest-start",
			"habitat ingest started",
			telemetry.Fi("records", e.records),
			telemetry.Fi("badges", len(e.uploaders)))
	}
	if e.stepHook != nil {
		e.stepHook(e.steps)
	}
	e.noteFaults(e.now)
	hi := e.now + ingestStep
	// Each badge's window is one contiguous run of its view. Uploaders
	// are independent and only buffer until FlushAt, so the order in
	// which badges enqueue within a step is unobservable.
	next := time.Duration(-1) // earliest record not yet enqueued, -1 if none
	for i, recs := range e.unfed {
		k := 0
		for k < len(recs) && recs[k].Local < hi {
			k++
		}
		e.uploaders[i].Enqueue(recs[:k]...)
		e.unfed[i] = recs[k:]
		if k < len(recs) && (next < 0 || recs[k].Local < next) {
			next = recs[k].Local
		}
	}
	inFlight := false
	for _, u := range e.uploaders {
		u.FlushAt(e.now, e.transport)
		if s := u.StatsSnapshot(); s.Buffered > 0 || s.Pending > 0 {
			inFlight = true
		}
	}
	n := e.apply()
	e.now = hi
	e.gClock.Set(e.now.Seconds())

	if next < 0 {
		if !inFlight {
			e.done = true
		} else if e.now > e.horizon+drainGrace {
			// Whatever is still pending will never deliver (e.g. a badge
			// that died before its final flush window); account for it
			// and stop rather than spinning forever. Every record has been
			// fed by now, and the gateway delivers exactly once, so the
			// shortfall is exact.
			e.undelivered = e.records - e.ingested
			e.done = true
			e.journal.Emit(e.now, telemetry.SevWarn, "fleet", "ingest-undelivered",
				"ingest gave up on records past the drain grace",
				telemetry.Fi("undelivered", e.undelivered))
		}
		if e.done {
			e.journal.Emit(e.now, telemetry.SevInfo, "fleet", "ingest-complete",
				"habitat ingest complete",
				telemetry.Fi("ingested", e.ingested),
				telemetry.Fi("undelivered", e.undelivered),
				telemetry.Fi("steps", e.steps))
		}
	} else if !inFlight && next > hi {
		// Idle gap (overnight, pre-deployment): jump the clock to the
		// next record's window instead of stepping through silence.
		e.now = next.Truncate(ingestStep)
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
	rf := false
	for _, w := range e.rfWindows {
		if now >= w.From && now < w.To {
			rf = true
			break
		}
	}
	e.noteEdge(now, &e.inRF, rf, telemetry.SevWarn,
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

// apply feeds the staged gateway output to the daemon in release order,
// one run of equal-day records at a time: the wearer is resolved once per
// run, and the daemon ingests the run as a batch.
func (e *engine) apply() int {
	assignment := e.mission.Result().Assignment
	n := 0
	for _, b := range e.staged {
		for recs := b.Records; len(recs) > 0; {
			day := simtime.DayOf(recs[0].Local)
			k := 1
			for k < len(recs) && simtime.DayOf(recs[k].Local) == day {
				k++
			}
			wearer, _ := assignment.TrueWearerOf(b.Badge, day)
			e.daemon.IngestBatch(wearer, b.Badge, recs[:k])
			recs = recs[k:]
		}
		n += len(b.Records)
	}
	clear(e.staged) // release the batches' records to the collector
	e.staged = e.staged[:0]
	e.ingested += n
	e.cIngested.Add(uint64(n))
	return n
}

// run steps the engine to completion (test and property-check helper;
// the fleet runner interleaves steps with queries instead).
func (e *engine) run() {
	for !e.done {
		e.step()
	}
}

// report renders the habitat's live sociometric report. Must run on the
// worker goroutine (it folds pending windows); the result for a
// completed habitat is byte-identical to the standalone batch report
// over the same seed, days, and tick.
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
