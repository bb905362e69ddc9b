package mission

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"icares/internal/badge"
	"icares/internal/beacon"
	"icares/internal/crew"
	"icares/internal/faultplan"
	"icares/internal/geometry"
	"icares/internal/habitat"
	"icares/internal/radio"
	"icares/internal/simtime"
	"icares/internal/stats"
	"icares/internal/store"
	"icares/internal/telemetry"
)

// Config parameterizes a mission run.
type Config struct {
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed uint64
	// Scenario is the behavioural script; zero value means
	// DefaultScenario(Seed).
	Scenario Scenario
	// Assignment is the badge-incident schedule; zero value means
	// DefaultAssignment().
	Assignment Assignment
	// Tick is the simulation step (default 5 s).
	Tick time.Duration
	// Sampling overrides the badges' sensor schedule (default
	// badge.DefaultSampling()).
	Sampling badge.Sampling
	// FirstDataDay is the first day badges are worn (ICAres-1: day 2,
	// after the acclimatization day).
	FirstDataDay int
	// CollectTruth enables ground-truth sampling for validation.
	CollectTruth bool
	// TruthEvery is the ground-truth sampling period (default 15 s).
	TruthEvery time.Duration
	// BLEDropProb injects uniform BLE packet loss (fault injection): the
	// localization pipeline must degrade gracefully, not break.
	BLEDropProb float64
	// Sub868DropProb injects packet loss on the badge-to-badge radio.
	Sub868DropProb float64
	// Faults applies a deterministic fault schedule to the run: badge
	// death/reboot windows stop a badge's sampling (and revive it after),
	// and sync-dropout windows suppress time-sync exchanges. Nil injects
	// nothing. RF/gateway/uplink events do not affect SD-card recording —
	// they belong to the online offload and uplink paths.
	Faults *faultplan.Plan
	// Telemetry optionally receives the engine's counters (mission_ticks_total
	// by phase, mission_fault_transitions_total by kind, mission_records gauge)
	// and the trace_span_seconds histogram of span durations by span name.
	// Nil disables instrumentation.
	Telemetry *telemetry.Registry
	// Journal optionally receives flight-recorder events: fault-plan badge
	// death/reboot transitions, and one debug "span" event per completed
	// sim-clock span (each mission day, then the whole run). Nil disables
	// journaling.
	Journal *telemetry.Journal
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Scenario.Days == 0 {
		c.Scenario = DefaultScenario(c.Seed)
	}
	if c.Assignment.SwapDay == 0 {
		c.Assignment = DefaultAssignment()
	}
	if c.Tick <= 0 {
		c.Tick = 5 * time.Second
	}
	if c.Sampling == (badge.Sampling{}) {
		c.Sampling = badge.DefaultSampling()
	}
	if c.FirstDataDay == 0 {
		c.FirstDataDay = 2
	}
	if c.TruthEvery <= 0 {
		c.TruthEvery = 15 * time.Second
	}
	return c
}

// TruthSample is one ground-truth observation of an astronaut.
type TruthSample struct {
	At       time.Duration
	Room     habitat.RoomID
	Pos      geometry.Point
	Present  bool
	Walking  bool
	Speaking bool
	Worn     bool
}

// Event is one scripted mission event, for reports.
type Event struct {
	At   time.Duration
	Name string
}

// Result is a completed mission dataset plus metadata.
type Result struct {
	Config     Config
	Habitat    *habitat.Habitat
	Dataset    *store.Dataset
	Roster     []crew.Roster
	Assignment Assignment
	Truth      map[string][]TruthSample
	Events     []Event
	// DaytimeTicks counts engine ticks, for wear-fraction denominators.
	DaytimeTicks int
}

// ErrBadConfig reports an unusable configuration.
var ErrBadConfig = errors.New("mission: bad config")

// chargingStationPos returns where the charging station (and the reference
// badge) sits: a bedroom corner, as badges charge overnight.
func chargingStationPos(hab *habitat.Habitat) geometry.Point {
	r, err := hab.Room(habitat.Bedroom)
	if err != nil {
		return geometry.Point{}
	}
	return r.Bounds.Inset(1.0).Min
}

// roomTempC returns the per-room temperature; the kitchen runs warmest
// ("the cosiest room with the highest temperatures").
func roomTempC(room habitat.RoomID) float64 {
	switch room {
	case habitat.Kitchen:
		return 23.6
	case habitat.Gym:
		return 20.8
	case habitat.Airlock:
		return 19.5
	case habitat.Biolab:
		return 21.4
	default:
		return 22.0
	}
}

// Run executes the mission and returns the collected dataset.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.FirstDataDay < 1 || cfg.FirstDataDay > cfg.Scenario.Days {
		return nil, fmt.Errorf("%w: first data day %d of %d", ErrBadConfig, cfg.FirstDataDay, cfg.Scenario.Days)
	}

	rng := stats.NewRNG(cfg.Seed)
	hab := habitat.Standard()
	bleCh, err := radio.NewChannel(hab, radio.BLE24, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("mission: %w", err)
	}
	bleCh.SetDropProb(cfg.BLEDropProb)
	fleet, err := beacon.NewFleet(hab, bleCh)
	if err != nil {
		return nil, fmt.Errorf("mission: %w", err)
	}
	net, err := badge.NewNetwork(hab, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("mission: %w", err)
	}
	net.Channel868().SetDropProb(cfg.Sub868DropProb)

	roster := DefaultRoster()
	planner := NewPlanner(cfg.Scenario)
	engine, err := crew.NewEngine(hab, planner, roster, DefaultAffinity(), rng.Split())
	if err != nil {
		return nil, fmt.Errorf("mission: %w", err)
	}

	dataset := store.NewDataset()
	badges := make(map[store.BadgeID]*badge.Badge)
	var badgeOrder []store.BadgeID
	var stages []*stage
	newBadge := func(id uint16, osc *simtime.Oscillator) *badge.Badge {
		st := &stage{batch: batch{series: dataset.Series(store.BadgeID(id))}}
		stages = append(stages, st)
		b := badge.New(id, osc, cfg.Sampling, st, rng.Split())
		badges[store.BadgeID(id)] = b
		badgeOrder = append(badgeOrder, store.BadgeID(id))
		net.Add(b)
		return b
	}
	// Personal badges with imperfect clocks.
	for id := BadgeA; id <= BadgeF; id++ {
		osc := simtime.NewOscillator(
			time.Duration(rng.Norm(0, 1.5e9)),
			rng.Norm(0, 22),
		)
		newBadge(id, osc)
	}
	// Reference badge: defines reference time (identity clock).
	ref := newBadge(ReferenceBadge, simtime.NewOscillator(0, 0))
	// Backup badges stay docked unless failover hands them out.
	for i := uint16(0); i < BackupBadgeCount; i++ {
		newBadge(FirstBackupBadge+i, simtime.NewOscillator(
			time.Duration(rng.Norm(0, 1.5e9)),
			rng.Norm(0, 22),
		))
	}

	res := &Result{
		Config:     cfg,
		Habitat:    hab,
		Dataset:    dataset,
		Roster:     roster,
		Assignment: cfg.Assignment,
		Truth:      make(map[string][]TruthSample),
	}
	res.Events = scriptedEvents(cfg.Scenario)

	station := chargingStationPos(hab)
	sim := &simRun{
		cfg: cfg, hab: hab, fleet: fleet, net: net, engine: engine,
		badges: badges, badgeOrder: badgeOrder, ref: ref, station: station, res: res,
		energy:       energyOf(roster),
		wearDecision: make(map[string]bool),
		lastWornPos:  make(map[store.BadgeID]geometry.Point),
		lastTruth:    -cfg.TruthEvery,
		planKilled:   make(map[store.BadgeID]bool),

		cDayTicks:   cfg.Telemetry.Counter("mission_ticks_total", telemetry.L("phase", "day")),
		cNightTicks: cfg.Telemetry.Counter("mission_ticks_total", telemetry.L("phase", "night")),
		cFaultDown:  cfg.Telemetry.Counter("mission_fault_transitions_total", telemetry.L("kind", "badge_down")),
		cFaultUp:    cfg.Telemetry.Counter("mission_fault_transitions_total", telemetry.L("kind", "badge_revive")),
		gRecords:    cfg.Telemetry.Gauge("mission_records"),
	}
	start := simtime.StartOfDay(cfg.FirstDataDay)
	end := simtime.StartOfDay(cfg.Scenario.Days + 1)
	dayStart, spanDay := start, simtime.DayOf(start)
	// Badges record into their stages; full buffers go into the store on
	// the ingest goroutine while the simulation runs on.
	ingest := startIngest(stages)
	for now := start; now < end; {
		if d := simtime.DayOf(now); d != spanDay {
			cfg.endSpan("mission.day", dayStart, now)
			dayStart, spanDay = now, d
		}
		tod := simtime.TimeOfDay(now)
		if tod >= 8*time.Hour && tod < 22*time.Hour {
			sim.daytimeTick(now)
			now += cfg.Tick
			continue
		}
		sim.nightTick(now)
		now += 10 * time.Minute
	}
	cfg.endSpan("mission.day", dayStart, end)
	cfg.endSpan("mission.run", start, end)
	ingest.close()
	sim.gRecords.Set(float64(dataset.TotalRecords()))
	return res, nil
}

// spanBuckets are the trace_span_seconds bounds, in seconds of mission
// time: spans on the simulated clock range from sub-minute operations to
// multi-day phases, so the wall-clock DefBuckets (capped at 10s) would
// collapse them all into +Inf.
var spanBuckets = []float64{
	1, 60, 300, 900, 3600, 6 * 3600, 12 * 3600, 86400, 3 * 86400, 7 * 86400,
}

// endSpan records one completed span [start, end) on the simulated clock:
// a single debug "span" event stamped at its end, carrying the start and
// duration, and one trace_span_seconds observation. Equal seeds give equal
// spans, since every timestamp is simulated.
func (c Config) endSpan(name string, start, end time.Duration) {
	dur := end - start
	c.Journal.Emit(end, telemetry.SevDebug, "mission", "span", "sim-clock span ended",
		telemetry.F("span", name), telemetry.F("start", start.String()), telemetry.F("dur", dur.String()))
	c.Telemetry.Histogram("trace_span_seconds", spanBuckets, telemetry.L("span", name)).Observe(dur.Seconds())
}

// simRun carries the loop state.
type simRun struct {
	cfg        Config
	hab        *habitat.Habitat
	fleet      *beacon.Fleet
	net        *badge.Network
	engine     *crew.Engine
	badges     map[store.BadgeID]*badge.Badge
	badgeOrder []store.BadgeID
	ref        *badge.Badge
	station    geometry.Point
	res        *Result
	// energy is each roster member's gesture-energy trait (see energyOf);
	// the engine reports state only for roster members, so every wearer
	// has an entry.
	energy map[string]float64

	wearDecision map[string]bool
	lastSlot     int
	lastDay      int
	failedF      bool
	lastTruth    time.Duration
	lastSync     time.Duration

	lastWornPos map[store.BadgeID]geometry.Point
	// planKilled tracks badges the fault plan took down, so reboots revive
	// exactly those and never resurrect scripted or battery deaths.
	planKilled map[store.BadgeID]bool

	// Telemetry handles (nil handles are no-ops), resolved once so the tick
	// loop never does a registry lookup.
	cDayTicks, cNightTicks *telemetry.Counter
	cFaultDown, cFaultUp   *telemetry.Counter
	gRecords               *telemetry.Gauge
}

// applyFaults transitions badges across the fault plan's death/reboot
// windows at mission time now.
func (s *simRun) applyFaults(now time.Duration) {
	plan := s.cfg.Faults
	if plan == nil {
		return
	}
	for _, id := range s.badgeOrder {
		b := s.badges[id]
		down := plan.BadgeDown(id, now)
		switch {
		case down && !b.Failed():
			s.planKilled[id] = true
			s.cFaultDown.Inc()
			b.Fail()
			s.cfg.Journal.Emit(now, telemetry.SevWarn, "mission", "badge-death",
				"fault plan killed badge", telemetry.Fu("badge", uint64(id)))
		case !down && s.planKilled[id]:
			s.planKilled[id] = false
			s.cFaultUp.Inc()
			b.Revive()
			s.cfg.Journal.Emit(now, telemetry.SevInfo, "mission", "badge-reboot",
				"fault plan revived badge", telemetry.Fu("badge", uint64(id)))
		}
	}
}

// dockInput is the situation of a badge resting at the charging station.
func (s *simRun) dockInput() badge.Input {
	return badge.Input{
		Pos: s.station, Docked: true,
		TempC: roomTempC(habitat.Bedroom), PressHPa: 1004, LightLux: 2,
	}
}

// daytimeTick advances one simulation step during duty hours.
func (s *simRun) daytimeTick(now time.Duration) {
	cfg := s.cfg
	day := simtime.DayOf(now)
	s.applyFaults(now)

	// Fail F's badge on the morning of the reuse day (the incident that
	// makes F pick up C's badge).
	if day >= cfg.Assignment.ReuseDay && !s.failedF {
		s.failedF = true
		s.badges[store.BadgeID(BadgeF)].Fail()
	}

	// Wear-compliance decisions, sticky per 2-hour block: an astronaut who
	// parks the badge on the workbench leaves it there for the work block,
	// not per half-hour slot.
	block := int(simtime.TimeOfDay(now) / (2 * time.Hour))
	if day != s.lastDay || block != s.lastSlot {
		s.lastDay, s.lastSlot = day, block
		for _, name := range Names() {
			h := cfg.Scenario.hash(name, "wear", itoa(day), itoa(block))
			s.wearDecision[name] = h < cfg.Scenario.WearProb(day)
		}
	}

	s.engine.Tick(now, cfg.Tick)
	s.res.DaytimeTicks++
	s.cDayTicks.Inc()

	assigned := make(map[store.BadgeID]bool, len(Names()))
	for _, name := range Names() {
		st, ok := s.engine.State(name)
		if !ok {
			continue
		}
		id := cfg.Assignment.TrueBadgeFor(name, day)
		if id == 0 {
			continue
		}
		assigned[id] = true
		b := s.badges[id]

		var in badge.Input
		switch {
		case !st.Present:
			// EVA or dead: badge docked at the station.
			in = s.dockInput()
			s.lastWornPos[id] = s.station
		case st.Wearable && (s.wearDecision[name] || socialActivity(st.Activity)):
			loud, f0, okA := s.engine.AudibleAt(st.Pos)
			in = badge.Input{
				Pos: st.Pos, Worn: true, Heading: st.Heading,
				WearerWalking: st.Walking,
				WearerEnergy:  s.energy[name],
				SpeechLoudDB:  loud, SpeechF0: f0, SpeechOK: okA,
				TempC:    roomTempC(st.Room),
				PressHPa: 1004, LightLux: 300,
			}
			s.lastWornPos[id] = st.Pos
		default:
			// Active but not worn: the badge lies where it was left.
			pos, ok := s.lastWornPos[id]
			if !ok {
				pos = s.station
			}
			loud, f0, okA := s.engine.AudibleAt(pos)
			in = badge.Input{
				Pos: pos, Worn: false,
				SpeechLoudDB: loud, SpeechF0: f0, SpeechOK: okA,
				TempC:    roomTempC(s.hab.RoomAt(pos)),
				PressHPa: 1004, LightLux: 280,
			}
		}
		b.Tick(now, in, s.fleet)

		if cfg.CollectTruth && now-s.lastTruth >= cfg.TruthEvery {
			s.res.Truth[name] = append(s.res.Truth[name], TruthSample{
				At: now, Room: st.Room, Pos: st.Pos,
				Present: st.Present, Walking: st.Walking,
				Speaking: st.Speaking, Worn: b.Worn(),
			})
		}
	}
	if cfg.CollectTruth && now-s.lastTruth >= cfg.TruthEvery {
		s.lastTruth = now
	}

	// Unassigned badges (C's badge between the death and the reuse,
	// backups, reference) sit at the charging station.
	for _, id := range s.badgeOrder {
		if assigned[id] {
			continue
		}
		s.badges[id].Tick(now, s.dockInput(), s.fleet)
	}

	s.net.Tick(now)
}

// nightTick charges badges, records reference-environment samples, and runs
// the opportunistic time-sync exchanges.
func (s *simRun) nightTick(now time.Duration) {
	s.applyFaults(now)
	s.cNightTicks.Inc()
	for _, id := range s.badgeOrder {
		s.badges[id].Tick(now, s.dockInput(), nil)
	}
	// Hourly sync exchange against the reference badge's clock.
	if now-s.lastSync >= time.Hour {
		s.lastSync = now
		for _, id := range s.badgeOrder {
			if id == store.BadgeID(ReferenceBadge) {
				continue
			}
			if s.cfg.Faults != nil && s.cfg.Faults.SyncDropped(id, now) {
				continue // sync-exchange dropout window
			}
			// Reference clock is identity in this build.
			s.badges[id].RecordSync(now, now)
		}
	}
}

// socialActivity reports activities during which the crew reliably put
// their badges back on (group events): the wear-compliance decay the paper
// reports came from solo lab and workshop work, where the badge on a cord
// "turned out to be a burden".
func socialActivity(k crew.ActivityKind) bool {
	switch k {
	case crew.Meal, crew.Briefing, crew.Break, crew.Gathering:
		return true
	default:
		return false
	}
}

// energyOf maps each roster member to the gesture-energy trait for accel
// synthesis.
func energyOf(roster []crew.Roster) map[string]float64 {
	out := make(map[string]float64, len(roster))
	for _, r := range roster {
		out[r.Name] = r.Traits.Energy
	}
	return out
}

// scriptedEvents lists the scenario's notable events for reports.
func scriptedEvents(sc Scenario) []Event {
	evs := []Event{
		{At: DeathTime(), Name: "astronaut C leaves the mission (emulated death)"},
		{At: simtime.StartOfDay(sc.FoodShortageDay), Name: "extreme food shortage announced"},
		{At: simtime.StartOfDay(sc.ReprimandDay), Name: "mission control reprimand after delayed instructions"},
	}
	for day := 1; day <= sc.Days; day++ {
		pair, ok := sc.EVADays[day]
		if !ok {
			continue
		}
		evs = append(evs, Event{
			At:   simtime.StartOfDay(day) + evaStart,
			Name: fmt.Sprintf("EVA: %s and %s", pair[0], pair[1]),
		})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}
