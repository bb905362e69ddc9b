// Package icares is the top-level facade of the ICAres-1 reproduction: a
// distributed sociometric sensing system for space habitats, built after
// "30 Sensors to Mars: Toward Distributed Support Systems for Astronauts in
// Space Habitats" (ICDCS 2019).
//
// The package ties the three layers of the repository together:
//
//   - the simulation substrate (internal/habitat, radio, beacon, badge,
//     crew, mission) that replaces the physical deployment;
//   - the offline sociometric backend (internal/sociometry and the
//     localization/speech/activity/proximity/timesync packages it
//     composes) that reproduces the paper's figures and tables;
//   - the real-time mission support system (internal/support,
//     internal/uplink) sketched in the paper's Section VI.
//
// Quickstart:
//
//	m, err := icares.Simulate(icares.Options{Seed: 42, Days: 3})
//	if err != nil { ... }
//	pipe, err := m.Pipeline(icares.TrueAssignment)
//	if err != nil { ... }
//	fmt.Println(pipe.Transitions(nil))
package icares

import (
	"fmt"
	"time"

	"icares/internal/faultplan"
	"icares/internal/habitat"
	"icares/internal/mission"
	"icares/internal/simtime"
	"icares/internal/sociometry"
	"icares/internal/stats"
	"icares/internal/store"
	"icares/internal/support"
	"icares/internal/survey"
	"icares/internal/telemetry"
	"icares/internal/uplink"
)

// Options configures a simulated mission.
type Options struct {
	// Seed makes the run reproducible; equal seeds give identical
	// datasets.
	Seed uint64
	// Days is the mission length (default: the full 14-day ICAres-1).
	Days int
	// Tick overrides the simulation step (default 5 s). Coarser ticks
	// trade sensing density for speed — fleet deployments run many
	// habitats at coarse ticks where one habitat would run fine ones.
	Tick time.Duration
	// Faults applies a deterministic fault schedule to the run (badge
	// death/reboot windows, sync-exchange dropouts); build one with
	// ChaosPlan or faultplan.New. Nil injects nothing.
	Faults *faultplan.Plan
	// Telemetry, when non-nil, receives the mission engine's metrics
	// (tick counts, fault transitions, record volume, and the
	// trace_span_seconds histogram of sim-clock span durations). Nil
	// disables instrumentation at zero cost.
	Telemetry *telemetry.Registry
	// Journal, when non-nil, receives flight-recorder events from the
	// mission engine: fault-plan badge death/reboot transitions and one
	// debug "span" event per mission day and for the whole run.
	Journal *telemetry.Journal
}

// AssignmentView selects which badge-to-astronaut mapping an analysis uses.
type AssignmentView int

// Assignment views.
const (
	// TrueAssignment is what actually happened, including the day-6 A-B
	// badge swap and F's reuse of C's badge from day 8.
	TrueAssignment AssignmentView = iota + 1
	// NominalAssignment is the one-badge-one-owner deployment metadata the
	// paper's algorithms initially assumed — analysis under this view
	// reproduces the swap/reuse confusion.
	NominalAssignment
)

// Mission is a completed simulated mission plus its analysis entry points.
type Mission struct {
	res *mission.Result
}

// Simulate runs the ICAres-1 scenario and returns the mission dataset.
func Simulate(opts Options) (*Mission, error) {
	sc := mission.DefaultScenario(opts.Seed)
	if opts.Days > 0 {
		sc.Days = opts.Days
	}
	res, err := mission.Run(mission.Config{
		Seed:      opts.Seed,
		Scenario:  sc,
		Tick:      opts.Tick,
		Faults:    opts.Faults,
		Telemetry: opts.Telemetry,
		Journal:   opts.Journal,
	})
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	return &Mission{res: res}, nil
}

// Result exposes the underlying mission result (dataset, habitat, truth,
// events).
func (m *Mission) Result() *mission.Result { return m.res }

// Names returns the crew names.
func (m *Mission) Names() []string { return mission.Names() }

// VoiceProfiles returns each astronaut's typical voice fundamental, the
// speaker-attribution input.
func (m *Mission) VoiceProfiles() map[string]float64 {
	out := make(map[string]float64, len(m.res.Roster))
	for _, r := range m.res.Roster {
		out[r.Name] = r.Traits.F0Hz
	}
	return out
}

// Pipeline builds the sociometric analysis pipeline over the mission's
// dataset under the chosen assignment view.
//
// Pipelines are safe for concurrent use and never modify the dataset, which
// keeps raw device time: each pipeline fits its own clock corrections when
// it is built and reads through rectified views. Building both the
// TrueAssignment and NominalAssignment views over one Simulate run is
// supported, and both fit the same corrections.
//
// Options (e.g. sociometry.WithCorrections with an empty map for the
// timesync ablation) are passed through to the pipeline.
func (m *Mission) Pipeline(view AssignmentView, opts ...sociometry.Option) (*sociometry.Pipeline, error) {
	return m.PipelineOver(m.res.Dataset, view, opts...)
}

// PipelineOver builds the same analysis pipeline as Pipeline but over a
// caller-provided record source instead of the mission's in-memory dataset
// — typically a store.SegmentStore reopened from the segment archive this
// mission was saved to. The mission supplies everything that is metadata
// rather than records: habitat geometry, crew names, the assignment view,
// voice profiles, and the analysis day range. Reports from the two sources
// are byte-identical; the archive-backed one reads blocks on demand instead
// of holding the dataset resident.
func (m *Mission) PipelineOver(data store.Viewer, view AssignmentView, opts ...sociometry.Option) (*sociometry.Pipeline, error) {
	return sociometry.NewPipeline(m.source(data, view), opts...)
}

// source assembles the analysis source over data: the mission supplies
// everything that is metadata rather than records.
func (m *Mission) source(data store.Viewer, view AssignmentView) sociometry.Source {
	return sociometry.Source{
		Habitat:       m.res.Habitat,
		Data:          data,
		Names:         mission.Names(),
		BadgeFor:      badgeFor(m.res.Assignment, view),
		VoiceProfiles: m.VoiceProfiles(),
		FirstDay:      mission.FirstDataDay,
		LastDay:       m.res.Config.Scenario.Days,
	}
}

// badgeFor is the assignment's badge mapping under the view.
func badgeFor(a mission.Assignment, view AssignmentView) func(string, int) store.BadgeID {
	if view == NominalAssignment {
		return a.NominalBadgeFor
	}
	return a.TrueBadgeFor
}

// ArchivePipeline builds an analysis pipeline over a segment archive (or
// any other record source) without a Mission in hand — the path a ground
// analyst takes when all that came back from the habitat is the archive
// directory. Standard ICAres-1 metadata is assumed: the standard habitat,
// the default crew roster and voice profiles, the default badge-incident
// schedule, and data days 2..days (days <= 0 means infer the span from the
// archive's newest record — each segment view's Last decodes that badge's
// last block, one block per badge, which the report reads anyway). For
// non-default missions keep the Mission around and use PipelineOver
// instead.
func ArchivePipeline(data store.Viewer, days int, view AssignmentView, opts ...sociometry.Option) (*sociometry.Pipeline, error) {
	if days <= 0 {
		for _, id := range data.Badges() {
			v, ok := data.View(id)
			if !ok {
				continue
			}
			if last, ok := v.Last(); ok {
				if d := simtime.DayOf(last.Local); d > days {
					days = d
				}
			}
		}
		if days <= 0 {
			days = mission.DefaultScenario(0).Days
		}
	}
	profiles := make(map[string]float64)
	for _, r := range mission.DefaultRoster() {
		profiles[r.Name] = r.Traits.F0Hz
	}
	return sociometry.NewPipeline(sociometry.Source{
		Habitat:       habitat.Standard(),
		Data:          data,
		Names:         mission.Names(),
		BadgeFor:      badgeFor(mission.DefaultAssignment(), view),
		VoiceProfiles: profiles,
		FirstDay:      mission.FirstDataDay,
		LastDay:       days,
	}, opts...)
}

// SupportSystem assembles the real-time mission support daemon with the
// full detector suite and a backup-badge pool, and the replayer that feeds
// it this mission's dataset over the offload path: per-badge uploaders
// into one gateway, run to completion with the replayer's Run or step by
// step. A mission simulated under a fault plan gets the plan between
// badges and gateway too, on the replayer's clock.
func (m *Mission) SupportSystem() (*support.Daemon, *support.Replayer) {
	d := support.NewDaemon()
	d.Register(support.NewInactivityDetector())
	d.Register(support.NewQuietCrewDetector())
	d.Register(support.NewBatteryDetector())
	d.Register(support.NewHydrationDetector(m.res.Habitat))
	d.Register(support.NewWearComplianceDetector())

	spares := make([]store.BadgeID, 0, mission.BackupBadgeCount)
	for i := uint16(0); i < mission.BackupBadgeCount; i++ {
		spares = append(spares, store.BadgeID(mission.FirstBackupBadge+i))
	}
	pool := support.NewBadgePool(spares)
	assignment := m.res.Assignment
	lastDay := m.res.Config.Scenario.Days
	d.Register(support.NewFailover(d.Health(), pool, func(id store.BadgeID) (string, bool) {
		return assignment.TrueWearerOf(id, lastDay)
	}))

	replayer := support.NewReplayer(d, m.res.Dataset, m.Horizon(), assignment.TrueWearerOf)
	if plan := m.res.Config.Faults; plan != nil {
		replayer.Transport = faultplan.NewTransport(plan, replayer.Now, replayer.Transport)
	}
	return d, replayer
}

// LiveAnalytics attaches incremental sociometric analytics to a support
// daemon: every record the daemon ingests (post privacy scrub) folds into a
// live pipeline over the mission's crew and the chosen assignment view. The
// analytics own their dataset — the mission's offline store stays untouched
// by the online path. The live pipeline reads through the clock corrections
// fitted over the mission's complete dataset, the batch pipeline's own, so
// once every record has arrived its results equal Pipeline(view)'s, however
// early the first query came.
func (m *Mission) LiveAnalytics(d *support.Daemon, view AssignmentView) (*support.Analytics, error) {
	batch, err := m.Pipeline(view)
	if err != nil {
		return nil, err
	}
	corrections, _ := batch.RectifyClocks()
	a, err := support.NewAnalytics(m.source(nil, view), corrections)
	if err != nil {
		return nil, err
	}
	d.AttachAnalytics(a)
	return a, nil
}

// MissionControlLink returns a fresh Earth<->habitat link with the
// ICAres-1 20-minute one-way delay.
func MissionControlLink() *uplink.Link {
	return uplink.NewLink(uplink.DefaultDelay)
}

// ChaosPlan generates a randomized-but-seeded fault schedule over the data
// days of a mission of the given length (from mission.FirstDataDay to its
// end), scoped to the personal badges. The same seed always reproduces the
// identical event trace; feed the plan to Options.Faults, wrap offload
// transports in faultplan.Transport, and install its blackouts on an
// uplink.Link to subject the whole online path to one coherent failure
// story.
func ChaosPlan(seed uint64, days int) *faultplan.Plan {
	var badges []store.BadgeID
	for id := mission.BadgeA; id <= mission.BadgeF; id++ {
		badges = append(badges, store.BadgeID(id))
	}
	return faultplan.Generate(seed, simtime.StartOfDay(mission.FirstDataDay), simtime.StartOfDay(days+1), badges)
}

// Council creates the consensus-approval body over this mission's crew and
// the given link (nil for autonomous mode).
func (m *Mission) Council(link *uplink.Link) *support.Council {
	return support.NewCouncil(mission.Names(), link)
}

// Surveys generates the scripted evening self-reports for this mission —
// the classic instrument the sensing results are cross-validated against.
func (m *Mission) Surveys() (*survey.Collection, error) {
	sc := m.res.Config.Scenario
	model := survey.MoodModel{
		TrendFor: sc.TalkTrend,
		DeathDay: sc.DeathDay,
		Noise:    0.4,
	}
	rngSeed := m.res.Config.Seed ^ 0x5157
	return model.Generate(mission.Names(), mission.FirstDataDay, sc.Days, stats.NewRNG(rngSeed))
}

// Horizon returns the end of the mission data period.
func (m *Mission) Horizon() time.Duration {
	return time.Duration(m.res.Config.Scenario.Days) * 24 * time.Hour
}
