// Package sociometry is the paper's analysis pipeline — the core offline
// backend that turns raw badge datasets into the published results: room
// transition matrices (Fig. 2), position heatmaps (Fig. 3), walking
// fractions (Fig. 4), day timelines with meeting dynamics (Fig. 5), speech
// fractions (Fig. 6), and the centrality table (Table I), plus the wear and
// stay statistics quoted in the text.
//
// The pipeline composes the lower layers: timesync rectification first
// (cross-badge analyses are meaningless on skewed clocks), then per-
// astronaut attribution of badge records via the assignment metadata, then
// localization, speech, activity, and proximity analyses.
//
// # Clock rectification
//
// The source always holds raw device time, as the badges' SD cards did.
// Clock corrections are a value the pipeline owns: NewPipeline fits them
// from the source's sync records (or takes the WithCorrections map), and
// they never change after that. Every query reads through a per-badge
// rectified view (rectview.go) that maps timestamps to reference time on
// the way out — one path for resident datasets and segment archives alike.
// Nothing is rewritten in place, so any number of pipelines (e.g. the true
// and nominal assignment views over one simulated mission) can share a
// source, and nothing can be rectified twice.
//
// # Incremental operators
//
// Every windowed derivation has one form: per (astronaut, day) window, its
// producer runs over that day's cursor (the localization track, mic frames
// and activity windows under the astronaut's worn set, so an unworn window
// is never localized, framed or classified; IR contacts; daytime recording
// coverage), and the astronaut-level result is those windows in day order.
// That is byte-identical to deriving from the full record stream: the
// localization and activity windows are aligned to absolute time and
// divide the day, so no analysis window ever spans a day boundary. Whether
// a window's result is memoized is the only thing Follow changes: a
// following pipeline keeps each window as a partial, a batch pipeline
// appends it straight into the astronaut's output and keeps nothing.
//
// Follow subscribes the pipeline to its source's append notifications,
// and each new record marks only its (badge, day) window stale — a wear
// record also its astronaut's later days, since the worn set at time t
// depends only on the wear records at or before t. The next analysis drops
// exactly the affected windows and the astronaut-level caches folding
// them — everything else stays warm. See fold.go for the invalidation
// machinery and DESIGN.md for the model.
//
// # Concurrency
//
// A Pipeline is safe for concurrent use. Every derivation is memoized with
// compute-once-per-key semantics: concurrent callers of the same derivation
// block on a single in-flight computation instead of repeating it.
//
// Crew-level analyses (Report, TableI, Transitions, Pairwise, Wear,
// Timeline, ...) fan their per-astronaut work out across a bounded worker
// pool sized by Parallelism (default runtime.NumCPU) while keeping output
// deterministic: results are computed into per-astronaut slots and folded
// in crew order, so equal seeds give byte-identical reports at any width.
//
// Analysis parameters (the dwell filter, the localization window, the
// speech thresholds) and everything that depends only on the pipeline's
// inputs (the clock corrections, the locator, the per-day wearer table) are
// fixed when the pipeline is built, so a memoized value never goes stale
// because one of them changed. The only invalidation
// is the live fold's: queries racing it (records arriving via Follow) are
// safe and see stale-but-consistent memoized values; once appends quiesce,
// the next analysis folds everything pending in and is exact.
package sociometry

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"icares/internal/activity"
	"icares/internal/habitat"
	"icares/internal/localization"
	"icares/internal/proximity"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/speech"
	"icares/internal/store"
	"icares/internal/telemetry"
	"icares/internal/timesync"
)

// Source describes a mission dataset to analyze.
type Source struct {
	// Habitat is the floor plan the data was collected in.
	Habitat *habitat.Habitat
	// Data holds the per-badge records on raw device clocks: a resident
	// *store.Dataset, a store.SegmentStore reopened from an archive, or any
	// other Viewer. The pipeline only reads it, and every analysis is
	// byte-identical whichever backend it is.
	Data store.Viewer
	// Names lists the astronauts.
	Names []string
	// BadgeFor maps (astronaut, mission day) to the badge they wore that
	// day; 0 means none. Using the nominal deployment mapping here
	// reproduces the paper's swap/reuse confusion; using the corrected
	// mapping reproduces the fixed analyses. Must be pure: NewPipeline
	// builds its day-wise inverse once.
	BadgeFor func(name string, day int) store.BadgeID
	// VoiceProfiles maps astronaut to typical voice fundamental (Hz), for
	// speaker attribution.
	VoiceProfiles map[string]float64
	// FirstDay and LastDay bound the data days (ICAres-1: 2..14).
	FirstDay, LastDay int
}

// validate checks the source for completeness.
func (s Source) validate() error {
	switch {
	case s.Habitat == nil:
		return errors.New("sociometry: nil habitat")
	case s.Data == nil:
		return errors.New("sociometry: no record source (nil Data)")
	case len(s.Names) == 0:
		return errors.New("sociometry: no astronauts")
	case s.BadgeFor == nil:
		return errors.New("sociometry: nil badge assignment")
	case s.FirstDay < 1 || s.LastDay < s.FirstDay:
		return fmt.Errorf("sociometry: bad day range %d..%d", s.FirstDay, s.LastDay)
	}
	return nil
}

// wkey addresses one fold window: one astronaut's data on one mission day.
type wkey struct {
	name string
	day  int
}

// Pipeline is a configured analysis over one source. It is safe for
// concurrent use; see the package comment for the memoization and
// determinism guarantees.
type Pipeline struct {
	src Source

	// locWindow is the localization scan window (WithLocWindow); it divides
	// the day, so per-day folds compose exactly.
	locWindow time.Duration
	// minDwell is the Fig. 2 dwell filter (WithMinDwell).
	minDwell time.Duration
	// Parallelism bounds the worker pool of crew-level analyses:
	// 0 means runtime.NumCPU(), 1 forces sequential execution.
	Parallelism int

	// corrections are the per-badge clock corrections, fitted by
	// NewPipeline or passed in by WithCorrections; never written after.
	corrections map[store.BadgeID]timesync.Correction

	// views caches each badge's rectified read view, built on first use
	// from the source's raw view (rectview.go) — the one read path of every
	// query, whichever backend the source is.
	viewMu sync.Mutex
	views  map[store.BadgeID]store.View

	// following is set by Follow; see windowMemo.
	following atomic.Bool

	// locator is shared by every window computation (it is immutable).
	locator *localization.Locator
	// wearers holds the BadgeID→astronaut inverse of BadgeFor for each data
	// day (index day-FirstDay), so IR attribution is O(1) per record.
	wearers []map[store.BadgeID]string

	// Window partials: the per-(astronaut, day) fold state a following
	// pipeline assembles its derivations from (a batch pipeline fills
	// none; see windowMemo). The track, frames and activity partials are
	// produced under the astronaut's worn set, read from wornCache when the
	// partial is computed, so they hold worn windows only and depend on
	// wornCache as well as on their window. Each partial folds straight
	// off a window cursor (windowIter) — raw day record slices are never
	// memoized, so resident memory stays bounded by the source's cache,
	// not the dataset.
	winTrack    memo[wkey, []localization.Fix]  // worn localization fixes
	winFrames   memo[wkey, []speech.Frame]      // worn mic frames
	winActivity memo[wkey, []activity.Sample]   // worn classified activity windows
	winContacts memo[wkey, []proximity.Contact] // attributed IR contacts
	winActive   memo[wkey, time.Duration]       // daytime recording coverage (Wear)

	// Memoized per-astronaut derivations, folded from the windows, and the
	// two crew-level folds over every astronaut:
	//
	//	worn ── frames
	//	  └─ track ── intervals ── crew (presence + proximity.Summary)
	//	  └─ activity
	//	winContacts ── ir (IR pair time)
	//
	// TableI, Pairwise, Communities and Meetings read crew and ir; one sweep
	// and one IR map serve every query until the live fold drops them.
	// records backs the public RecordsFor materialization only; no report
	// derivation reads it (they stream cursors instead).
	recordsCache  memo[string, []record.Record]
	wornCache     memo[string, record.RangeSet]
	trackCache    memo[string, []localization.Fix]
	intervalCache memo[string, []localization.Interval]
	framesCache   memo[string, []speech.Frame]
	activityCache memo[string, []activity.Sample]
	crewCache     memo[struct{}, crewFold]
	irCache       memo[struct{}, map[proximity.Pair]time.Duration]

	// Streaming fold state (fold.go): append notifications mark (badge,
	// day) windows stale; the next top-level analysis applies the marks.
	foldMu    sync.Mutex
	staleMu   sync.Mutex
	stale     map[staleKey]bool
	staleFlag atomic.Bool
	inflight  atomic.Int64
	// foldHook, when non-nil, runs inside applyStale once the worn sets and
	// window partials are dropped and before the astronaut-level caches
	// are: the seam the fold tests use to run a query at that point.
	foldHook func()

	// tel optionally receives per-stage compute timings (see SetTelemetry).
	tel *telemetry.Registry
}

// Option configures a pipeline at construction.
type Option func(*Pipeline)

// WithCorrections builds the pipeline with the given per-badge clock
// corrections instead of fitting them from the source's sync records.
// Badges absent from the map read on their local clocks, so an empty (or
// nil) map is the timesync ablation: every cross-badge analysis runs on
// skewed clocks. A live pipeline, built before its data arrives, passes
// corrections fitted over complete data.
func WithCorrections(c map[store.BadgeID]timesync.Correction) Option {
	return func(p *Pipeline) {
		p.corrections = maps.Clone(c)
		if p.corrections == nil {
			p.corrections = map[store.BadgeID]timesync.Correction{}
		}
	}
}

// WithMinDwell sets the Fig. 2 dwell filter (default
// localization.DefaultMinDwell, 10 s; 0 disables it).
func WithMinDwell(d time.Duration) Option {
	return func(p *Pipeline) { p.minDwell = d }
}

// WithLocWindow sets the localization scan window (default 15 s). Windows
// are aligned to absolute time and folded per day, so the window must divide
// the day; NewPipeline rejects any other value.
func WithLocWindow(w time.Duration) Option {
	return func(p *Pipeline) { p.locWindow = w }
}

// NewPipeline validates the source and builds a pipeline with the paper's
// default parameters, overridden by opts. It fits the clock corrections
// from the sync records the source holds now, unless WithCorrections gave
// them, and builds the locator and the per-day wearer table. All of these
// are fixed from then on.
func NewPipeline(src Source, opts ...Option) (*Pipeline, error) {
	if err := src.validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		src:       src,
		locWindow: 15 * time.Second,
		minDwell:  localization.DefaultMinDwell,
	}
	for _, opt := range opts {
		opt(p)
	}
	if p.locWindow <= 0 || (24*time.Hour)%p.locWindow != 0 {
		return nil, fmt.Errorf("sociometry: localization window %v must be positive and divide the day", p.locWindow)
	}
	var err error
	if p.locator, err = localization.NewLocator(src.Habitat); err != nil {
		return nil, err
	}
	if p.corrections == nil {
		p.corrections = p.fitCorrections()
	}
	p.wearers = make([]map[store.BadgeID]string, src.LastDay-src.FirstDay+1)
	for i := range p.wearers {
		p.wearers[i] = p.dayWearers(src.FirstDay + i)
	}
	return p, nil
}

// Source returns the pipeline's source.
func (p *Pipeline) Source() Source { return p.src }

// SetTelemetry mirrors each memoized derivation's compute time (wall
// clock, seconds) into reg's "sociometry_stage_seconds" histogram,
// labelled by stage (records, worn, track, intervals, frames, activity) —
// the per-stage profile of the analysis engine. Because derivations are
// compute-once, each (stage, astronaut) contributes one observation per
// cache fill; a window the live fold recomputes contributes again. Set it
// before the first analysis: it is read without synchronization.
func (p *Pipeline) SetTelemetry(reg *telemetry.Registry) { p.tel = reg }

// observeStage records one stage computation's wall time.
func (p *Pipeline) observeStage(stage string, start time.Time) {
	if p.tel == nil {
		return
	}
	p.tel.Histogram("sociometry_stage_seconds", telemetry.DefBuckets,
		telemetry.L("stage", stage)).Observe(time.Since(start).Seconds())
}

// Horizon returns the end of the data period.
func (p *Pipeline) Horizon() time.Duration {
	return simtime.StartOfDay(p.src.LastDay + 1)
}

// RectifyClocks returns the pipeline's per-badge clock corrections, fixed
// by NewPipeline (the error is always nil). Badges without enough sync
// observations keep their local clocks (correction identity) — their
// records remain usable for per-badge analyses. The source is never
// touched: queries see reference time through the rectified views.
//
// Sync records arriving later (a live fold) do not re-fit, so memoized
// windows stay consistent and results deterministic. The returned map is
// shared; callers must not modify it.
func (p *Pipeline) RectifyClocks() (map[store.BadgeID]timesync.Correction, error) {
	return p.corrections, nil
}

// fitCorrections fits each badge's correction in one streaming pass over
// its sync records.
func (p *Pipeline) fitCorrections() map[store.BadgeID]timesync.Correction {
	out := make(map[store.BadgeID]timesync.Correction)
	for _, id := range p.src.Data.Badges() {
		v, ok := p.src.Data.View(id)
		if !ok {
			continue
		}
		var est timesync.Estimator
		it := v.Iter(minTime, maxTime, record.KindSync)
		est.ObserveCursor(&it)
		c, err := est.Fit()
		if err != nil {
			// Not enough exchanges: keep local time.
			c = timesync.Identity()
		}
		out[id] = c
	}
	return out
}

// minTime/maxTime span the whole timestamp domain for full Iter scans.
const (
	minTime = time.Duration(math.MinInt64)
	maxTime = time.Duration(math.MaxInt64)
)

// View returns the badge's rectified read view, or ok == false when the
// source holds no data for it. The view wraps the source's raw view with
// the badge's correction (rectview.go) and is cached; a badge that first
// appears after NewPipeline fitted the corrections reads on its local
// clock, unless the corrections passed to WithCorrections cover it. The
// view is live: records later appended to the source read through it.
func (p *Pipeline) View(id store.BadgeID) (store.View, bool) {
	p.viewMu.Lock()
	defer p.viewMu.Unlock()
	if v, ok := p.views[id]; ok {
		return v, true
	}
	raw, ok := p.src.Data.View(id)
	if !ok {
		return nil, false
	}
	if p.views == nil {
		p.views = make(map[store.BadgeID]store.View)
	}
	v := rectifyView(raw, p.corrections[id])
	p.views[id] = v
	return v, true
}

// sourceBytes returns the source's framed-encoding size (the paper's
// "150 GiB" figure) if the backend can answer it; 0 otherwise.
func (p *Pipeline) sourceBytes() int64 {
	if eb, ok := p.src.Data.(interface{ EncodedBytes() int64 }); ok {
		return eb.EncodedBytes()
	}
	return 0
}

// dayRange returns the [start, end) reference times of a mission day.
func dayRange(day int) (time.Duration, time.Duration) {
	return simtime.StartOfDay(day), simtime.StartOfDay(day + 1)
}

// dayView returns the view of the badge the astronaut wore on day
// (ok == false without an assignment or data).
func (p *Pipeline) dayView(name string, day int) (store.View, bool) {
	if id := p.src.BadgeFor(name, day); id != 0 {
		return p.View(id)
	}
	return nil, false
}

// windowIter returns a streaming cursor over one fold window: the day
// range of the badge the astronaut wore that day, optionally restricted to
// one kind (empty without an assignment or data).
func (p *Pipeline) windowIter(name string, day int, k record.Kind) record.Cursor {
	v, ok := p.dayView(name, day)
	if !ok {
		return record.NewCursor(nil)
	}
	from, to := dayRange(day)
	return v.Iter(from, to, k)
}

// windowTimes is windowIter's timestamp-only projection: the Local of
// every record in the fold window, across all kinds.
func (p *Pipeline) windowTimes(name string, day int) record.TimeCursor {
	v, ok := p.dayView(name, day)
	if !ok {
		return record.TimeCursor{}
	}
	from, to := dayRange(day)
	return v.Times(from, to)
}

// crewIter chains the astronaut's per-day windows into one continuous
// cursor over the data days — the whole-mission stream the cross-day
// scans (worn ranges, RecordsFor, the environment series) fold, without
// ever materializing it.
func (p *Pipeline) crewIter(name string, k record.Kind) record.Cursor {
	day := p.src.FirstDay
	var cur record.Cursor
	started := false
	return record.PullCursor(func() []record.Record {
		for {
			if started {
				if b := cur.NextBatch(); b != nil {
					return b
				}
			}
			if day > p.src.LastDay {
				return nil
			}
			cur = p.windowIter(name, day, k)
			started = true
			day++
		}
	})
}

// windowMemo reports whether window results are memoized: only while the
// pipeline is following its source (Follow), where an append invalidates
// the windows it lands in and the rest must stay warm. It decides what is
// cached, never how a window is derived.
func (p *Pipeline) windowMemo() bool { return p.following.Load() }

// foldWindows derives an astronaut-level series from the astronaut's fold
// windows in day order: produce runs over each assigned day's windowIter
// cursor of the given kind and appends to dst. While following, each
// window's result is memoized in m and copied out; otherwise produce
// appends straight into the output, so a batch pipeline grows one slice
// per astronaut and holds no partial. Both give the same slice.
func foldWindows[T any](p *Pipeline, m *memo[wkey, []T], name string, kind record.Kind, produce func(dst []T, k wkey, c *record.Cursor) []T) []T {
	window := func(dst []T, k wkey) []T {
		it := p.windowIter(k.name, k.day, kind)
		return produce(dst, k, &it)
	}
	var out []T
	for day := p.src.FirstDay; day <= p.src.LastDay; day++ {
		if p.src.BadgeFor(name, day) == 0 {
			continue
		}
		k := wkey{name, day}
		if !p.windowMemo() {
			out = window(out, k)
			continue
		}
		out = append(out, m.get(k, func(k wkey) []T { return window(nil, k) })...)
	}
	return out
}

// RecordsFor returns the astronaut's records across all data days,
// concatenated according to the day-wise badge assignment and rectified to
// mission time. Computed once per astronaut; the returned slice is a
// shared read-only view.
func (p *Pipeline) RecordsFor(name string) []record.Record {
	p.beginAnalysis()
	defer p.endAnalysis()
	return p.recordsFor(name)
}

func (p *Pipeline) recordsFor(name string) []record.Record {
	return p.recordsCache.get(name, func(name string) []record.Record {
		defer p.observeStage("records", time.Now())
		// Materialization is what the public accessor promises; the report
		// path never takes it — every derivation streams windowIter/crewIter
		// cursors instead, which is what keeps out-of-core sources
		// out-of-core.
		var out []record.Record
		it := p.crewIter(name, 0)
		for b := it.NextBatch(); b != nil; b = it.NextBatch() {
			out = append(out, b...)
		}
		return out
	})
}

// hasRecords probes whether the astronaut has any records in the data days
// without materializing them: at most one timestamp batch per assigned day.
func (p *Pipeline) hasRecords(name string) bool {
	for day := p.src.FirstDay; day <= p.src.LastDay; day++ {
		it := p.windowTimes(name, day)
		if len(it.NextBatch()) > 0 {
			return true
		}
	}
	return false
}

// WornRanges returns the astronaut's badge-worn periods (memoized).
func (p *Pipeline) WornRanges(name string) record.RangeSet {
	p.beginAnalysis()
	defer p.endAnalysis()
	return p.wornRanges(name)
}

func (p *Pipeline) wornRanges(name string) record.RangeSet {
	return p.wornCache.get(name, func(name string) record.RangeSet {
		defer p.observeStage("worn", time.Now())
		// Worn ranges are a stateful open/close scan across the whole
		// mission (a badge can stay on over midnight), so they fold at the
		// astronaut level, not per window — one streaming pass over the
		// chained day cursors.
		it := p.crewIter(name, record.KindWear)
		return record.WornRangesCursor(&it, p.Horizon())
	})
}

// Track returns the astronaut's localization fixes while the badge was
// worn (an unworn badge still scans from wherever it lies, which would
// corrupt mobility analyses). Memoized; the returned slice is a shared
// read-only view.
func (p *Pipeline) Track(name string) []localization.Fix {
	p.beginAnalysis()
	defer p.endAnalysis()
	return p.track(name)
}

func (p *Pipeline) track(name string) []localization.Fix {
	return p.trackCache.get(name, func(name string) []localization.Fix {
		defer p.observeStage("track", time.Now())
		// The window divides the day (checked by NewPipeline), so no window
		// straddles midnight: folding per day gives the windows of one
		// whole-stream pass, in the same order.
		return foldWindows(p, &p.winTrack, name, record.KindBeacon,
			func(dst []localization.Fix, k wkey, c *record.Cursor) []localization.Fix {
				return p.locator.TrackCursor(dst, c, p.locWindow, p.wornRanges(k.name))
			})
	})
}

// Intervals returns the astronaut's room-stay intervals with the pipeline's
// dwell filter applied (memoized).
func (p *Pipeline) Intervals(name string) []localization.Interval {
	p.beginAnalysis()
	defer p.endAnalysis()
	return p.intervals(name)
}

func (p *Pipeline) intervals(name string) []localization.Interval {
	return p.intervalCache.get(name, func(name string) []localization.Interval {
		defer p.observeStage("intervals", time.Now())
		// Interval assembly bridges gaps and deletes blips across day
		// boundaries, so it derives from the concatenated track — the
		// astronaut level is the lowest at which it is exact.
		return localization.RoomIntervals(p.track(name), p.minDwell, localization.DefaultMaxGap)
	})
}

// Frames returns the astronaut's analyzed mic frames while worn (memoized).
func (p *Pipeline) Frames(name string) []speech.Frame {
	p.beginAnalysis()
	defer p.endAnalysis()
	return p.frames(name)
}

func (p *Pipeline) frames(name string) []speech.Frame {
	return p.framesCache.get(name, func(name string) []speech.Frame {
		defer p.observeStage("frames", time.Now())
		return foldWindows(p, &p.winFrames, name, record.KindMic,
			func(dst []speech.Frame, k wkey, c *record.Cursor) []speech.Frame {
				return speech.FramesCursor(dst, c, speech.DefaultConfig(), p.wornRanges(k.name))
			})
	})
}

// walkingSamples returns the astronaut's worn-time classified activity
// windows — the single source for WalkingFraction and WalkingByDay, so the
// mission-level and per-day walking figures always agree on the worn-time
// filter.
func (p *Pipeline) walkingSamples(name string) []activity.Sample {
	p.beginAnalysis()
	defer p.endAnalysis()
	return p.activitySamples(name)
}

func (p *Pipeline) activitySamples(name string) []activity.Sample {
	return p.activityCache.get(name, func(name string) []activity.Sample {
		defer p.observeStage("activity", time.Now())
		// activity.DefaultConfig's window divides the day (pinned by a
		// test), so per-day and whole-stream windows are the same.
		return foldWindows(p, &p.winActivity, name, record.KindAccel,
			func(dst []activity.Sample, k wkey, c *record.Cursor) []activity.Sample {
				return activity.ClassifyCursor(dst, c, activity.DefaultConfig(), p.wornRanges(k.name))
			})
	})
}

// contacts returns the astronaut's attributed IR contacts, folded from
// the astronaut's windows in day order. Peer attribution uses the window
// day's wearers inverse.
func (p *Pipeline) contacts(name string) []proximity.Contact {
	return foldWindows(p, &p.winContacts, name, record.KindIR,
		func(dst []proximity.Contact, k wkey, c *record.Cursor) []proximity.Contact {
			for c.Next() {
				r := c.Record()
				if peer, ok := p.wearerOf(store.BadgeID(r.PeerID), k.day); ok {
					dst = append(dst, proximity.Contact{At: r.Local, A: k.name, B: peer})
				}
			}
			return dst
		})
}

// dayWearers builds the day's BadgeID→astronaut inverse of the assignment.
// Like the linear BadgeFor scan it replaces, the first astronaut in crew
// order wins if two names map to one badge.
func (p *Pipeline) dayWearers(day int) map[store.BadgeID]string {
	out := make(map[store.BadgeID]string, len(p.src.Names))
	for _, name := range p.src.Names {
		id := p.src.BadgeFor(name, day)
		if id == 0 {
			continue
		}
		if _, taken := out[id]; !taken {
			out[id] = name
		}
	}
	return out
}

// wearerOf inverts BadgeFor for one data day.
func (p *Pipeline) wearerOf(id store.BadgeID, day int) (string, bool) {
	name, ok := p.wearers[day-p.src.FirstDay][id]
	return name, ok
}
