package sociometry

import (
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/store"
)

// This file is the pipeline's incremental fold machinery: how records that
// arrive after the first analysis are folded into the memoized derivations
// without recomputing the mission.
//
// The unit of invalidation is the fold window — one (astronaut, day). An
// appended record marks exactly its (badge, day) stale; applying the marks
// drops that window's partials plus the astronaut-level caches that fold
// them, and nothing else. A record landing on day 9 leaves days 2..8 of the
// same astronaut — and every other astronaut — warm.
//
// Wear records are the one exception. The track, mic frames and activity
// windows are produced under the astronaut's worn set, and whether time t
// is worn depends only on the wear records at or before t
// (record.WornRangesCursor). So a mark that holds a wear record also drops
// those three partials of every later day of the astronaut, through
// LastDay — and still none before its own day.
//
// Marks are applied lazily, at the start of the next top-level analysis
// (the inflight 0→1 transition), never while analyses are running: dropping
// caches under a running analysis could hand it a mix of old and new
// windows. Analyses that overlap an append therefore see the pre-append
// state; once appends quiesce, the next analysis folds everything pending
// in and is exact. That is the streaming contract: eventually-exact queries
// with window-scoped recomputation.

// staleKey marks one badge's data on one mission day as dirty; the stale
// set maps it to whether any record behind the mark is a wear record.
type staleKey struct {
	id  store.BadgeID
	day int
}

// Follow subscribes the pipeline to its source's append notifications so
// that records arriving after analyses ran are folded in incrementally: an
// appended batch marks only its (badge, day) windows stale (markStaleBatch),
// and the next analysis recomputes just the affected windows and the
// astronaut-level results folding them. The returned stop function cancels
// the subscription. A source without a Subscribe method (a segment archive)
// never appends; there is nothing to follow.
//
// The clock corrections stay those NewPipeline fitted on whatever sync
// records the source held then (none, for a live dataset built empty);
// pass WithCorrections fitted over complete data to make a live pipeline's
// results equal the batch pipeline's.
func (p *Pipeline) Follow() (stop func()) {
	src, ok := p.src.Data.(interface {
		Subscribe(func(store.BadgeID, []record.Record)) (cancel func())
	})
	if !ok {
		return func() {}
	}
	p.following.Store(true)
	return src.Subscribe(p.markStaleBatch)
}

// markStaleBatch marks the windows a batch of one badge's records lands in.
// Windows are reference-time days, and personal badges run seconds off, so
// each record's day is taken from its raw device timestamp after the
// badge's correction; a record outside the analysis range marks nothing,
// since no derivation reads it. It marks once per run of records on equal
// days, and again for each wear record, so the stale set is the one that
// marking record by record would leave. Any non-empty batch raises the
// stale flag, marked or not, because the report's encoded volume counts
// it. Cheap and lock-scoped: safe to call from the source's append path.
func (p *Pipeline) markStaleBatch(id store.BadgeID, recs []record.Record) {
	c := p.corrections[id]
	prev := -1 // DayOf is never negative
	for _, r := range recs {
		day := simtime.DayOf(c.ToReference(r.Local))
		wear := r.Kind == record.KindWear
		if (day != prev || wear) && day >= p.src.FirstDay && day <= p.src.LastDay {
			p.markDay(staleKey{id, day}, wear)
		}
		prev = day
	}
	if len(recs) > 0 {
		p.staleFlag.Store(true)
	}
}

// markDay marks one badge's window on one day stale, noting whether the
// mark holds a wear record (a mark once set to hold one keeps it until
// applied).
func (p *Pipeline) markDay(k staleKey, wear bool) {
	p.staleMu.Lock()
	if p.stale == nil {
		p.stale = make(map[staleKey]bool)
	}
	p.stale[k] = p.stale[k] || wear
	p.staleMu.Unlock()
	p.staleFlag.Store(true)
}

// beginAnalysis enters an analysis, folding pending stale marks in first if
// this is the outermost entry. Nested and concurrent analyses never apply
// marks mid-flight — they would tear caches out from under running work.
func (p *Pipeline) beginAnalysis() {
	if p.inflight.Add(1) == 1 && p.staleFlag.Load() {
		p.applyStale()
	}
}

// endAnalysis leaves an analysis.
func (p *Pipeline) endAnalysis() {
	p.inflight.Add(-1)
}

// applyStale drains the stale set and drops exactly the caches it touches,
// each cache after every cache it reads, so that a query running beside the
// fold (one that entered after the 0→1 transition) never rebuilds a cache
// from one already due to be dropped: first the affected astronauts' worn
// sets, then every dirty window partial (and, for a mark holding a wear
// record, the worn-derived partials of the astronaut's later days), then
// the astronaut-level caches folding them, then the two crew-level folds:
// the crew fold (presence and its co-presence summary, read from the
// intervals) and the IR pair map (read from the contact windows), and
// last the rendered report, which reads every other cache. A partial
// reads the worn set when it is computed, so one rebuilt after its drop
// reads a worn set rebuilt after the wear record. A report rendered beside
// the fold is orphaned by that last drop. The report drops on every fold,
// even one whose marks dirty no window: its encoded volume counts every
// appended record.
func (p *Pipeline) applyStale() {
	p.foldMu.Lock()
	defer p.foldMu.Unlock()
	defer p.reportCache.reset()

	p.staleMu.Lock()
	dirty := p.stale
	p.stale = nil
	p.staleFlag.Store(false)
	p.staleMu.Unlock()

	// A badge maps to wearers through the assignment, which may alias (two
	// names nominally assigned one badge), so scan all names per dirty day
	// rather than trusting the first-wins wearers inverse.
	windows := make(map[wkey]bool) // dirty window → its mark holds a wear record
	affected := make(map[string]struct{})
	for k, wear := range dirty {
		for _, name := range p.src.Names {
			if p.src.BadgeFor(name, k.day) == k.id {
				w := wkey{name, k.day}
				windows[w] = windows[w] || wear
				affected[name] = struct{}{}
			}
		}
	}
	if len(affected) == 0 {
		return
	}
	for name := range affected {
		p.wornCache.drop(name)
	}
	for w, wear := range windows {
		p.winContacts.drop(w)
		p.winActive.drop(w)
		last := w.day
		if wear {
			// The astronaut's worn set changes from this day on, on
			// whichever badge they wore later.
			last = p.src.LastDay
		}
		for day := w.day; day <= last; day++ {
			d := wkey{w.name, day}
			p.winTrack.drop(d)
			p.winFrames.drop(d)
			p.winActivity.drop(d)
		}
	}
	if p.foldHook != nil {
		p.foldHook()
	}
	for name := range affected {
		p.recordsCache.drop(name)
		p.trackCache.drop(name)
		p.intervalCache.drop(name)
		p.framesCache.drop(name)
		p.activityCache.drop(name)
	}
	p.crewCache.reset()
	p.irCache.reset()
}
