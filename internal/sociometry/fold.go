package sociometry

import (
	"time"

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
// Marks are applied lazily, at the start of the next top-level analysis
// (the inflight 0→1 transition), never while analyses are running: dropping
// caches under a running analysis could hand it a mix of old and new
// windows. Analyses that overlap an append therefore see the pre-append
// state; once appends quiesce, the next analysis folds everything pending
// in and is exact. That is the streaming contract: eventually-exact queries
// with window-scoped recomputation.

// staleKey marks one badge's data on one mission day as dirty.
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
// Corrections freeze at the first analysis, fitted on whatever sync records
// have arrived by then; pass WithCorrections at construction to make live
// results independent of that timing.
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

// markStale records that a badge received a record at the given raw device
// timestamp. Windows are reference-time days, and personal badges run
// seconds off, so the day is taken after the badge's frozen correction; a
// mark arriving before the corrections are frozen marks every day of the
// badge instead. It is the one-record form of markStaleBatch, which Follow
// uses: both leave the same stale set. Cheap and lock-scoped: safe to call
// from the source's append path.
func (p *Pipeline) markStale(id store.BadgeID, local time.Duration) {
	first, last := p.src.FirstDay, p.src.LastDay
	if p.rectified.Load() {
		day := simtime.DayOf(p.corrections[id].ToReference(local))
		if day < first || day > last {
			// Outside the analysis range: no derivation reads it.
			return
		}
		first, last = day, day
	}
	p.markDays(id, first, last)
}

// markStaleBatch marks the windows a batch of one badge's records lands in,
// leaving the stale set markStale would leave record by record. With
// corrections frozen it takes each record's corrected day and marks once
// per run of records on equal days; before that, one all-days mark covers
// the whole batch. Corrections only ever go from unfrozen to frozen, so
// one check serves the batch.
func (p *Pipeline) markStaleBatch(id store.BadgeID, recs []record.Record) {
	if len(recs) == 0 {
		return
	}
	if !p.rectified.Load() {
		p.markDays(id, p.src.FirstDay, p.src.LastDay)
		return
	}
	c := p.corrections[id]
	prev := -1 // DayOf is never negative
	for _, r := range recs {
		day := simtime.DayOf(c.ToReference(r.Local))
		if day != prev && day >= p.src.FirstDay && day <= p.src.LastDay {
			p.markDays(id, day, day)
		}
		prev = day
	}
}

// markDays marks the badge's windows on days first..last stale.
func (p *Pipeline) markDays(id store.BadgeID, first, last int) {
	p.staleMu.Lock()
	if p.stale == nil {
		p.stale = make(map[staleKey]struct{})
	}
	for day := first; day <= last; day++ {
		p.stale[staleKey{id, day}] = struct{}{}
	}
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

// applyStale drains the stale set and drops exactly the caches it touches:
// first every dirty window partial, then the astronaut-level caches folding
// them (in that order, so a recompute never mixes fresh and stale windows),
// then the crew-level presence fold.
func (p *Pipeline) applyStale() {
	p.foldMu.Lock()
	defer p.foldMu.Unlock()

	p.staleMu.Lock()
	dirty := p.stale
	p.stale = nil
	p.staleFlag.Store(false)
	p.staleMu.Unlock()
	if len(dirty) == 0 {
		return
	}

	// A badge maps to wearers through the assignment, which may alias (two
	// names nominally assigned one badge), so scan all names per dirty day
	// rather than trusting the first-wins wearers inverse.
	affected := make(map[string]struct{})
	for k := range dirty {
		for _, name := range p.src.Names {
			if p.src.BadgeFor(name, k.day) != k.id {
				continue
			}
			w := wkey{name, k.day}
			p.winTrack.drop(w)
			p.winFrames.drop(w)
			p.winActivity.drop(w)
			p.winContacts.drop(w)
			p.winActive.drop(w)
			affected[name] = struct{}{}
		}
	}
	if len(affected) == 0 {
		return
	}
	for name := range affected {
		p.recordsCache.drop(name)
		p.wornCache.drop(name)
		p.trackCache.drop(name)
		p.intervalCache.drop(name)
		p.framesCache.drop(name)
		p.activityCache.drop(name)
	}
	p.presenceCache.reset()
}
