package support

import (
	"time"

	"icares/internal/record"
	"icares/internal/sociometry"
	"icares/internal/speech"
	"icares/internal/store"
	"icares/internal/timesync"
)

// Analytics couples the support daemon to the sociometric pipeline's
// incremental operators: it owns a live dataset, keeps a following pipeline
// subscribed to it, and feeds it every record the daemon ingests (after the
// privacy scrub). Where the detectors answer "is something wrong right
// now", the analytics answer the paper's sociometric questions — passages,
// mobility, speech, face-to-face time — continuously over everything
// received so far, recomputing only the (astronaut, day) windows each new
// record lands in rather than re-running the offline batch analysis. A
// wear record also recomputes its astronaut's track, speech and activity
// windows of every later day, because it changes their worn set from its
// own time on; wear records are rare, so this stays window-scoped in
// practice.
type Analytics struct {
	live *store.Dataset
	pipe *sociometry.Pipeline
	stop func()
}

// NewAnalytics builds a live analytics instance for the given source. The
// source's Data is ignored: analytics own a fresh dataset that fills
// through Ingest, so the mission's offline store is never mutated by the
// online path. The pipeline reads through the given clock corrections:
// the live dataset starts empty, so there is nothing to fit them from, and
// corrections fitted over the complete data make the live results equal
// the batch pipeline's. Nil is the timesync ablation.
func NewAnalytics(src sociometry.Source, corrections map[store.BadgeID]timesync.Correction) (*Analytics, error) {
	live := store.NewDataset()
	src.Data = live
	p, err := sociometry.NewPipeline(src, sociometry.WithCorrections(corrections))
	if err != nil {
		return nil, err
	}
	a := &Analytics{live: live, pipe: p}
	a.stop = p.Follow()
	return a, nil
}

// Ingest folds a run of one badge's records in, in order, with one append
// (the same result as one call per record); recs is not retained. Like the
// daemon, analytics assume a single ingesting goroutine; queries may run
// concurrently with ingestion.
func (a *Analytics) Ingest(id store.BadgeID, recs ...record.Record) {
	a.live.Series(id).AppendBatch(recs)
}

// Reserve hints that about n records of badge id will be ingested, so its
// live series is allocated once at that size (see store.Dataset.Reserve).
// Records dropped by the privacy scrub make n an upper bound, which is
// fine: the hint changes allocation only, never what is read.
func (a *Analytics) Reserve(id store.BadgeID, n int) {
	a.live.Reserve(id, n)
}

// Pipeline exposes the following pipeline for ad-hoc queries.
func (a *Analytics) Pipeline() *sociometry.Pipeline { return a.pipe }

// Close cancels the pipeline's dataset subscription. The pipeline stays
// queryable over what has been ingested.
func (a *Analytics) Close() {
	if a.stop != nil {
		a.stop()
		a.stop = nil
	}
}

// AnalyticsSnapshot is a point-in-time sociometric summary over everything
// ingested so far.
type AnalyticsSnapshot struct {
	// Records is the total record count folded in.
	Records int
	// Passages is the crew's Fig. 2 transition total.
	Passages int
	// Walking is each astronaut's worn-time walking fraction.
	Walking map[string]float64
	// Speech is each astronaut's worn-time speech fraction.
	Speech map[string]float64
	// FaceToFace is the total pairwise IR-confirmed interaction time.
	FaceToFace time.Duration
}

// Snapshot computes the current summary. Repeated snapshots between
// ingests answer from the pipeline's caches; after ingests, only the
// touched windows recompute.
func (a *Analytics) Snapshot() AnalyticsSnapshot {
	snap := AnalyticsSnapshot{
		Records:    a.live.TotalRecords(),
		Passages:   a.pipe.Transitions(nil).Total(),
		Walking:    make(map[string]float64),
		Speech:     make(map[string]float64),
		FaceToFace: a.pipe.FaceToFace(),
	}
	for _, name := range a.pipe.Source().Names {
		snap.Walking[name] = a.pipe.WalkingFraction(name)
		snap.Speech[name] = speech.Fraction(a.pipe.Frames(name))
	}
	return snap
}
