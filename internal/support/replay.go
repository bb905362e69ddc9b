package support

import (
	"cmp"
	"slices"
	"time"

	"icares/internal/offload"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/store"
	"icares/internal/telemetry"
)

// ReplayStep is the replayer's clock advance per Step: records timestamped
// inside the window are enqueued on their badge's uploader, every uploader
// gets one flush round at the window's start, the records the gateway
// releases are applied to the daemon, and the daemon sweeps its detectors
// at the window's end.
const ReplayStep = time.Minute

// drainGrace is how long past the horizon a replayer keeps flushing before
// declaring leftover batches undeliverable. It exceeds every fault-plan
// window and the uploader's maximum backoff.
const drainGrace = 24 * time.Hour

// Replayer feeds a recorded dataset to a daemon the way the habitat
// delivers it live: each badge's SD-card series is offered, window by
// window, to that badge's offload.Uploader; the uploaders flush over
// Transport into one offload.Gateway; and the daemon ingests what the
// gateway releases in each window, badge by badge, then sweeps its
// detectors once at the window's end. It is the one path from a dataset
// to a daemon — the bridge between the offline datasets of this
// repository and the real-time support system. Faults between badge and
// gateway delay records (the uploaders retransmit) rather than drop them;
// a record is lost only when it is still undelivered a day past the
// horizon.
//
// A Replayer is single-threaded: Step, Run and the accessors must be
// called from one goroutine.
type Replayer struct {
	daemon   *Daemon
	wearerOf func(store.BadgeID, int) (string, bool)

	gateway   *offload.Gateway
	badges    []store.BadgeID     // sorted
	uploaders []*offload.Uploader // uploaders[i] sends badges[i]'s records
	// Transport carries the uploaders' batches to the gateway. It starts
	// as the gateway itself; to put faults between badge and gateway, wrap
	// it before the first Step, e.g. in a faultplan.Transport on Now.
	Transport offload.Transport

	// unfed[i] is what uploaders[i]'s badge has not yet enqueued: a
	// zero-copy, time-ordered view of its SD-card series up to the horizon.
	unfed [][]record.Record
	// staged collects the batches the gateway released during the current
	// flush round, applied to the daemon in badge order.
	staged []offload.Batch

	records, ingested, undelivered int
	now, horizon                   time.Duration
	started, done                  bool
}

// NewReplayer builds a replayer that feeds ds's records in [0, horizon) to
// d. wearerOf resolves a badge's wearer on a mission day (false: none).
func NewReplayer(d *Daemon, ds *store.Dataset, horizon time.Duration, wearerOf func(store.BadgeID, int) (string, bool)) *Replayer {
	r := &Replayer{daemon: d, wearerOf: wearerOf, horizon: horizon}
	r.gateway, _ = offload.NewGateway(r.stage) // fails only on a nil sink
	r.gateway.MaxHeldPerBadge = 64
	r.Transport = offload.TransportFunc(r.gateway.Offer)
	for _, id := range ds.Badges() {
		recs := ds.Series(id).Range(0, horizon)
		r.badges = append(r.badges, id)
		r.uploaders = append(r.uploaders, offload.NewUploader(id))
		r.unfed = append(r.unfed, recs)
		r.records += len(recs)
	}
	return r
}

// Instrument mirrors the gateway's and the uploaders' counters into reg.
func (r *Replayer) Instrument(reg *telemetry.Registry) {
	r.gateway.Instrument(reg)
	for _, u := range r.uploaders {
		u.Instrument(reg)
	}
}

// AttachJournal wires the gateway and the uploaders into a flight
// recorder, on the replayer's clock.
func (r *Replayer) AttachJournal(j *telemetry.Journal) {
	r.gateway.AttachJournal(j, r.Now)
	for _, u := range r.uploaders {
		u.AttachJournal(j)
	}
}

// stage is the gateway's exactly-once, per-badge-ordered sink. The gateway
// invokes it under its own lock during a flush round; batches are staged
// as released and applied to the daemon once the round completes.
func (r *Replayer) stage(id store.BadgeID, recs []record.Record) {
	r.staged = append(r.staged, offload.Batch{Badge: id, Records: recs})
}

// Step advances the replayer's clock by one ReplayStep window: enqueue the
// window's records, flush every uploader, apply whatever the gateway
// released, sweep the daemon's detectors at the window's end if any record
// arrived, and detect completion. A window with no delivery gets no sweep:
// the detectors judge silence only against delivered data, so an RF outage
// or a gateway crash alone raises no alert. Across an idle gap (overnight,
// pre-deployment) with nothing in flight, the clock jumps to the next
// record's window. It returns how many records reached the daemon.
//
// The first Step reserves each badge's live analytics series (if the
// daemon has analytics attached by then) at the length of the badge's
// feed, so the in-order live appends fill one array without regrowing.
func (r *Replayer) Step() int {
	if r.done {
		return 0
	}
	if !r.started {
		r.started = true
		if a := r.daemon.analytics; a != nil {
			for i, id := range r.badges {
				a.Reserve(id, len(r.unfed[i]))
			}
		}
	}
	hi := r.now + ReplayStep
	// Each badge's window is one contiguous run of its view. Uploaders are
	// independent and only buffer until FlushAt, so the order in which
	// badges enqueue within a step is unobservable.
	next := time.Duration(-1) // earliest record not yet enqueued, -1 if none
	for i, recs := range r.unfed {
		k := 0
		for k < len(recs) && recs[k].Local < hi {
			k++
		}
		r.uploaders[i].Enqueue(recs[:k]...)
		r.unfed[i] = recs[k:]
		if k < len(recs) && (next < 0 || recs[k].Local < next) {
			next = recs[k].Local
		}
	}
	inFlight := false
	for _, u := range r.uploaders {
		u.FlushAt(r.now, r.Transport)
		if s := u.StatsSnapshot(); s.Buffered > 0 || s.Pending > 0 {
			inFlight = true
		}
	}
	n := r.apply()
	if n > 0 {
		r.daemon.Sweep(hi)
	}
	r.now = hi

	switch {
	case next >= 0:
		if !inFlight && next > hi {
			r.now = next.Truncate(ReplayStep)
		}
	case !inFlight:
		r.done = true
	case r.now > r.horizon+drainGrace:
		// Whatever is still pending will never deliver (e.g. a badge that
		// died before its final flush window). Every record has been fed
		// by now, and the gateway delivers exactly once, so the shortfall
		// is exact.
		r.undelivered = r.records - r.ingested
		r.done = true
	}
	return n
}

// apply feeds the staged gateway output to the daemon badge by badge, each
// badge's batches in release order (the gateway releases a badge's records
// in sequence), so the apply order depends only on what the window
// delivered, not on the order the gateway released badges in. Each run of
// equal-day records is one batch: the wearer is resolved once per run.
func (r *Replayer) apply() int {
	slices.SortStableFunc(r.staged, func(a, b offload.Batch) int { return cmp.Compare(a.Badge, b.Badge) })
	n := 0
	for _, b := range r.staged {
		for recs := b.Records; len(recs) > 0; {
			day := simtime.DayOf(recs[0].Local)
			k := 1
			for k < len(recs) && simtime.DayOf(recs[k].Local) == day {
				k++
			}
			wearer, _ := r.wearerOf(b.Badge, day)
			r.daemon.IngestBatch(wearer, b.Badge, recs[:k])
			recs = recs[k:]
		}
		n += len(b.Records)
	}
	clear(r.staged) // release the batches' records to the collector
	r.staged = r.staged[:0]
	r.ingested += n
	return n
}

// Run steps the replayer to completion and returns how many records it
// ingested on the way.
func (r *Replayer) Run() int {
	n := 0
	for !r.done {
		n += r.Step()
	}
	return n
}

// Now returns the replayer's clock: the start of the next Step's window.
func (r *Replayer) Now() time.Duration { return r.now }

// Done reports whether every record has been delivered or given up on.
func (r *Replayer) Done() bool { return r.done }

// Records returns the size of the feed: the dataset's records in
// [0, horizon).
func (r *Replayer) Records() int { return r.records }

// Ingested returns how many records have reached the daemon.
func (r *Replayer) Ingested() int { return r.ingested }

// Undelivered returns how many records the replayer gave up on; it is set
// once, when Done turns true, and Ingested()+Undelivered() == Records()
// from then on.
func (r *Replayer) Undelivered() int { return r.undelivered }
