// Package offload is the in-habitat data path between badges and the
// support system's gateway. The ICAres-1 badges stored raw data on SD
// cards for offline analysis; the paper's Section VI vision requires the
// same records to reach a habitat server in (near) real time, over radios
// that lose packets and through coverage gaps when the bearer roams.
//
// The protocol is deliberately simple and robust: badges buffer records,
// ship them in sequence-numbered batches, and retransmit until
// acknowledged (at-least-once); the gateway deduplicates by (badge,
// sequence), so the server-side stream is exactly-once in effect. All
// state fits a microcontroller: one counter, one pending-batch map.
//
// # Concurrency and observability
//
// Gateway and Uploader are safe for concurrent use: all state, including
// the stat counters, lives behind one mutex per component, and the only
// way to read statistics is a single consistent StatsSnapshot — a scraper
// can never observe refused from one instant and batches from another.
// Components optionally mirror their counters into a telemetry.Registry
// (Instrument) for live exposition.
package offload

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"icares/internal/record"
	"icares/internal/store"
	"icares/internal/telemetry"
)

// Batch is one transfer unit.
type Batch struct {
	Badge   store.BadgeID
	Seq     uint64
	Records []record.Record
}

// Transport delivers a batch toward the gateway and reports whether an
// acknowledgement came back. Implementations model radio loss: a false
// return means either the batch or its ack was lost — the sender cannot
// tell which, which is exactly why the gateway must deduplicate.
type Transport interface {
	Deliver(Batch) (acked bool)
}

// TransportFunc adapts a function to Transport.
type TransportFunc func(Batch) bool

// Deliver implements Transport.
func (f TransportFunc) Deliver(b Batch) bool { return f(b) }

// Gateway is the habitat-side receiver: it forwards each batch's records
// to the sink exactly once and in sequence order. Deduplication and
// ordering state per badge: mark is the contiguous high-water sequence
// (everything <= mark has been released to the sink), held buffers
// out-of-order batches above the mark until the gap fills. Memory stays
// bounded by the uploader's MaxPending window, and MaxHeldPerBadge adds a
// hard cap for misbehaving senders.
//
// Acknowledgement is responsibility transfer, and responsibility requires
// durability: only batches at or below the mark — forwarded to the sink,
// watermark advanced — are acked (including re-acks of duplicates, since
// the original ack may have been lost). An out-of-order batch is buffered
// in held but NOT acked: held is volatile, and acking it would let the
// sender discard records a crash could still destroy. The sender simply
// keeps such batches pending and retransmits; once the gap fills and the
// mark passes them, the retransmission collects a duplicate re-ack.
//
// Durability: mark advances atomically with sink forwarding, so Snapshot
// (marks only) models the write-ahead state a real gateway persists with
// its server store; held is volatile and lost on a crash. Because nothing
// volatile is ever acked, a gateway restarted via Restore re-converges to
// exactly-once purely through the uploaders' retransmissions.
//
// A Gateway is safe for concurrent use. The sink runs while the gateway's
// lock is held (forwarding and watermark advance must be atomic), so a
// sink must not call back into the same gateway.
type Gateway struct {
	// MaxHeldPerBadge bounds buffered out-of-order batches per badge; at
	// the bound, non-gap-filling batches are refused (not acked) so the
	// sender retries them later. Zero means unbounded. Set it before
	// concurrent use begins.
	MaxHeldPerBadge int

	mu   sync.Mutex
	sink func(store.BadgeID, []record.Record)
	mark map[store.BadgeID]uint64
	held map[store.BadgeID]map[uint64][]record.Record
	// heldBatches/heldRecords track the held totals incrementally so a
	// snapshot is O(1) instead of walking every buffered batch.
	heldBatches, heldRecords     int
	batches, duplicates, refused int

	// Telemetry mirrors (nil until Instrument; nil handles are no-ops).
	cBatches, cDuplicates, cRefused *telemetry.Counter
	gHeldBatches, gHeldRecords      *telemetry.Gauge

	// Flight recorder (nil until AttachJournal; a nil journal is a no-op).
	journal *telemetry.Journal
	clock   func() time.Duration
}

// GatewayStats is one consistent view of a gateway's receive counters:
// every field was read under the same lock acquisition, at one instant.
type GatewayStats struct {
	// Batches counts every Offer, including duplicates and refusals.
	Batches int
	// Duplicates counts re-offered batches (already forwarded, or already
	// buffered in held).
	Duplicates int
	// Refused counts out-of-order batches turned away at the held bound.
	Refused int
	// HeldBatches and HeldRecords measure the buffered out-of-order state
	// across all badges: batches (and the records inside them) above a
	// sequence gap, waiting for it to fill.
	HeldBatches, HeldRecords int
}

// ErrNilSink reports a gateway without a destination.
var ErrNilSink = errors.New("offload: nil sink")

// NewGateway builds a gateway forwarding to sink. The sink owns the slice
// it is handed for reading: every release is a copy the gateway and
// uploaders never write again, so a sink may keep it past the call instead
// of copying it. It must not write to it, since an uploader whose ack was
// lost still holds the same records to retransmit.
func NewGateway(sink func(store.BadgeID, []record.Record)) (*Gateway, error) {
	if sink == nil {
		return nil, ErrNilSink
	}
	return &Gateway{
		sink: sink,
		mark: make(map[store.BadgeID]uint64),
		held: make(map[store.BadgeID]map[uint64][]record.Record),
	}, nil
}

// Instrument mirrors the gateway's counters into reg:
//
//	offload_gateway_batches_total, offload_gateway_duplicates_total,
//	offload_gateway_refused_total, offload_gateway_held_batches,
//	offload_gateway_held_records
//
// A nil registry uninstalls the mirrors.
func (g *Gateway) Instrument(reg *telemetry.Registry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cBatches = reg.Counter("offload_gateway_batches_total")
	g.cDuplicates = reg.Counter("offload_gateway_duplicates_total")
	g.cRefused = reg.Counter("offload_gateway_refused_total")
	g.gHeldBatches = reg.Gauge("offload_gateway_held_batches")
	g.gHeldRecords = reg.Gauge("offload_gateway_held_records")
}

// AttachJournal wires the gateway into a flight recorder: refused batches
// and crash-restores become journal events, timestamped by clock (the
// caller's sim-time source; nil clock stamps zero). Call before concurrent
// use begins.
func (g *Gateway) AttachJournal(j *telemetry.Journal, clock func() time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.journal = j
	g.clock = clock
}

// journalAt runs under g.mu and returns the event timestamp.
func (g *Gateway) journalAt() time.Duration {
	if g.clock == nil {
		return 0
	}
	return g.clock()
}

// Offer processes one received batch and returns the acknowledgement. A
// false return means the gateway has not (yet) taken durable
// responsibility for the batch — it is out of order (buffered in volatile
// held, or refused past the held bound); the sender keeps it pending and
// retransmits until the sequence gap fills.
func (g *Gateway) Offer(b Batch) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.batches++
	g.cBatches.Inc()
	if b.Seq <= g.mark[b.Badge] {
		g.duplicates++
		g.cDuplicates.Inc()
		return true // re-ack: durably forwarded, first ack evidently lost
	}
	return g.accept(b)
}

// accept runs under g.mu.
func (g *Gateway) accept(b Batch) bool {
	m := g.held[b.Badge]
	if m == nil {
		m = make(map[uint64][]record.Record)
		g.held[b.Badge] = m
	}
	if b.Seq != g.mark[b.Badge]+1 {
		if _, ok := m[b.Seq]; ok {
			g.duplicates++ // already buffered; still awaiting the gap
			g.cDuplicates.Inc()
			return false
		}
		if g.MaxHeldPerBadge > 0 && len(m) >= g.MaxHeldPerBadge {
			g.refused++ // held full: refuse so the sender retries later
			g.cRefused.Inc()
			g.journal.Emit(g.journalAt(), telemetry.SevWarn, "offload", "offload-refused",
				"out-of-order batch refused at held cap",
				telemetry.Fu("badge", uint64(b.Badge)), telemetry.Fu("seq", b.Seq),
				telemetry.Fi("held", len(m)))
			return false
		}
		m[b.Seq] = append([]record.Record{}, b.Records...)
		g.holdDelta(1, len(b.Records))
		// Held, not acked: held is volatile, so responsibility stays with
		// the sender until the gap fills and the mark passes this batch.
		return false
	}
	// In-order: release it and any contiguous held successors.
	g.mark[b.Badge] = b.Seq
	g.sink(b.Badge, b.Records)
	for {
		recs, ok := m[g.mark[b.Badge]+1]
		if !ok {
			return true
		}
		delete(m, g.mark[b.Badge]+1)
		g.holdDelta(-1, -len(recs))
		g.mark[b.Badge]++
		g.sink(b.Badge, recs)
	}
}

// holdDelta adjusts the held totals and their gauge mirrors (under g.mu).
func (g *Gateway) holdDelta(batches, records int) {
	g.heldBatches += batches
	g.heldRecords += records
	g.gHeldBatches.Set(float64(g.heldBatches))
	g.gHeldRecords.Set(float64(g.heldRecords))
}

// StatsSnapshot returns every gateway counter from a single instant. This
// is the only read path for statistics.
func (g *Gateway) StatsSnapshot() GatewayStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GatewayStats{
		Batches:     g.batches,
		Duplicates:  g.duplicates,
		Refused:     g.refused,
		HeldBatches: g.heldBatches,
		HeldRecords: g.heldRecords,
	}
}

// Snapshot is the durable part of a gateway's state: the per-badge
// contiguous high-water marks, which advance atomically with sink
// forwarding (a write-ahead watermark in a real deployment). Held
// out-of-order batches are deliberately absent — they are volatile, and
// retransmission recovers them.
type Snapshot struct {
	Marks map[store.BadgeID]uint64
}

// Snapshot captures the durable watermark state.
func (g *Gateway) Snapshot() Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := Snapshot{Marks: make(map[store.BadgeID]uint64, len(g.mark))}
	for id, m := range g.mark {
		s.Marks[id] = m
	}
	return s
}

// Restore resets the gateway to a snapshot, dropping all volatile state —
// the crash-restart transition. Records at or below the restored marks are
// treated as duplicates (they already reached the sink), so a restarted
// gateway re-converges to exactly-once as uploaders retransmit.
func (g *Gateway) Restore(s Snapshot) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mark = make(map[store.BadgeID]uint64, len(s.Marks))
	for id, m := range s.Marks {
		g.mark[id] = m
	}
	g.journal.Emit(g.journalAt(), telemetry.SevInfo, "offload", "gateway-restore",
		"gateway restored from durable snapshot, volatile held dropped",
		telemetry.Fi("held_batches_dropped", g.heldBatches),
		telemetry.Fi("held_records_dropped", g.heldRecords),
		telemetry.Fi("badges", len(s.Marks)))
	g.held = make(map[store.BadgeID]map[uint64][]record.Record)
	g.holdDelta(-g.heldBatches, -g.heldRecords)
}

// Uploader is the badge-side sender. It is safe for concurrent use: a
// flush in one goroutine and a stats scrape in another never race, and the
// scrape sees one consistent snapshot.
type Uploader struct {
	badge store.BadgeID
	// BatchSize is the number of records per batch.
	BatchSize int
	// MaxPending bounds unacknowledged batches kept for retransmission;
	// at the bound, new records keep buffering but no new batches form.
	MaxPending int
	// BackoffBase and BackoffMax configure the capped exponential backoff
	// FlushAt applies after rounds with zero acknowledgements: the n-th
	// consecutive failed round suspends flushing for BackoffBase·2ⁿ⁻¹,
	// capped at BackoffMax. Zero BackoffBase disables backoff. TryFlush
	// (clockless) never backs off.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	mu      sync.Mutex
	buffer  []record.Record
	pending map[uint64]Batch
	nextSeq uint64

	failStreak   int
	backoffUntil time.Duration

	sent, retransmits, skipped int

	// Telemetry mirrors (nil until Instrument).
	cSent, cRetransmits, cSkipped       *telemetry.Counter
	gBuffered, gPending, gBackoffStreak *telemetry.Gauge

	// Flight recorder (nil until AttachJournal).
	journal *telemetry.Journal
}

// UploaderStats is one consistent view of an uploader's send state.
type UploaderStats struct {
	// Sent counts first transmissions, Retransmits re-sends of pending
	// batches, Skipped FlushAt calls suppressed by backoff.
	Sent, Retransmits, Skipped int
	// Buffered is records awaiting batching; Pending is batches awaiting
	// acknowledgement.
	Buffered, Pending int
	// FailStreak is the consecutive fully-failed flush rounds (the backoff
	// exponent); BackoffUntil is when FlushAt resumes (0 = not backing off).
	FailStreak   int
	BackoffUntil time.Duration
}

// NewUploader builds an uploader for a badge.
func NewUploader(badge store.BadgeID) *Uploader {
	return &Uploader{
		badge:       badge,
		BatchSize:   64,
		MaxPending:  32,
		BackoffBase: 10 * time.Second,
		BackoffMax:  10 * time.Minute,
		pending:     make(map[uint64]Batch),
	}
}

// Instrument mirrors the uploader's counters into reg, labelled by badge:
//
//	offload_uploader_sent_total{badge=...},
//	offload_uploader_retransmits_total, offload_uploader_skipped_total,
//	offload_uploader_buffered, offload_uploader_pending,
//	offload_uploader_backoff_streak
func (u *Uploader) Instrument(reg *telemetry.Registry) {
	badge := telemetry.L("badge", strconv.FormatUint(uint64(u.badge), 10))
	u.mu.Lock()
	defer u.mu.Unlock()
	u.cSent = reg.Counter("offload_uploader_sent_total", badge)
	u.cRetransmits = reg.Counter("offload_uploader_retransmits_total", badge)
	u.cSkipped = reg.Counter("offload_uploader_skipped_total", badge)
	u.gBuffered = reg.Gauge("offload_uploader_buffered", badge)
	u.gPending = reg.Gauge("offload_uploader_pending", badge)
	u.gBackoffStreak = reg.Gauge("offload_uploader_backoff_streak", badge)
}

// AttachJournal wires the uploader into a flight recorder: backoff
// enter/exit transitions become journal events, timestamped with the
// FlushAt clock. Call before concurrent use begins.
func (u *Uploader) AttachJournal(j *telemetry.Journal) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.journal = j
}

// Enqueue buffers records for upload, in order. A run of records costs one
// lock and one gauge update; recs is copied, not retained.
func (u *Uploader) Enqueue(recs ...record.Record) {
	if len(recs) == 0 {
		return
	}
	u.mu.Lock()
	u.buffer = append(u.buffer, recs...)
	u.gBuffered.Set(float64(len(u.buffer)))
	u.mu.Unlock()
}

// StatsSnapshot returns every uploader counter from a single instant.
func (u *Uploader) StatsSnapshot() UploaderStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return UploaderStats{
		Sent:         u.sent,
		Retransmits:  u.retransmits,
		Skipped:      u.skipped,
		Buffered:     len(u.buffer),
		Pending:      len(u.pending),
		FailStreak:   u.failStreak,
		BackoffUntil: u.backoffUntil,
	}
}

// FlushAt is TryFlush with capped exponential backoff on the caller's
// clock: after a round in which every delivery attempt failed, subsequent
// calls are no-ops until the backoff window elapses, doubling per
// consecutive failure up to BackoffMax — so a badge in a long RF outage
// stops hammering its radio, yet probes again within BackoffMax of
// coverage returning. Any acknowledgement resets the backoff.
func (u *Uploader) FlushAt(now time.Duration, t Transport) int {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.BackoffBase <= 0 {
		return u.tryFlush(t)
	}
	if now < u.backoffUntil {
		u.skipped++
		u.cSkipped.Inc()
		return 0
	}
	attemptsBefore := u.sent + u.retransmits
	acked := u.tryFlush(t)
	attempted := u.sent + u.retransmits - attemptsBefore
	switch {
	case acked > 0:
		if u.failStreak > 0 {
			u.journal.Emit(now, telemetry.SevInfo, "offload", "backoff-exit",
				"uploader acknowledged again, backoff reset",
				telemetry.Fu("badge", uint64(u.badge)),
				telemetry.Fi("fail_streak", u.failStreak))
		}
		u.failStreak = 0
		u.backoffUntil = 0
	case attempted > 0:
		delay := u.BackoffBase << u.failStreak
		if u.failStreak == 0 {
			u.journal.Emit(now, telemetry.SevWarn, "offload", "backoff-enter",
				"flush round fully failed, entering backoff",
				telemetry.Fu("badge", uint64(u.badge)),
				telemetry.F("delay", delay.String()))
		}
		if u.failStreak < 62 {
			u.failStreak++
		}
		if u.BackoffMax > 0 && (delay > u.BackoffMax || delay <= 0) {
			delay = u.BackoffMax
		}
		u.backoffUntil = now + delay
	}
	u.gBackoffStreak.Set(float64(u.failStreak))
	return acked
}

// TryFlush attempts one transfer round over the transport: it first
// retransmits pending batches (oldest first), then forms and sends new
// batches from the buffer. It returns the number of acks received. A badge
// calls this whenever it believes it has gateway coverage (docked, or
// passing the atrium); calling it without coverage is harmless — nothing
// acks, everything stays pending.
func (u *Uploader) TryFlush(t Transport) int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.tryFlush(t)
}

// tryFlush runs under u.mu. The transport's Deliver is invoked while the
// lock is held, so a transport must not call back into the same uploader
// (delivering into a Gateway is fine — each component has its own lock).
func (u *Uploader) tryFlush(t Transport) int {
	if t == nil {
		return 0
	}
	acked := 0
	// Retransmit pending in sequence order for determinism.
	seqs := make([]uint64, 0, len(u.pending))
	for s := range u.pending {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		u.retransmits++
		u.cRetransmits.Inc()
		if t.Deliver(u.pending[s]) {
			delete(u.pending, s)
			acked++
		}
	}
	// Form new batches.
	for len(u.buffer) > 0 && len(u.pending) < u.MaxPending {
		n := u.BatchSize
		if n > len(u.buffer) {
			n = len(u.buffer)
		}
		u.nextSeq++
		b := Batch{
			Badge:   u.badge,
			Seq:     u.nextSeq,
			Records: append([]record.Record{}, u.buffer[:n]...),
		}
		u.buffer = u.buffer[n:]
		u.sent++
		u.cSent.Inc()
		if t.Deliver(b) {
			acked++
		} else {
			u.pending[b.Seq] = b
		}
	}
	u.gBuffered.Set(float64(len(u.buffer)))
	u.gPending.Set(float64(len(u.pending)))
	return acked
}

// LossyTransport wires an uploader to a gateway through uniform loss in
// both directions — the reference fault model for tests and simulation.
type LossyTransport struct {
	Gateway *Gateway
	// LossUp and LossDown are the batch and ack loss probabilities.
	LossUp, LossDown float64
	// Rand returns uniform values in [0,1). It is called from whichever
	// goroutine flushes, so share one only within a single flushing
	// goroutine (or make it safe for concurrent use).
	Rand func() float64
}

// Deliver implements Transport.
func (lt *LossyTransport) Deliver(b Batch) bool {
	if lt.Gateway == nil {
		return false
	}
	if lt.Rand != nil && lt.Rand() < lt.LossUp {
		return false // batch lost in the air
	}
	ack := lt.Gateway.Offer(b)
	if lt.Rand != nil && lt.Rand() < lt.LossDown {
		return false // ack lost on the way back
	}
	return ack
}

// DefaultStallRounds is how many consecutive fully stalled rounds (zero
// acks and nothing new batchable) Drain tolerates before failing fast.
// It is set high enough that a merely lossy transport cannot plausibly
// trigger it (at 60 % symmetric loss a single pending batch survives 100
// straight failed rounds with probability ~3·10⁻⁸), while a transport
// with no coverage at all trips it immediately after the warm-up rounds.
const DefaultStallRounds = 100

// Drain runs flush rounds until the uploader is empty or maxRounds is
// reached, returning the rounds used. It is coverage-aware: a fully
// stalled round — zero acknowledgements and no new batches formable — is
// evidence of total stall, and DefaultStallRounds consecutive ones fail
// fast with ErrStalled instead of spinning to maxRounds. Rounds that make
// any progress (an ack, or fresh batches entering flight) reset the count,
// so slow-but-progressing transports drain to completion.
func Drain(u *Uploader, t Transport, maxRounds int) (int, error) {
	if maxRounds <= 0 {
		maxRounds = 1000
	}
	stalled := 0
	for round := 1; round <= maxRounds; round++ {
		sentBefore := u.StatsSnapshot().Sent
		acked := u.TryFlush(t)
		s := u.StatsSnapshot()
		if s.Buffered == 0 && s.Pending == 0 {
			return round, nil
		}
		if acked == 0 && s.Sent == sentBefore {
			stalled++
			if stalled >= DefaultStallRounds {
				return round, fmt.Errorf("offload: %w after %d rounds, %d fully stalled (pending %d, buffered %d)",
					ErrStalled, round, stalled, s.Pending, s.Buffered)
			}
			continue
		}
		stalled = 0
	}
	s := u.StatsSnapshot()
	return maxRounds, fmt.Errorf("offload: %w after %d rounds (pending %d, buffered %d)",
		ErrStalled, maxRounds, s.Pending, s.Buffered)
}

// ErrStalled reports a drain that never completed.
var ErrStalled = errors.New("transfer stalled")
