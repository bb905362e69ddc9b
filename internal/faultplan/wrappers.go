package faultplan

import (
	"time"

	"icares/internal/offload"
	"icares/internal/record"
	"icares/internal/uplink"
)

// Clock yields the current simulated time for wrappers.
type Clock func() time.Duration

// Transport applies a plan to an offload transport: deliveries are dropped
// while the sending badge is dead, the gateway is crashed, or a
// habitat-wide RF outage is open, and frames inside corruption windows are
// bit-flip mutated and discarded when (as the CRC guarantees, essentially
// always) the receiver detects the damage. Because every decision is a pure
// function of (plan, time, batch), a retransmission after the window
// clears goes through untouched — the same at-least-once recovery the
// uploader already performs for plain loss.
type Transport struct {
	Plan *Plan
	// Now is the simulated clock; a nil Now disables all injection.
	Now Clock
	// Inner is the wrapped transport (typically an offload.LossyTransport
	// or the gateway directly).
	Inner offload.Transport

	dropped, corrupted int
}

// NewTransport wraps inner with the plan's fault windows on clock now.
func NewTransport(p *Plan, now Clock, inner offload.Transport) *Transport {
	return &Transport{Plan: p, Now: now, Inner: inner}
}

// Deliver implements offload.Transport.
func (t *Transport) Deliver(b offload.Batch) bool {
	if t.Inner == nil {
		return false
	}
	if t.Plan == nil || t.Now == nil {
		return t.Inner.Deliver(b)
	}
	now := t.Now()
	if t.Plan.BadgeDown(b.Badge, now) || t.Plan.GatewayDown(now) {
		t.dropped++
		return false
	}
	if t.Plan.RFOut(now) {
		t.dropped++
		return false
	}
	if t.Plan.CorruptFrame(b.Badge, b.Seq, now) {
		t.corrupted++
		if !survivesCorruption(b) {
			return false // receiver's CRC check rejected the frame
		}
	}
	return t.Inner.Deliver(b)
}

// Stats returns how many deliveries the plan suppressed.
func (t *Transport) Stats() (dropped, corrupted int) {
	return t.dropped, t.corrupted
}

// survivesCorruption encodes the batch's lead record, flips one
// deterministic bit of the frame, and runs the real decoder: only if the
// CRC path somehow misses the damage does the delivery proceed. This keeps
// the codec's corruption detection in the loop instead of assuming it.
func survivesCorruption(b offload.Batch) bool {
	if len(b.Records) == 0 {
		return false
	}
	frame, err := record.AppendFrame(nil, b.Records[0])
	if err != nil || len(frame) == 0 {
		return false
	}
	frame[int(b.Seq)%len(frame)] ^= 1 << (b.Seq % 8)
	_, _, derr := record.DecodeFrame(frame)
	return derr == nil
}

// InstallBlackouts registers every UplinkBlackout window on the link and
// returns how many were installed. The link queues traffic during the
// windows rather than dropping it (see uplink.Link.AddBlackout).
func (p *Plan) InstallBlackouts(l *uplink.Link) int {
	wins := p.Windows(UplinkBlackout)
	for _, e := range wins {
		l.AddBlackout(e.From, e.To)
	}
	return len(wins)
}
