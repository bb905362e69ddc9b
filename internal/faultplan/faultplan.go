// Package faultplan provides deterministic, seed-driven fault schedules
// for the habitat's online data path. DESIGN.md's testing strategy promises
// failure injection — badge death, RF outages, corrupted frames — and the
// paper's Section VI demands a support system that keeps working through
// them. This package is the single source of truth for *when* things break:
// a Plan is a sorted list of typed events on simulated time (habitat-wide
// RF outage windows, badge death and reboot, gateway
// crash/restart with volatile-state loss, uplink blackout intervals,
// sync-exchange dropouts, record-frame corruption), generated from a seed
// so the same seed always reproduces the identical event trace.
//
// The plan itself is pure data plus point queries ("is badge 3 down at t?").
// Composable wrappers apply one plan uniformly across the subsystems: a
// Transport wrapper drives internal/offload (and with it the support
// replayer's feed) and InstallBlackouts drives internal/uplink — so a
// chaos suite can subject the whole path to one coherent failure story.
package faultplan

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"icares/internal/store"
)

// Kind discriminates fault-event types.
type Kind int

// Fault-event kinds.
const (
	// RFOutage blocks all badge-to-gateway radio traffic.
	RFOutage Kind = iota + 1
	// BadgeDeath takes a badge down at From and reboots it at To. Records
	// and counters live in flash/SD and survive the reboot; only the radio
	// and sampling are dead during the window.
	BadgeDeath
	// GatewayCrash kills the gateway's volatile state at From; the gateway
	// restarts at To from its durable snapshot (see offload.Gateway).
	GatewayCrash
	// UplinkBlackout interrupts the habitat <-> mission-control link; the
	// link queues traffic rather than dropping it (see uplink.Link).
	UplinkBlackout
	// SyncDropout suppresses time-sync exchanges with the reference badge.
	SyncDropout
	// FrameCorruption flips bits in record frames in flight with
	// probability Prob; the CRC path must catch them.
	FrameCorruption
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case RFOutage:
		return "rf-outage"
	case BadgeDeath:
		return "badge-death"
	case GatewayCrash:
		return "gateway-crash"
	case UplinkBlackout:
		return "uplink-blackout"
	case SyncDropout:
		return "sync-dropout"
	case FrameCorruption:
		return "frame-corruption"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault: Kind is active during [From, To).
type Event struct {
	Kind Kind
	From time.Duration
	To   time.Duration
	// Badge scopes BadgeDeath, SyncDropout, and FrameCorruption to one
	// badge; 0 means every badge.
	Badge store.BadgeID
	// Prob is the per-frame corruption probability for FrameCorruption.
	Prob float64
}

// String renders one event for traces.
func (e Event) String() string {
	scope := ""
	if e.Badge != 0 {
		scope = fmt.Sprintf(" badge=%d", e.Badge)
	}
	if e.Kind == FrameCorruption {
		scope += fmt.Sprintf(" p=%.3f", e.Prob)
	}
	return fmt.Sprintf("[%v, %v) %s%s", e.From, e.To, e.Kind, scope)
}

// Plan is a deterministic fault schedule. The zero value is unusable; build
// plans with New or Generate. Plans are immutable after construction and
// safe for concurrent queries.
type Plan struct {
	seed   uint64
	events []Event
}

// New builds a plan from explicit events (sorted into deterministic trace
// order). Seed drives only the pseudo-random per-frame corruption decision;
// two plans with equal seeds and equal events behave identically.
func New(seed uint64, events ...Event) *Plan {
	evs := append([]Event{}, events...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].From != evs[j].From {
			return evs[i].From < evs[j].From
		}
		if evs[i].Kind != evs[j].Kind {
			return evs[i].Kind < evs[j].Kind
		}
		return evs[i].Badge < evs[j].Badge
	})
	return &Plan{seed: seed, events: evs}
}

// String renders the whole trace, one event per line.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faultplan seed=%d events=%d\n", p.seed, len(p.events))
	for _, e := range p.events {
		b.WriteString("  " + e.String() + "\n")
	}
	return b.String()
}

// active reports whether any event of kind k covers at and satisfies match.
func (p *Plan) active(k Kind, at time.Duration, match func(Event) bool) bool {
	for _, e := range p.events {
		if e.From > at {
			return false // sorted by From: nothing later can cover at
		}
		if e.Kind != k || at >= e.To {
			continue
		}
		if match == nil || match(e) {
			return true
		}
	}
	return false
}

// RFOut reports whether an RF outage blocks radio traffic at time at.
func (p *Plan) RFOut(at time.Duration) bool {
	return p.active(RFOutage, at, nil)
}

// BadgeDown reports whether the badge is dead at time at.
func (p *Plan) BadgeDown(id store.BadgeID, at time.Duration) bool {
	return p.active(BadgeDeath, at, func(e Event) bool {
		return e.Badge == 0 || e.Badge == id
	})
}

// GatewayDown reports whether the gateway is crashed at time at.
func (p *Plan) GatewayDown(at time.Duration) bool {
	return p.active(GatewayCrash, at, nil)
}

// UplinkDown reports whether the mission-control link is blacked out at at.
func (p *Plan) UplinkDown(at time.Duration) bool {
	return p.active(UplinkBlackout, at, nil)
}

// SyncDropped reports whether the badge's time-sync exchange at time at is
// suppressed.
func (p *Plan) SyncDropped(id store.BadgeID, at time.Duration) bool {
	return p.active(SyncDropout, at, func(e Event) bool {
		return e.Badge == 0 || e.Badge == id
	})
}

// CorruptFrame decides deterministically whether the frame carrying (badge,
// seq) is corrupted in flight at time at: inside a FrameCorruption window it
// hashes (seed, badge, seq) against the window's probability, so a
// retransmission of the same batch inside the same window corrupts the same
// way, and equal seeds reproduce identical corruption patterns.
func (p *Plan) CorruptFrame(id store.BadgeID, seq uint64, at time.Duration) bool {
	for _, e := range p.events {
		if e.From > at {
			return false
		}
		if e.Kind != FrameCorruption || at >= e.To {
			continue
		}
		if e.Badge != 0 && e.Badge != id {
			continue
		}
		if unitHash(p.seed, uint64(id), seq, uint64(e.From)) < e.Prob {
			return true
		}
	}
	return false
}

// Windows returns the events of one kind, in trace order.
func (p *Plan) Windows(k Kind) []Event {
	var out []Event
	for _, e := range p.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// unitHash mixes its inputs (SplitMix64 finalizer) into a uniform [0,1).
func unitHash(vs ...uint64) float64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return float64(h>>11) / float64(1<<53)
}
