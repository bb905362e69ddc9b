// Package uplink models the habitat <-> mission-control communication link
// with interplanetary latency. During ICAres-1 every exchange with the
// remote mission control was delayed by 20 minutes each way, "reflecting a
// possible Earth-Mars latency", and on day 12 a delayed instruction
// contradicted the course of action the crew had already taken — the
// incident that motivates the paper's call for autonomous support systems.
// This package provides the delayed store-and-forward channel and the
// stale-command conflict detection a support system needs to catch
// day-12-style incidents mechanically.
package uplink

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"icares/internal/telemetry"
)

// Endpoint identifies a side of the link.
type Endpoint int

// Link endpoints.
const (
	Habitat Endpoint = iota + 1
	MissionControl
)

// String returns the endpoint name.
func (e Endpoint) String() string {
	switch e {
	case Habitat:
		return "habitat"
	case MissionControl:
		return "mission control"
	default:
		return "unknown endpoint"
	}
}

// Kind classifies messages.
type Kind int

// Message kinds.
const (
	// Report is telemetry or a status report.
	Report Kind = iota + 1
	// Command is an instruction expected to be acted upon.
	Command
	// Ack acknowledges a command.
	Ack
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Report:
		return "report"
	case Command:
		return "command"
	case Ack:
		return "ack"
	default:
		return "unknown kind"
	}
}

// Message is one transmission over the link.
type Message struct {
	ID   uint64
	From Endpoint
	Kind Kind
	// Topic names the mission aspect the message concerns (e.g.
	// "task-plan", "power-budget"); conflict detection is per topic.
	Topic string
	Body  string
	// BasisVersion is the topic state version the sender believed current
	// when composing the message. Commands based on a superseded version
	// are flagged as conflicts on arrival.
	BasisVersion uint64
	// SentAt and ArrivesAt are mission times.
	SentAt    time.Duration
	ArrivesAt time.Duration
	// Bytes is the message size, counted in uplink_sent_bytes_total.
	Bytes int
}

// ErrBadEndpoint is returned for a message from an unknown endpoint.
var ErrBadEndpoint = errors.New("uplink: bad endpoint")

// DefaultDelay is the ICAres-1 one-way latency.
const DefaultDelay = 20 * time.Minute

// Link is a bidirectional store-and-forward channel with one-way delay. A
// Link is safe for concurrent use: the habitat side, the mission-control
// side, and a metrics scraper may all act on it at once.
type Link struct {
	delay time.Duration

	mu       sync.Mutex
	nextID   uint64
	inFlight map[Endpoint][]Message // keyed by destination
	// blackouts are intervals during which no transmission may start;
	// sends queue and begin when the window lifts. Sorted by start.
	blackouts []blackout

	// Telemetry mirrors (nil until Instrument; nil handles are no-ops).
	cMessages, cBytes map[Endpoint]*telemetry.Counter
	gPending          map[Endpoint]*telemetry.Gauge
	cDeferrals        *telemetry.Counter
	hDefer            *telemetry.Histogram
}

// DeferBuckets is the histogram layout for blackout deferrals in seconds
// (a minute to a workday — solar conjunctions are long).
var DeferBuckets = []float64{60, 300, 900, 1800, 3600, 7200, 14400, 28800}

// blackout is one no-transmit interval [from, to).
type blackout struct{ from, to time.Duration }

// NewLink creates a link with the given one-way delay (DefaultDelay if
// zero or negative).
func NewLink(delay time.Duration) *Link {
	if delay <= 0 {
		delay = DefaultDelay
	}
	return &Link{
		delay:    delay,
		inFlight: make(map[Endpoint][]Message),
	}
}

// Delay returns the one-way latency.
func (l *Link) Delay() time.Duration { return l.delay }

// Instrument mirrors the link's counters into reg:
//
//	uplink_messages_total{from=...}, uplink_sent_bytes_total{from=...},
//	uplink_pending{dst=...}, uplink_blackout_deferrals_total,
//	uplink_blackout_defer_seconds (histogram, DeferBuckets)
func (l *Link) Instrument(reg *telemetry.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cMessages = make(map[Endpoint]*telemetry.Counter)
	l.cBytes = make(map[Endpoint]*telemetry.Counter)
	l.gPending = make(map[Endpoint]*telemetry.Gauge)
	for _, e := range []Endpoint{Habitat, MissionControl} {
		l.cMessages[e] = reg.Counter("uplink_messages_total", telemetry.L("from", e.String()))
		l.cBytes[e] = reg.Counter("uplink_sent_bytes_total", telemetry.L("from", e.String()))
		l.gPending[e] = reg.Gauge("uplink_pending", telemetry.L("dst", e.String()))
	}
	l.cDeferrals = reg.Counter("uplink_blackout_deferrals_total")
	l.hDefer = reg.Histogram("uplink_blackout_defer_seconds", DeferBuckets)
}

// AddBlackout registers [from, to) as a communication blackout (solar
// conjunction, antenna repointing, a dust storm over the relay). The link
// queues rather than drops: a message sent during a blackout starts
// transmitting when the window lifts, and conflict detection still applies
// to it on (late) arrival.
func (l *Link) AddBlackout(from, to time.Duration) {
	if to <= from {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.blackouts = append(l.blackouts, blackout{from: from, to: to})
	sort.Slice(l.blackouts, func(i, j int) bool {
		return l.blackouts[i].from < l.blackouts[j].from
	})
}

// deferPastBlackouts pushes a transmission start time out of any blackout
// windows (cascading across back-to-back windows).
func (l *Link) deferPastBlackouts(txStart time.Duration) time.Duration {
	for _, b := range l.blackouts {
		if txStart >= b.from && txStart < b.to {
			txStart = b.to
		}
	}
	return txStart
}

func other(e Endpoint) (Endpoint, error) {
	switch e {
	case Habitat:
		return MissionControl, nil
	case MissionControl:
		return Habitat, nil
	default:
		return 0, fmt.Errorf("%w: %d", ErrBadEndpoint, e)
	}
}

// Send enqueues a message at mission time now. It arrives one delay after
// it starts transmitting: at now, or when the blackout covering now lifts.
func (l *Link) Send(now time.Duration, msg Message) (Message, error) {
	dst, err := other(msg.From)
	if err != nil {
		return Message{}, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	msg.ID = l.nextID
	msg.SentAt = now

	txStart := l.deferPastBlackouts(now)
	if txStart > now {
		l.cDeferrals.Inc()
		l.hDefer.Observe((txStart - now).Seconds())
	}
	msg.ArrivesAt = txStart + l.delay

	l.inFlight[dst] = append(l.inFlight[dst], msg)
	l.cMessages[msg.From].Inc()
	l.cBytes[msg.From].Add(uint64(msg.Bytes))
	l.gPending[dst].Set(float64(len(l.inFlight[dst])))
	return msg, nil
}

// Receive returns (and removes) all messages that have arrived at the
// endpoint by mission time now, in arrival order.
func (l *Link) Receive(at Endpoint, now time.Duration) []Message {
	l.mu.Lock()
	defer l.mu.Unlock()
	queue := l.inFlight[at]
	var arrived, pending []Message
	for _, m := range queue {
		if m.ArrivesAt <= now {
			arrived = append(arrived, m)
		} else {
			pending = append(pending, m)
		}
	}
	l.inFlight[at] = pending
	l.gPending[at].Set(float64(len(pending)))
	sort.Slice(arrived, func(i, j int) bool {
		if arrived[i].ArrivesAt != arrived[j].ArrivesAt {
			return arrived[i].ArrivesAt < arrived[j].ArrivesAt
		}
		return arrived[i].ID < arrived[j].ID
	})
	return arrived
}

// TopicState tracks per-topic state versions on one side of the link and
// detects stale commands — the day-12 failure mode: a command composed
// against a superseded state version arriving after the crew already acted.
// Safe for concurrent use.
type TopicState struct {
	mu        sync.Mutex
	versions  map[string]uint64
	cConflict *telemetry.Counter
}

// NewTopicState creates an empty version tracker.
func NewTopicState() *TopicState {
	return &TopicState{versions: make(map[string]uint64)}
}

// Instrument counts flagged stale commands into reg as
// uplink_stale_conflicts_total.
func (t *TopicState) Instrument(reg *telemetry.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cConflict = reg.Counter("uplink_stale_conflicts_total")
}

// Version returns the current version of a topic (0 if never advanced).
func (t *TopicState) Version(topic string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.versions[topic]
}

// Advance records a local state change on the topic (e.g. the crew took a
// course of action) and returns the new version.
func (t *TopicState) Advance(topic string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.versions[topic]++
	return t.versions[topic]
}

// Conflict describes a stale command.
type Conflict struct {
	Msg            Message
	CurrentVersion uint64
}

// Check classifies an arriving command against local state: it returns a
// non-nil Conflict when the command's basis version is older than the
// current topic version. Reports and acks never conflict.
func (t *TopicState) Check(msg Message) *Conflict {
	if msg.Kind != Command {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.versions[msg.Topic]
	if msg.BasisVersion < cur {
		t.cConflict.Inc()
		return &Conflict{Msg: msg, CurrentVersion: cur}
	}
	return nil
}
