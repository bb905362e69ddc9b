// Package support implements the mission support system the paper's
// Section VI calls for: an autonomous, habitat-local distributed service
// that ingests the sensing streams in real time and gives the crew
// immediate feedback — "informing them about relevant phenomena and
// allowing for reacting appropriately" — instead of waiting for offline
// analysis or a 20-minute-away mission control.
//
// The package provides:
//
//   - Daemon: streaming ingestion of badge records with pluggable anomaly
//     detectors (inactivity, crew-wide quietness, wear compliance, battery,
//     hydration) and an alert bus;
//   - HealthRegistry and BadgePool: device monitoring and failover to the
//     six backup badges;
//   - Council: the consensus-approval protocol for significant system
//     changes (crew majority plus delayed mission-control assent);
//   - PrivacyGuard: per-astronaut sensor-suppression windows ("temporarily
//     disable some functionalities in privacy-sensitive situations").
package support

import (
	"fmt"
	"slices"
	"time"

	"icares/internal/record"
	"icares/internal/store"
	"icares/internal/telemetry"
)

// Severity grades an alert.
type Severity int

// Severity levels.
const (
	Info Severity = iota + 1
	Warning
	Critical
)

// String returns the severity label.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Alert is one support-system finding.
type Alert struct {
	At       time.Duration
	Severity Severity
	// Kind is a stable machine-readable category (e.g. "inactivity").
	Kind string
	// Subject is the astronaut or badge concerned ("" for crew-wide).
	Subject string
	Message string
}

// Detector consumes the stream and raises alerts. Observe is called for
// every ingested record; Sweep runs on the daemon's periodic tick for
// time-based conditions.
type Detector interface {
	Name() string
	Observe(at time.Duration, wearer string, badge store.BadgeID, rec record.Record) []Alert
	Sweep(now time.Duration) []Alert
}

// Daemon is the streaming support service.
type Daemon struct {
	detectors []Detector
	privacy   *PrivacyGuard
	health    *HealthRegistry
	analytics *Analytics

	alerts []Alert
	subs   []func(Alert)

	// kept is IngestBatch's reusable buffer for the records of a run that
	// survive the privacy scrub, used only when the scrub drops some.
	kept []record.Record

	// SweepEvery is the periodic evaluation interval.
	SweepEvery time.Duration
	lastSweep  time.Duration

	// Telemetry handles (nil until Instrument; nil handles are no-ops).
	reg                  *telemetry.Registry
	cIngested, cScrubbed *telemetry.Counter
	cSweeps              *telemetry.Counter
	cAlertsByKind        map[string]*telemetry.Counter
	gDetectors, gKnown   *telemetry.Gauge

	// Flight recorder (nil until AttachJournal).
	journal *telemetry.Journal
}

// NewDaemon creates a daemon with no detectors registered.
func NewDaemon() *Daemon {
	return &Daemon{
		privacy:    NewPrivacyGuard(),
		health:     NewHealthRegistry(),
		SweepEvery: time.Minute,
	}
}

// Register adds a detector.
func (d *Daemon) Register(det Detector) {
	d.detectors = append(d.detectors, det)
	d.gDetectors.Set(float64(len(d.detectors)))
}

// Instrument mirrors the daemon's ingestion and alert counters into reg:
//
//	support_records_ingested_total, support_privacy_scrubbed_total,
//	support_sweeps_total, support_alerts_total{kind=...},
//	support_detectors, support_known_badges
//
// Call it before ingestion starts; like the daemon itself, instrumentation
// assumes a single ingesting goroutine.
func (d *Daemon) Instrument(reg *telemetry.Registry) {
	d.reg = reg
	d.cIngested = reg.Counter("support_records_ingested_total")
	d.cScrubbed = reg.Counter("support_privacy_scrubbed_total")
	d.cSweeps = reg.Counter("support_sweeps_total")
	d.cAlertsByKind = make(map[string]*telemetry.Counter)
	d.gDetectors = reg.Gauge("support_detectors")
	d.gDetectors.Set(float64(len(d.detectors)))
	d.gKnown = reg.Gauge("support_known_badges")
}

// AttachAnalytics routes every ingested record (post privacy scrub) into
// the live sociometric analytics. Attach before ingestion starts.
func (d *Daemon) AttachAnalytics(a *Analytics) { d.analytics = a }

// AttachJournal mirrors every raised alert into a flight recorder, so the
// black box interleaves crew-facing alerts with the system-plane events
// around them. Attach before ingestion starts.
func (d *Daemon) AttachJournal(j *telemetry.Journal) { d.journal = j }

// journalSeverity maps alert severities onto the journal's scale.
func journalSeverity(s Severity) telemetry.EventSeverity {
	switch s {
	case Critical:
		return telemetry.SevError
	case Warning:
		return telemetry.SevWarn
	default:
		return telemetry.SevInfo
	}
}

// Privacy returns the daemon's privacy guard.
func (d *Daemon) Privacy() *PrivacyGuard { return d.privacy }

// Health returns the daemon's device-health registry.
func (d *Daemon) Health() *HealthRegistry { return d.health }

// OnAlert subscribes to alerts as they are raised.
func (d *Daemon) OnAlert(fn func(Alert)) { d.subs = append(d.subs, fn) }

// Alerts returns all alerts raised so far (copy).
func (d *Daemon) Alerts() []Alert {
	out := make([]Alert, len(d.alerts))
	copy(out, d.alerts)
	return out
}

func (d *Daemon) raise(alerts []Alert) {
	for _, a := range alerts {
		d.alerts = append(d.alerts, a)
		if d.reg != nil {
			c, ok := d.cAlertsByKind[a.Kind]
			if !ok {
				c = d.reg.Counter("support_alerts_total", telemetry.L("kind", a.Kind))
				d.cAlertsByKind[a.Kind] = c
			}
			c.Inc()
		}
		d.journal.Emit(a.At, journalSeverity(a.Severity), "support", "alert", a.Message,
			telemetry.F("alert_kind", a.Kind), telemetry.F("subject", a.Subject))
		for _, fn := range d.subs {
			fn(a)
		}
	}
}

// IngestBatch is the daemon's entry point: it feeds a run of one badge's
// records, all worn by wearer, each ingested at its own Local time. Every
// record takes the same step, in order: health, counters, privacy scrub,
// detectors, sweep. Records inside the wearer's privacy windows are
// dropped for privacy-sensitive kinds (mic, IR) before any detector sees
// them; movement and device-health kinds still flow, as safety monitoring
// must survive privacy mode. The records that survive the scrub reach the
// analytics in one append after the run. recs is neither modified nor
// retained.
func (d *Daemon) IngestBatch(wearer string, badge store.BadgeID, recs []record.Record) {
	kept, scrubbed := recs, false
	for i, rec := range recs {
		if !d.admit(rec.Local, wearer, badge, rec) {
			if !scrubbed {
				kept, scrubbed = append(d.kept[:0], recs[:i]...), true
			}
			continue
		}
		if scrubbed {
			kept = append(kept, rec)
		}
		d.detect(rec.Local, wearer, badge, rec)
	}
	if scrubbed {
		d.kept = kept
	}
	if d.analytics != nil {
		d.analytics.Ingest(badge, kept...)
	}
}

// admit is the front of the per-record step: it records the badge's sign
// of life and counts the record, then reports whether the record survives
// the privacy scrub.
func (d *Daemon) admit(at time.Duration, wearer string, badge store.BadgeID, rec record.Record) bool {
	d.health.Seen(badge, at)
	d.gKnown.Set(float64(len(d.health.lastSeen)))
	d.cIngested.Inc()
	if d.privacy.Suppressed(wearer, at) && privacySensitive(rec.Kind) {
		d.cScrubbed.Inc()
		return false
	}
	return true
}

// detect is the back of the per-record step for an admitted record: every
// detector observes it, then the periodic sweep runs if it is due.
func (d *Daemon) detect(at time.Duration, wearer string, badge store.BadgeID, rec record.Record) {
	for _, det := range d.detectors {
		d.raise(det.Observe(at, wearer, badge, rec))
	}
	if at-d.lastSweep >= d.SweepEvery {
		d.lastSweep = at
		d.Sweep(at)
	}
}

// Sweep runs every detector's periodic evaluation.
func (d *Daemon) Sweep(now time.Duration) {
	d.cSweeps.Inc()
	for _, det := range d.detectors {
		d.raise(det.Sweep(now))
	}
}

func privacySensitive(k record.Kind) bool {
	switch k {
	case record.KindMic, record.KindIR:
		return true
	default:
		return false
	}
}

// PrivacyGuard tracks per-astronaut sensor-suppression windows.
type PrivacyGuard struct {
	windows map[string]record.RangeSet
}

// NewPrivacyGuard creates an empty guard.
func NewPrivacyGuard() *PrivacyGuard {
	return &PrivacyGuard{windows: make(map[string]record.RangeSet)}
}

// Suppress disables privacy-sensitive sensing for the astronaut during
// [from, to).
func (g *PrivacyGuard) Suppress(name string, from, to time.Duration) {
	g.windows[name] = append(g.windows[name], record.TimeRange{From: from, To: to}).Normalize()
}

// Suppressed reports whether the astronaut's privacy mode covers t.
func (g *PrivacyGuard) Suppressed(name string, t time.Duration) bool {
	return g.windows[name].Contains(t)
}

// HealthRegistry tracks device liveness.
type HealthRegistry struct {
	lastSeen map[store.BadgeID]time.Duration
}

// NewHealthRegistry creates an empty registry.
func NewHealthRegistry() *HealthRegistry {
	return &HealthRegistry{lastSeen: make(map[store.BadgeID]time.Duration)}
}

// Seen records a sign of life from a badge.
func (h *HealthRegistry) Seen(id store.BadgeID, at time.Duration) {
	if cur, ok := h.lastSeen[id]; !ok || at > cur {
		h.lastSeen[id] = at
	}
}

// Stale returns the known badges not heard from within maxAge of now.
func (h *HealthRegistry) Stale(now, maxAge time.Duration) []store.BadgeID {
	var out []store.BadgeID
	for id, at := range h.lastSeen {
		if now-at > maxAge {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}
