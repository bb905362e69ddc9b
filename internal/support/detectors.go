package support

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"icares/internal/habitat"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/store"
)

// Detector thresholds.
const (
	// maxStill is how long a worn badge may stay motionless.
	maxStill = 30 * time.Minute
	// moveSigma is the accel deviation (milli-g) counting as movement.
	moveSigma = 45
	// maxIngestGap is the longest ingestion silence still treated as live
	// data. An offloaded stream has outages (RF gaps, gateway restarts);
	// absence of records is not evidence of absence of movement, so after
	// a longer gap the inactivity detector re-baselines at the first
	// post-gap record and stays quiet during the gap itself rather than
	// alerting on stale state.
	maxIngestGap = 5 * time.Minute
	// quietWindow is the crew-conversation detector's sliding window.
	quietWindow = 2 * time.Hour
	// quietMinFrames is the fewest mic frames in a window for a verdict.
	quietMinFrames = 60
	// quietRatio flags a window whose speech fraction is below this ratio
	// of the trailing baseline.
	quietRatio = 0.3
	// lowBatteryPct triggers the battery warning.
	lowBatteryPct = 20
	// maxDry is the longest tolerated interval without a kitchen visit.
	maxDry = 5 * time.Hour
	// maxUnworn is the longest tolerated continuous unworn span during
	// duty hours.
	maxUnworn = 90 * time.Minute
	// dutyStart and dutyEnd bound the duty hours of each day.
	dutyStart = 8 * time.Hour
	dutyEnd   = 22 * time.Hour
)

// InactivityDetector raises a warning when a worn badge shows no movement
// for maxStill — the "protecting human life" function: an astronaut
// collapsed in a module would present exactly this signature.
type InactivityDetector struct {
	lastMove map[string]time.Duration
	worn     map[string]bool
	alerted  map[string]bool
	lastSeen map[string]time.Duration
}

// NewInactivityDetector returns a detector with 30-minute tolerance.
func NewInactivityDetector() *InactivityDetector {
	return &InactivityDetector{
		lastMove: make(map[string]time.Duration),
		worn:     make(map[string]bool),
		alerted:  make(map[string]bool),
		lastSeen: make(map[string]time.Duration),
	}
}

// Name implements Detector.
func (d *InactivityDetector) Name() string { return "inactivity" }

// Observe implements Detector.
func (d *InactivityDetector) Observe(at time.Duration, wearer string, _ store.BadgeID, rec record.Record) []Alert {
	if wearer == "" {
		return nil
	}
	if last, ok := d.lastSeen[wearer]; ok && at-last > maxIngestGap {
		// Ingestion gap: the pre-gap stillness clock is stale evidence.
		// Re-baseline so only post-gap stillness can accumulate.
		if _, hadMove := d.lastMove[wearer]; hadMove {
			d.lastMove[wearer] = at
		}
	}
	d.lastSeen[wearer] = at
	switch rec.Kind {
	case record.KindWear:
		d.worn[wearer] = rec.Worn
		if rec.Worn {
			d.lastMove[wearer] = at
			d.alerted[wearer] = false
		}
	case record.KindAccel:
		dev := math.Max(math.Abs(float64(rec.AX)), math.Abs(float64(rec.AY)))
		if dev >= moveSigma {
			d.lastMove[wearer] = at
			d.alerted[wearer] = false
		}
	}
	return nil
}

// Sweep implements Detector.
func (d *InactivityDetector) Sweep(now time.Duration) []Alert {
	var out []Alert
	for _, wearer := range sortedWearers(d.worn) {
		if !d.worn[wearer] || d.alerted[wearer] {
			continue
		}
		last, ok := d.lastMove[wearer]
		if !ok {
			continue
		}
		if seen, ok := d.lastSeen[wearer]; ok && now-seen > maxIngestGap {
			// No fresh records: an ingestion outage, not a still astronaut.
			continue
		}
		if now-last >= maxStill {
			d.alerted[wearer] = true
			out = append(out, Alert{
				At: now, Severity: Critical, Kind: d.Name(), Subject: wearer,
				Message: fmt.Sprintf("no movement from %s for %v while badge worn — possible incapacitation", wearer, now-last),
			})
		}
	}
	return out
}

// QuietCrewDetector watches the crew-wide conversation level over a
// sliding quietWindow and flags days when the crew fell unusually silent
// (the days 11-12 signature: food shortage and the mission-control
// reprimand).
type QuietCrewDetector struct {
	frames   []frameObs
	baseline ewma
	lastEval time.Duration
	quietNow bool
}

type frameObs struct {
	at     time.Duration
	speech bool
}

type ewma struct {
	val float64
	ok  bool
}

func (e *ewma) update(x, alpha float64) {
	if !e.ok {
		e.val, e.ok = x, true
		return
	}
	e.val = (1-alpha)*e.val + alpha*x
}

// NewQuietCrewDetector returns a detector with a 2-hour window.
func NewQuietCrewDetector() *QuietCrewDetector {
	return &QuietCrewDetector{}
}

// Name implements Detector.
func (d *QuietCrewDetector) Name() string { return "quiet-crew" }

// Observe implements Detector.
func (d *QuietCrewDetector) Observe(at time.Duration, wearer string, _ store.BadgeID, rec record.Record) []Alert {
	if rec.Kind != record.KindMic || wearer == "" {
		return nil
	}
	speech := rec.SpeechDetected && rec.LoudnessDB >= 60 && rec.SpeechFraction >= 0.2
	d.frames = append(d.frames, frameObs{at: at, speech: speech})
	return nil
}

// Sweep implements Detector. Frames arrive badge by badge, not in time
// order, so the window is trimmed by each frame's time.
func (d *QuietCrewDetector) Sweep(now time.Duration) []Alert {
	if now-d.lastEval < quietWindow/4 {
		return nil
	}
	d.lastEval = now
	d.frames = slices.DeleteFunc(d.frames, func(f frameObs) bool { return f.at < now-quietWindow })
	if len(d.frames) < quietMinFrames {
		return nil
	}
	speech := 0
	for _, f := range d.frames {
		if f.speech {
			speech++
		}
	}
	frac := float64(speech) / float64(len(d.frames))
	defer d.baseline.update(frac, 0.1)
	if !d.baseline.ok || d.baseline.val < 0.02 {
		return nil
	}
	quiet := frac < quietRatio*d.baseline.val
	if quiet && !d.quietNow {
		d.quietNow = true
		return []Alert{{
			At: now, Severity: Warning, Kind: d.Name(),
			Message: fmt.Sprintf("crew conversation level %.1f%% vs baseline %.1f%% — possible morale issue", 100*frac, 100*d.baseline.val),
		}}
	}
	if !quiet {
		d.quietNow = false
	}
	return nil
}

// BatteryDetector flags low batteries before they strand an astronaut
// without sensing.
type BatteryDetector struct {
	alerted map[store.BadgeID]bool
}

// NewBatteryDetector returns a detector triggering below 20%.
func NewBatteryDetector() *BatteryDetector {
	return &BatteryDetector{alerted: make(map[store.BadgeID]bool)}
}

// Name implements Detector.
func (d *BatteryDetector) Name() string { return "battery" }

// Observe implements Detector.
func (d *BatteryDetector) Observe(at time.Duration, wearer string, badge store.BadgeID, rec record.Record) []Alert {
	if rec.Kind != record.KindBattery {
		return nil
	}
	if rec.BatteryPct >= lowBatteryPct {
		d.alerted[badge] = false
		return nil
	}
	if d.alerted[badge] {
		return nil
	}
	d.alerted[badge] = true
	return []Alert{{
		At: at, Severity: Warning, Kind: d.Name(), Subject: wearer,
		Message: fmt.Sprintf("badge %d battery at %.0f%% — dock it or swap to a backup", badge, rec.BatteryPct),
	}}
}

// Sweep implements Detector.
func (d *BatteryDetector) Sweep(time.Duration) []Alert { return nil }

// HydrationDetector reminds astronauts who have not visited the kitchen
// for hours — the paper's observed pattern of crew absorbed in office work
// who "had to quickly supplement water ... to avoid dehydration", and its
// Section VI urine-processor/smart-mug integration sketch reduced to the
// signal available from the badges. It reminds after maxDry.
type HydrationDetector struct {
	// kitchenBeacons are the beacon IDs inside the kitchen.
	kitchenBeacons map[uint16]bool

	lastKitchen map[string]time.Duration
	firstSeen   map[string]time.Duration
	alerted     map[string]bool
}

// NewHydrationDetector builds the detector from the habitat's beacon map.
func NewHydrationDetector(hab *habitat.Habitat) *HydrationDetector {
	kb := make(map[uint16]bool)
	for _, s := range hab.Beacons() {
		if s.Room == habitat.Kitchen {
			kb[uint16(s.ID)] = true
		}
	}
	return &HydrationDetector{
		kitchenBeacons: kb,
		lastKitchen:    make(map[string]time.Duration),
		firstSeen:      make(map[string]time.Duration),
		alerted:        make(map[string]bool),
	}
}

// Name implements Detector.
func (d *HydrationDetector) Name() string { return "hydration" }

// Observe implements Detector.
func (d *HydrationDetector) Observe(at time.Duration, wearer string, _ store.BadgeID, rec record.Record) []Alert {
	if wearer == "" || rec.Kind != record.KindBeacon {
		return nil
	}
	if _, ok := d.firstSeen[wearer]; !ok {
		d.firstSeen[wearer] = at
	}
	if d.kitchenBeacons[rec.PeerID] {
		d.lastKitchen[wearer] = at
		d.alerted[wearer] = false
	}
	return nil
}

// Sweep implements Detector.
func (d *HydrationDetector) Sweep(now time.Duration) []Alert {
	var out []Alert
	for _, wearer := range sortedWearers(d.firstSeen) {
		if d.alerted[wearer] {
			continue
		}
		ref := d.lastKitchen[wearer]
		if ref == 0 {
			ref = d.firstSeen[wearer]
		}
		if now-ref >= maxDry {
			d.alerted[wearer] = true
			out = append(out, Alert{
				At: now, Severity: Info, Kind: d.Name(), Subject: wearer,
				Message: fmt.Sprintf("%s has not visited the kitchen for %v — hydration reminder", wearer, now-ref),
			})
		}
	}
	return out
}

// WearComplianceDetector nudges astronauts whose badges stay off during
// duty hours — the decline from ~80% to ~50% the paper attributes to the
// badge being a burden in the lab and workshop. It nudges after maxUnworn.
type WearComplianceDetector struct {
	wornSince   map[string]time.Duration
	unwornSince map[string]time.Duration
	alerted     map[string]bool
}

// NewWearComplianceDetector returns a detector with a 90-minute tolerance.
func NewWearComplianceDetector() *WearComplianceDetector {
	return &WearComplianceDetector{
		wornSince:   make(map[string]time.Duration),
		unwornSince: make(map[string]time.Duration),
		alerted:     make(map[string]bool),
	}
}

// Name implements Detector.
func (d *WearComplianceDetector) Name() string { return "wear-compliance" }

// Observe implements Detector.
func (d *WearComplianceDetector) Observe(at time.Duration, wearer string, _ store.BadgeID, rec record.Record) []Alert {
	if wearer == "" || rec.Kind != record.KindWear {
		return nil
	}
	if rec.Worn {
		d.wornSince[wearer] = at
		delete(d.unwornSince, wearer)
		d.alerted[wearer] = false
	} else {
		d.unwornSince[wearer] = at
	}
	return nil
}

// Sweep implements Detector. Overnight docking is not a compliance issue:
// unworn time counts only from the start of the current day's duty hours.
func (d *WearComplianceDetector) Sweep(now time.Duration) []Alert {
	var out []Alert
	tod := simtime.TimeOfDay(now)
	if tod < dutyStart || tod >= dutyEnd {
		return nil
	}
	for _, wearer := range sortedWearers(d.unwornSince) {
		since := max(d.unwornSince[wearer], simtime.StartOfDay(simtime.DayOf(now))+dutyStart)
		if d.alerted[wearer] || now-since < maxUnworn {
			continue
		}
		d.alerted[wearer] = true
		out = append(out, Alert{
			At: now, Severity: Info, Kind: d.Name(), Subject: wearer,
			Message: fmt.Sprintf("%s's badge unworn for %v during duty — please put it back on", wearer, now-since),
		})
	}
	return out
}

// sortedWearers returns a detector map's wearers in name order, so a sweep
// raising alerts for several astronauts at one instant raises them in the
// same order on every run.
func sortedWearers[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for w := range m {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}
