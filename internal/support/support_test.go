package support

import (
	"errors"
	"testing"
	"time"

	"icares/internal/habitat"
	"icares/internal/offload"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/store"
	"icares/internal/uplink"
)

func accelRec(at time.Duration, dev int16) record.Record {
	return record.NewAccel(at, dev, 0, 1000)
}

func wearRec(at time.Duration, worn bool) record.Record {
	return record.NewWear(at, worn)
}

// ingest feeds one record through the daemon's entry point, then sweeps
// at its time, as the replayer sweeps after each window.
func ingest(d *Daemon, wearer string, badge store.BadgeID, rec record.Record) {
	d.IngestBatch(wearer, badge, []record.Record{rec})
	d.Sweep(rec.Local)
}

// alertsOfKind filters the daemon's alert log.
func alertsOfKind(d *Daemon, kind string) []Alert {
	var out []Alert
	for _, a := range d.Alerts() {
		if a.Kind == kind {
			out = append(out, a)
		}
	}
	return out
}

func TestInactivityDetector(t *testing.T) {
	d := NewDaemon()
	det := NewInactivityDetector()
	d.Register(det)
	ingest(d, "A", 1, wearRec(0, true))
	// Movement for 10 minutes, then stillness.
	for at := time.Duration(0); at < 10*time.Minute; at += 10 * time.Second {
		ingest(d, "A", 1, accelRec(at, 200))
	}
	for at := 10 * time.Minute; at < 50*time.Minute; at += 10 * time.Second {
		ingest(d, "A", 1, accelRec(at, 3))
	}
	alerts := alertsOfKind(d, "inactivity")
	if len(alerts) != 1 {
		t.Fatalf("inactivity alerts = %d (%v)", len(alerts), alerts)
	}
	if alerts[0].Severity != Critical || alerts[0].Subject != "A" {
		t.Errorf("alert = %+v", alerts[0])
	}
	// Movement resumes: a new stillness period can alert again.
	ingest(d, "A", 1, accelRec(50*time.Minute, 200))
	for at := 50 * time.Minute; at < 90*time.Minute; at += 10 * time.Second {
		ingest(d, "A", 1, accelRec(at, 3))
	}
	if got := len(alertsOfKind(d, "inactivity")); got != 2 {
		t.Errorf("alerts after recovery = %d", got)
	}
}

func TestInactivityIgnoresUnwornBadge(t *testing.T) {
	d := NewDaemon()
	d.Register(NewInactivityDetector())
	ingest(d, "A", 1, wearRec(0, false))
	for at := time.Duration(0); at < 2*time.Hour; at += 10 * time.Second {
		ingest(d, "A", 1, accelRec(at, 1))
	}
	if got := len(alertsOfKind(d, "inactivity")); got != 0 {
		t.Errorf("alerts for unworn badge = %d", got)
	}
}

func TestQuietCrewDetector(t *testing.T) {
	d := NewDaemon()
	d.Register(NewQuietCrewDetector())
	mic := func(at time.Duration, speech bool) record.Record {
		if speech {
			return record.NewMic(at, true, 68, 0, 0.5)
		}
		return record.NewMic(at, false, 35, 0, 0)
	}
	// 6 hours of lively conversation (~40% speech).
	at := time.Duration(0)
	i := 0
	for ; at < 6*time.Hour; at += 15 * time.Second {
		ingest(d, "A", 1, mic(at, i%5 < 2))
		i++
	}
	if got := len(alertsOfKind(d, "quiet-crew")); got != 0 {
		t.Fatalf("alerts during lively phase = %d: %v", got, alertsOfKind(d, "quiet-crew"))
	}
	// Sudden silence (the day-11 signature).
	for ; at < 12*time.Hour; at += 15 * time.Second {
		ingest(d, "A", 1, mic(at, false))
	}
	if got := len(alertsOfKind(d, "quiet-crew")); got == 0 {
		t.Error("silence never flagged")
	}
}

func TestBatteryDetector(t *testing.T) {
	d := NewDaemon()
	d.Register(NewBatteryDetector())
	bat := func(at time.Duration, pct float32) record.Record {
		return record.NewBattery(at, pct)
	}
	ingest(d, "B", 2, bat(0, 80))
	ingest(d, "B", 2, bat(time.Hour, 15))
	ingest(d, "B", 2, bat(2*time.Hour, 12)) // no duplicate alert
	alerts := alertsOfKind(d, "battery")
	if len(alerts) != 1 {
		t.Fatalf("battery alerts = %d", len(alerts))
	}
	// Recharged, then low again: alerts again.
	ingest(d, "B", 2, bat(3*time.Hour, 90))
	ingest(d, "B", 2, bat(4*time.Hour, 10))
	if got := len(alertsOfKind(d, "battery")); got != 2 {
		t.Errorf("battery alerts after recharge = %d", got)
	}
}

// TestApplyOrdersBatchesByBadge pins that a window's staged batches reach
// the daemon badge by badge, each badge's in release order, whatever order
// the gateway released the badges in: alerts raised as records are
// observed come out in the same order on every run.
func TestApplyOrdersBatchesByBadge(t *testing.T) {
	d := NewDaemon()
	d.Register(NewBatteryDetector())
	r := NewReplayer(d, store.NewDataset(), time.Hour, func(id store.BadgeID, _ int) (string, bool) {
		return string(rune('A' - 1 + int(id))), true
	})
	bat := func(at time.Duration, pct float32) []record.Record {
		return []record.Record{record.NewBattery(at, pct)}
	}
	r.staged = []offload.Batch{
		{Badge: 2, Records: bat(time.Second, 10)},
		{Badge: 1, Records: bat(30*time.Second, 10)},
		{Badge: 2, Records: bat(2*time.Second, 90)},
	}
	if n := r.apply(); n != 3 {
		t.Fatalf("applied %d records, want 3", n)
	}
	var got []string
	for _, a := range alertsOfKind(d, "battery") {
		got = append(got, a.Subject)
	}
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("battery alerts for %v, want [A B]", got)
	}
}

func TestHydrationDetector(t *testing.T) {
	hab := habitat.Standard()
	var kitchenBeacon, officeBeacon uint16
	for _, s := range hab.Beacons() {
		if s.Room == habitat.Kitchen && kitchenBeacon == 0 {
			kitchenBeacon = uint16(s.ID)
		}
		if s.Room == habitat.Office && officeBeacon == 0 {
			officeBeacon = uint16(s.ID)
		}
	}
	d := NewDaemon()
	d.Register(NewHydrationDetector(hab))
	obs := func(at time.Duration, beacon uint16) record.Record {
		return record.NewBeacon(at, beacon, -60)
	}
	// A visits the kitchen at t=0, then stays in the office for 6 h, an
	// hour past the 5-hour reminder.
	ingest(d, "A", 1, obs(0, kitchenBeacon))
	for at := 15 * time.Second; at < 6*time.Hour; at += 15 * time.Second {
		ingest(d, "A", 1, obs(at, officeBeacon))
	}
	alerts := alertsOfKind(d, "hydration")
	if len(alerts) != 1 {
		t.Fatalf("hydration alerts = %d", len(alerts))
	}
	if alerts[0].Subject != "A" || alerts[0].Severity != Info {
		t.Errorf("alert = %+v", alerts[0])
	}
}

func TestWearComplianceDetector(t *testing.T) {
	d := NewDaemon()
	d.Register(NewWearComplianceDetector())
	base := 9 * time.Hour // duty hours
	ingest(d, "E", 5, wearRec(base, true))
	ingest(d, "E", 5, wearRec(base+time.Hour, false))
	// Ticks to trigger sweeps while unworn.
	for at := base + time.Hour; at < base+4*time.Hour; at += time.Minute {
		ingest(d, "E", 5, record.Record{Local: at, Kind: record.KindEnv})
	}
	alerts := alertsOfKind(d, "wear-compliance")
	if len(alerts) != 1 {
		t.Fatalf("compliance alerts = %d", len(alerts))
	}
}

func TestWearComplianceIgnoresOvernightDock(t *testing.T) {
	d := NewDaemon()
	d.Register(NewWearComplianceDetector())
	// Badge comes off at 22:00 (dock) and the daemon keeps sweeping
	// through the night and next morning: no nagging.
	off := 22 * time.Hour
	ingest(d, "E", 5, wearRec(off, false))
	for at := off; at < off+11*time.Hour; at += 10 * time.Minute {
		ingest(d, "E", 5, record.Record{Local: at, Kind: record.KindEnv})
	}
	if got := len(alertsOfKind(d, "wear-compliance")); got != 0 {
		t.Errorf("overnight dock alerts = %d", got)
	}
}

// TestWearComplianceCountsFromDutyStart pins that a badge left docked
// since midnight is unworn only from the start of duty: no nudge at 08:00,
// one once maxUnworn of duty has passed.
func TestWearComplianceCountsFromDutyStart(t *testing.T) {
	d := NewDaemon()
	d.Register(NewWearComplianceDetector())
	day2 := simtime.StartOfDay(2)
	ingest(d, "D", 4, wearRec(day2, false))
	due := day2 + 9*time.Hour + 30*time.Minute
	for at := day2 + 8*time.Hour; at < due; at += time.Minute {
		d.Sweep(at)
	}
	if got := alertsOfKind(d, "wear-compliance"); len(got) != 0 {
		t.Fatalf("nudged before 90 min of duty: %v", got)
	}
	d.Sweep(due)
	alerts := alertsOfKind(d, "wear-compliance")
	if len(alerts) != 1 || alerts[0].At != due {
		t.Fatalf("compliance alerts = %v, want one at 09:30", alerts)
	}
	if want := "D's badge unworn for 1h30m0s during duty — please put it back on"; alerts[0].Message != want {
		t.Errorf("message = %q, want %q", alerts[0].Message, want)
	}
}

// TestQuietCrewTrimsByTime pins that the conversation window drops every
// frame older than the window, though frames arrive badge by badge and so
// out of time order.
func TestQuietCrewTrimsByTime(t *testing.T) {
	det := NewQuietCrewDetector()
	mic := record.NewMic(0, false, 35, 0, 0)
	// One window's worth of frames, badge by badge: A's old frame lands
	// after B's fresh ones.
	for _, f := range []struct {
		wearer string
		at     time.Duration
	}{{"B", 3 * time.Hour}, {"B", 3*time.Hour + time.Minute}, {"A", 30 * time.Minute}, {"A", 3 * time.Hour}} {
		mic.Local = f.at
		det.Observe(f.at, f.wearer, 1, mic)
	}
	det.Sweep(3*time.Hour + time.Minute)
	for _, f := range det.frames {
		if f.at < time.Hour+time.Minute {
			t.Errorf("frame at %v kept past the 2-hour window", f.at)
		}
	}
	if len(det.frames) != 3 {
		t.Errorf("window holds %d frames, want 3", len(det.frames))
	}
}

func TestPrivacyGuardSuppressesMicAndIR(t *testing.T) {
	d := NewDaemon()
	det := NewQuietCrewDetector()
	d.Register(det)
	d.Privacy().Suppress("A", 0, time.Hour)
	mic := record.NewMic(time.Minute, true, 70, 0, 0.5)
	ingest(d, "A", 1, mic)
	if len(det.frames) != 0 {
		t.Error("suppressed mic frame reached a detector")
	}
	// Movement records still flow (safety).
	inact := NewInactivityDetector()
	d.Register(inact)
	ingest(d, "A", 1, wearRec(2*time.Minute, true))
	if !inact.worn["A"] {
		t.Error("wear record blocked by privacy window")
	}
	// Outside the window, mic flows again.
	mic.Local = 2 * time.Hour
	ingest(d, "A", 1, mic)
	if len(det.frames) != 1 {
		t.Error("mic frame outside window suppressed")
	}
	if got := d.Privacy().windows["A"].Total(); got != time.Hour {
		t.Errorf("windows total = %v", got)
	}
}

func TestHealthRegistry(t *testing.T) {
	h := NewHealthRegistry()
	h.Seen(1, time.Minute)
	h.Seen(2, 2*time.Minute)
	h.Seen(1, 30*time.Second) // older: ignored
	if at, ok := h.lastSeen[1]; !ok || at != time.Minute {
		t.Errorf("last seen = %v, %v", at, ok)
	}
	stale := h.Stale(40*time.Minute, 30*time.Minute)
	if len(stale) != 2 {
		t.Fatalf("stale = %v", stale)
	}
	if got := h.Stale(10*time.Minute, 30*time.Minute); len(got) != 0 {
		t.Errorf("fresh badges stale: %v", got)
	}
}

func TestBadgePoolAssignRelease(t *testing.T) {
	p := NewBadgePool([]store.BadgeID{8, 9})
	if len(p.free) != 2 {
		t.Fatalf("free = %d", len(p.free))
	}
	id, err := p.Assign(time.Hour, "F", "badge 6 failed")
	if err != nil || id != 8 {
		t.Fatalf("assign = %d, %v", id, err)
	}
	if w, ok := p.assigned[8]; !ok || w != "F" {
		t.Errorf("wearer = %q, %v", w, ok)
	}
	if _, err := p.Assign(time.Hour, "D", "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Assign(time.Hour, "E", "x"); !errors.Is(err, ErrPoolEmpty) {
		t.Errorf("empty pool: %v", err)
	}
	// Two assigns are logged; the failed assign is not.
	if got := len(p.log); got != 2 {
		t.Errorf("audit log = %d entries", got)
	}
}

func TestFailoverReplacesSilentBadge(t *testing.T) {
	d := NewDaemon()
	pool := NewBadgePool([]store.BadgeID{8})
	wearers := map[store.BadgeID]string{6: "F"}
	fo := NewFailover(d.Health(), pool, func(id store.BadgeID) (string, bool) {
		w, ok := wearers[id]
		return w, ok
	})
	d.Register(fo)
	// Badge 6 alive at t=0, then silent; badge 1 keeps ticking the daemon.
	ingest(d, "F", 6, wearRec(0, true))
	for at := time.Minute; at < 2*time.Hour; at += time.Minute {
		ingest(d, "A", 1, record.Record{Local: at, Kind: record.KindEnv})
	}
	alerts := alertsOfKind(d, "failover")
	if len(alerts) != 1 {
		t.Fatalf("failover alerts = %d: %v", len(alerts), alerts)
	}
	if alerts[0].Subject != "F" {
		t.Errorf("failover subject = %q", alerts[0].Subject)
	}
	if w, ok := pool.assigned[8]; !ok || w != "F" {
		t.Errorf("spare assignment = %q, %v", w, ok)
	}
}

func TestFailoverPoolExhausted(t *testing.T) {
	d := NewDaemon()
	pool := NewBadgePool(nil)
	wearers := map[store.BadgeID]string{6: "F"}
	fo := NewFailover(d.Health(), pool, func(id store.BadgeID) (string, bool) {
		w, ok := wearers[id]
		return w, ok
	})
	d.Register(fo)
	ingest(d, "F", 6, wearRec(0, true))
	for at := time.Minute; at < 2*time.Hour; at += time.Minute {
		ingest(d, "A", 1, record.Record{Local: at, Kind: record.KindEnv})
	}
	alerts := alertsOfKind(d, "failover")
	if len(alerts) != 1 || alerts[0].Severity != Critical {
		t.Fatalf("exhausted-pool alerts = %v", alerts)
	}
}

func TestCouncilApproval(t *testing.T) {
	crew := []string{"A", "B", "D", "E", "F"}
	link := uplink.NewLink(20 * time.Minute)
	c := NewCouncil(crew, link)
	p, err := c.Propose(0, "B", "raise mic sampling to 30s cadence")
	if err != nil {
		t.Fatal(err)
	}
	if p.Status() != Pending {
		t.Fatalf("status = %v", p.Status())
	}
	// Crew majority: B(yes) + A + D = 3 of 5.
	if err := c.Vote(time.Minute, p.ID, "A", true); err != nil {
		t.Fatal(err)
	}
	if err := c.Vote(2*time.Minute, p.ID, "D", true); err != nil {
		t.Fatal(err)
	}
	// Still pending: mission control hasn't decided.
	if p.Status() != Pending {
		t.Fatalf("status before MC = %v", p.Status())
	}
	// The proposal travelled over the link to mission control.
	if got := link.Receive(uplink.MissionControl, 25*time.Minute); len(got) != 1 {
		t.Fatalf("MC inbox = %d", len(got))
	}
	if err := c.MissionControlDecision(45*time.Minute, p.ID, true); err != nil {
		t.Fatal(err)
	}
	if p.Status() != Approved {
		t.Fatalf("status = %v", p.Status())
	}
	if p.DecidedAt() != 45*time.Minute {
		t.Errorf("decided at %v", p.DecidedAt())
	}
	// Voting after the decision fails.
	if err := c.Vote(time.Hour, p.ID, "E", true); !errors.Is(err, ErrDecided) {
		t.Errorf("vote after decision: %v", err)
	}
}

func TestCouncilRejections(t *testing.T) {
	crew := []string{"A", "B", "D", "E", "F"}
	c := NewCouncil(crew, uplink.NewLink(time.Minute))
	// MC veto.
	p, err := c.Propose(0, "B", "disable IR sensing")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MissionControlDecision(time.Hour, p.ID, false); err != nil {
		t.Fatal(err)
	}
	if p.Status() != Rejected {
		t.Errorf("MC veto: %v", p.Status())
	}
	// Crew majority rejection.
	p2, err := c.Propose(0, "F", "turn off all sensors at night")
	if err != nil {
		t.Fatal(err)
	}
	for _, voter := range []string{"A", "B", "D"} {
		if err := c.Vote(time.Minute, p2.ID, voter, false); err != nil {
			t.Fatal(err)
		}
	}
	if p2.Status() != Rejected {
		t.Errorf("crew rejection: %v", p2.Status())
	}
}

func TestCouncilValidation(t *testing.T) {
	c := NewCouncil([]string{"A", "B"}, nil)
	if _, err := c.Propose(0, "Z", "x"); !errors.Is(err, ErrNotCrew) {
		t.Errorf("outsider proposal: %v", err)
	}
	if err := c.Vote(0, 99, "A", true); !errors.Is(err, ErrUnknownProposal) {
		t.Errorf("unknown proposal: %v", err)
	}
	p, err := c.Propose(0, "A", "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Vote(0, p.ID, "Z", true); !errors.Is(err, ErrNotCrew) {
		t.Errorf("outsider vote: %v", err)
	}
	if c.proposals[p.ID] != p {
		t.Error("proposal not tracked under its ID")
	}
}

func TestCouncilAutonomousMode(t *testing.T) {
	// Without a link (communication blackout) mission-control assent is
	// implied, so a crew majority suffices.
	crew := []string{"A", "B", "D"}
	c := NewCouncil(crew, nil)
	p, err := c.Propose(0, "A", "boost alert volume")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Vote(time.Minute, p.ID, "B", true); err != nil {
		t.Fatal(err)
	}
	if p.Status() != Approved {
		t.Errorf("autonomous approval: %v", p.Status())
	}
}

func TestSeverityAndStatusStrings(t *testing.T) {
	if Info.String() != "info" || Warning.String() != "warning" || Critical.String() != "critical" {
		t.Error("severity names")
	}
	if Severity(9).String() != "severity(9)" {
		t.Error("unknown severity")
	}
	if Pending.String() != "pending" || Approved.String() != "approved" || Rejected.String() != "rejected" {
		t.Error("status names")
	}
	if ProposalStatus(9).String() != "status(9)" {
		t.Error("unknown status")
	}
}

func TestDaemonAlertSubscription(t *testing.T) {
	d := NewDaemon()
	d.Register(NewBatteryDetector())
	var got []Alert
	d.OnAlert(func(a Alert) { got = append(got, a) })
	ingest(d, "B", 2, record.NewBattery(0, 5))
	if len(got) != 1 {
		t.Errorf("subscriber got %d alerts", len(got))
	}
}

func TestInactivityToleratesIngestionGap(t *testing.T) {
	d := NewDaemon()
	det := NewInactivityDetector()
	d.Register(det)
	ingest(d, "A", 1, wearRec(0, true))
	// Movement, then stillness for 10 min — well under MaxStill.
	ingest(d, "A", 1, accelRec(0, 200))
	for at := 10 * time.Second; at < 10*time.Minute; at += 10 * time.Second {
		ingest(d, "A", 1, accelRec(at, 3))
	}
	// A 3-hour ingestion gap (RF outage, gateway restart): no records at
	// all. Sweeps during the gap must not read the silence as stillness.
	for at := 10 * time.Minute; at < 3*time.Hour; at += 10 * time.Minute {
		d.Sweep(at)
	}
	if got := len(alertsOfKind(d, "inactivity")); got != 0 {
		t.Fatalf("false inactivity alerts during ingestion gap: %d", got)
	}
	// The stream resumes with still-but-present records: the detector must
	// re-baseline instead of alerting off the stale pre-gap movement clock.
	resume := 3 * time.Hour
	for at := resume; at < resume+10*time.Minute; at += 10 * time.Second {
		ingest(d, "A", 1, accelRec(at, 3))
	}
	if got := len(alertsOfKind(d, "inactivity")); got != 0 {
		t.Fatalf("false inactivity alert right after gap: %d", got)
	}
	// Genuine post-gap stillness must still fire once MaxStill accumulates
	// on fresh data.
	for at := resume + 10*time.Minute; at < resume+45*time.Minute; at += 10 * time.Second {
		ingest(d, "A", 1, accelRec(at, 3))
	}
	alerts := alertsOfKind(d, "inactivity")
	if len(alerts) != 1 {
		t.Fatalf("post-gap stillness alerts = %d (%v)", len(alerts), alerts)
	}
	if alerts[0].At < resume+30*time.Minute {
		t.Errorf("alert at %v, before MaxStill of fresh post-gap data", alerts[0].At)
	}
}
