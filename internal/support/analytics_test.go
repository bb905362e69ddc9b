package support

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/habitat"
	"icares/internal/mission"
	"icares/internal/offload"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/sociometry"
	"icares/internal/store"
	"icares/internal/telemetry"
)

// analyticsFixture runs one short mission shared by the analytics tests.
var (
	anaOnce sync.Once
	anaRes  *mission.Result
	anaErr  error
)

func analyticsMission(t *testing.T) *mission.Result {
	t.Helper()
	if testing.Short() {
		t.Skip("mission fixture in -short mode")
	}
	anaOnce.Do(func() {
		sc := mission.DefaultScenario(4242)
		sc.Days = 3
		anaRes, anaErr = mission.Run(mission.Config{Seed: 4242, Scenario: sc})
	})
	if anaErr != nil {
		t.Fatal(anaErr)
	}
	return anaRes
}

func analyticsSource(res *mission.Result) sociometry.Source {
	profiles := make(map[string]float64)
	for _, r := range res.Roster {
		profiles[r.Name] = r.Traits.F0Hz
	}
	return sociometry.Source{
		Habitat: res.Habitat,
		// Dataset is supplied by NewAnalytics.
		Names: mission.Names(),
		BadgeFor: func(name string, day int) store.BadgeID {
			return res.Assignment.TrueBadgeFor(name, day)
		},
		VoiceProfiles: profiles,
		FirstDay:      mission.FirstDataDay,
		LastDay:       res.Config.Scenario.Days,
	}
}

// TestAnalyticsMatchesBatchPipeline streams a whole mission through the
// daemon and asserts the live analytics end up byte-identical to the
// offline batch pipeline over the same records: the batch path is "fold
// everything".
func TestAnalyticsMatchesBatchPipeline(t *testing.T) {
	res := analyticsMission(t)
	src := analyticsSource(res)

	batchSrc := analyticsSource(res)
	batchSrc.Data = res.Dataset
	batch, err := sociometry.NewPipeline(batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	cors, _ := batch.RectifyClocks()

	d := NewDaemon()
	a, err := NewAnalytics(src, cors)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	d.AttachAnalytics(a)
	// Replay the raw dataset through the daemon over the offload path.
	r := NewReplayer(d, res.Dataset, simtime.StartOfDay(res.Config.Scenario.Days+1), res.Assignment.TrueWearerOf)
	if n := r.Run(); n != res.Dataset.TotalRecords() || r.Undelivered() != 0 {
		t.Fatalf("replayed %d of %d records, %d undelivered", n, res.Dataset.TotalRecords(), r.Undelivered())
	}

	liveReport := a.Pipeline().Report()
	batchReport := batch.Report()
	if liveReport != batchReport {
		t.Error("live analytics report diverged from batch pipeline report")
	}

	snap := a.Snapshot()
	if snap.Records != res.Dataset.TotalRecords() {
		t.Errorf("snapshot records = %d, want %d", snap.Records, res.Dataset.TotalRecords())
	}
	if want := batch.Transitions(nil).Total(); snap.Passages != want {
		t.Errorf("snapshot passages = %d, want %d", snap.Passages, want)
	}
	for _, name := range mission.Names() {
		if want := batch.WalkingFraction(name); snap.Walking[name] != want {
			t.Errorf("%s walking = %v, want %v", name, snap.Walking[name], want)
		}
	}
}

// TestAnalyticsIncrementalSnapshots steps a mission through the replayer
// with a snapshot at each day boundary: the analytics must answer
// continuously as data accumulates, and the record count must track
// ingestion exactly.
func TestAnalyticsIncrementalSnapshots(t *testing.T) {
	res := analyticsMission(t)
	batchSrc := analyticsSource(res)
	batchSrc.Data = res.Dataset
	batch, err := sociometry.NewPipeline(batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	cors, _ := batch.RectifyClocks()
	d := NewDaemon()
	a, err := NewAnalytics(analyticsSource(res), cors)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	d.AttachAnalytics(a)
	r := NewReplayer(d, res.Dataset, simtime.StartOfDay(res.Config.Scenario.Days+1), res.Assignment.TrueWearerOf)

	var prevRecords, snaps int
	for day := simtime.DayOf(r.Now()); !r.Done(); {
		r.Step()
		if simtime.DayOf(r.Now()) == day && !r.Done() {
			continue
		}
		day = simtime.DayOf(r.Now())
		snap := a.Snapshot()
		snaps++
		if snap.Records != r.Ingested() {
			t.Fatalf("day %d: snapshot records = %d, want %d", day, snap.Records, r.Ingested())
		}
		if snap.Records < prevRecords {
			t.Fatalf("day %d: record count went backwards", day)
		}
		prevRecords = snap.Records
	}
	if snaps < res.Config.Scenario.Days {
		t.Errorf("%d snapshots over a %d-day mission", snaps, res.Config.Scenario.Days)
	}
	if prevRecords != res.Dataset.TotalRecords() {
		t.Errorf("final snapshot records = %d, want %d", prevRecords, res.Dataset.TotalRecords())
	}
	if a.Snapshot().Passages == 0 {
		t.Error("no passages after full mission")
	}
}

// TestAnalyticsRespectsPrivacyScrub pins that suppressed records never
// reach the live analytics: the scrub happens before the analytics hook.
func TestAnalyticsRespectsPrivacyScrub(t *testing.T) {
	src := sociometry.Source{
		Habitat:  habitat.Standard(),
		Names:    []string{"A"},
		BadgeFor: func(string, int) store.BadgeID { return 1 },
		FirstDay: 1,
		LastDay:  1,
	}
	d := NewDaemon()
	a, err := NewAnalytics(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	d.AttachAnalytics(a)

	d.Privacy().Suppress("A", 10*time.Minute, 20*time.Minute)
	mic := func(at time.Duration) record.Record {
		return record.NewMic(at, false, 70, 0, 0)
	}
	ingest(d, "A", 1, mic(5*time.Minute))
	ingest(d, "A", 1, mic(15*time.Minute)) // suppressed
	ingest(d, "A", 1, accelRec(15*time.Minute, 50))
	ingest(d, "A", 1, mic(25*time.Minute))

	if got := a.live.TotalRecords(); got != 3 {
		t.Fatalf("analytics hold %d records, want 3 (mic in privacy window scrubbed)", got)
	}
	for _, r := range a.live.Series(1).All() {
		if r.Kind == record.KindMic && r.Local >= 10*time.Minute && r.Local < 20*time.Minute {
			t.Error("suppressed mic record reached the analytics")
		}
	}
}

// TestAlertsIndependentOfBatching is the alert-batching property: over a
// real mission's feed, how the gateway hands a window's records to the
// daemon never changes what the daemon concludes. One replay applies each
// window as the gateway released it. Each quick-drawn seed replays the
// mission again with every released batch split at random points (down to
// single records) and the pieces interleaved at random across badges,
// keeping each badge's own order as the gateway guarantees. Both must
// raise the same alerts (At, Severity, Kind, Subject, Message) in the same
// order, with the same counters, device health and analytics series, while
// privacy windows scrub some mic and IR records mid-batch.
func TestAlertsIndependentOfBatching(t *testing.T) {
	res := analyticsMission(t)
	horizon := simtime.StartOfDay(res.Config.Scenario.Days + 1)
	type outcome struct {
		d   *Daemon
		a   *Analytics
		reg *telemetry.Registry
	}
	replay := func(rng *rand.Rand) outcome {
		d := NewDaemon()
		for _, det := range []Detector{NewInactivityDetector(), NewQuietCrewDetector(),
			NewBatteryDetector(), NewHydrationDetector(res.Habitat), NewWearComplianceDetector()} {
			d.Register(det)
		}
		spares := NewBadgePool([]store.BadgeID{store.BadgeID(mission.FirstBackupBadge)})
		d.Register(NewFailover(d.Health(), spares, func(id store.BadgeID) (string, bool) {
			return res.Assignment.TrueWearerOf(id, res.Config.Scenario.Days)
		}))
		reg := telemetry.NewRegistry()
		d.Instrument(reg)
		for _, name := range mission.Names()[:2] {
			d.Privacy().Suppress(name, simtime.StartOfDay(2)+9*time.Hour, simtime.StartOfDay(2)+11*time.Hour)
		}
		a, err := NewAnalytics(analyticsSource(res), nil)
		if err != nil {
			t.Fatal(err)
		}
		d.AttachAnalytics(a)
		r := NewReplayer(d, res.Dataset, horizon, res.Assignment.TrueWearerOf)
		if rng != nil {
			r.gateway, _ = offload.NewGateway(func(id store.BadgeID, recs []record.Record) {
				for len(recs) > 0 {
					k := 1 + rng.Intn(len(recs))
					lo := 0 // just past the badge's last staged piece
					for i, b := range r.staged {
						if b.Badge == id {
							lo = i + 1
						}
					}
					at := lo + rng.Intn(len(r.staged)-lo+1)
					r.staged = slices.Insert(r.staged, at, offload.Batch{Badge: id, Records: recs[:k]})
					recs = recs[k:]
				}
			})
			r.gateway.MaxHeldPerBadge = 64
			r.Transport = offload.TransportFunc(r.gateway.Offer)
		}
		if r.Run(); r.Undelivered() != 0 {
			t.Fatalf("%d records undelivered", r.Undelivered())
		}
		return outcome{d, a, reg}
	}

	want := replay(nil)
	defer want.a.Close()
	if len(want.d.Alerts()) == 0 {
		t.Fatal("no alert raised; the comparison would be vacuous")
	}
	if want.reg.Counter("support_privacy_scrubbed_total").Value() == 0 {
		t.Fatal("no record was scrubbed; the privacy windows miss the fixture")
	}
	property := func(seed int64) bool {
		got := replay(rand.New(rand.NewSource(seed)))
		defer got.a.Close()
		same := true
		if ga, wa := got.d.Alerts(), want.d.Alerts(); !reflect.DeepEqual(ga, wa) {
			t.Errorf("seed %d: alerts differ: %d rebatched, %d as released", seed, len(ga), len(wa))
			same = false
		}
		if got.reg.String() != want.reg.String() {
			t.Errorf("seed %d: counters differ:\n%s\nvs\n%s", seed, got.reg, want.reg)
			same = false
		}
		for _, id := range res.Dataset.Badges() {
			if !reflect.DeepEqual(got.a.live.Series(id).All(), want.a.live.Series(id).All()) {
				t.Errorf("seed %d: badge %d: analytics series differ", seed, id)
				same = false
			}
			ta, oka := got.d.Health().lastSeen[id]
			tb, okb := want.d.Health().lastSeen[id]
			if ta != tb || oka != okb {
				t.Errorf("seed %d: badge %d: last seen %v/%v vs %v/%v", seed, id, ta, oka, tb, okb)
				same = false
			}
		}
		return same
	}
	cfg := &quick.Config{MaxCount: 3, Rand: rand.New(rand.NewSource(time.Now().UnixNano()))}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}
