package support

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"icares/internal/habitat"
	"icares/internal/mission"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/sociometry"
	"icares/internal/stats"
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
		FirstDay:      res.Config.FirstDataDay,
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

	d := NewDaemon()
	a, err := NewAnalytics(src)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	d.AttachAnalytics(a)
	assignment := res.Assignment
	r := NewReplayer(d, res.Dataset, func(id store.BadgeID, day int) string {
		w, _ := assignment.TrueWearerOf(id, day)
		return w
	})
	// Replay the raw dataset through the daemon, as the gateway would
	// deliver it, before the first live analysis fits the corrections.
	horizon := simtime.StartOfDay(res.Config.Scenario.Days + 1)
	if n := r.Run(0, horizon); n != res.Dataset.TotalRecords() {
		t.Fatalf("replayed %d of %d records", n, res.Dataset.TotalRecords())
	}

	batchSrc := analyticsSource(res)
	batchSrc.Data = res.Dataset
	batch, err := sociometry.NewPipeline(batchSrc)
	if err != nil {
		t.Fatal(err)
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

// TestAnalyticsIncrementalSnapshots folds a mission in day-sized slices
// with a snapshot after each: the analytics must answer continuously as
// data accumulates, and the record count must track ingestion exactly.
func TestAnalyticsIncrementalSnapshots(t *testing.T) {
	res := analyticsMission(t)
	d := NewDaemon()
	a, err := NewAnalytics(analyticsSource(res))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	d.AttachAnalytics(a)
	assignment := res.Assignment
	r := NewReplayer(d, res.Dataset, func(id store.BadgeID, day int) string {
		w, _ := assignment.TrueWearerOf(id, day)
		return w
	})

	var prevRecords int
	total := 0
	for day := 1; day <= res.Config.Scenario.Days; day++ {
		total += r.Run(simtime.StartOfDay(day), simtime.StartOfDay(day+1))
		snap := a.Snapshot()
		if snap.Records != total {
			t.Fatalf("day %d: snapshot records = %d, want %d", day, snap.Records, total)
		}
		if snap.Records < prevRecords {
			t.Fatalf("day %d: record count went backwards", day)
		}
		prevRecords = snap.Records
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
	a, err := NewAnalytics(src, sociometry.WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	d.AttachAnalytics(a)

	d.Privacy().Suppress("A", 10*time.Minute, 20*time.Minute)
	mic := func(at time.Duration) record.Record {
		return record.Record{Local: at, Kind: record.KindMic, LoudnessDB: 70}
	}
	d.Ingest(5*time.Minute, "A", 1, mic(5*time.Minute))
	d.Ingest(15*time.Minute, "A", 1, mic(15*time.Minute)) // suppressed
	d.Ingest(15*time.Minute, "A", 1, accelRec(15*time.Minute, 50))
	d.Ingest(25*time.Minute, "A", 1, mic(25*time.Minute))

	if got := a.Dataset().TotalRecords(); got != 3 {
		t.Fatalf("analytics hold %d records, want 3 (mic in privacy window scrubbed)", got)
	}
	for _, r := range a.Dataset().Series(1).All() {
		if r.Kind == record.KindMic && r.Local >= 10*time.Minute && r.Local < 20*time.Minute {
			t.Error("suppressed mic record reached the analytics")
		}
	}
}

// TestIngestBatchMatchesIngest feeds a mission's records to two daemons,
// one record at a time through Ingest and in random-length equal-day runs
// through IngestBatch, with privacy windows scrubbing some mic and IR
// records mid-run. Both must end with the same alerts in the same order,
// the same counters and device health, and the same analytics series.
func TestIngestBatchMatchesIngest(t *testing.T) {
	res := analyticsMission(t)
	newDaemon := func() (*Daemon, *Analytics, *telemetry.Registry) {
		d := NewDaemon()
		for _, det := range []Detector{NewInactivityDetector(), NewQuietCrewDetector(),
			NewBatteryDetector(), NewHydrationDetector(res.Habitat, 0), NewWearComplianceDetector()} {
			d.Register(det)
		}
		reg := telemetry.NewRegistry()
		d.Instrument(reg)
		for _, name := range mission.Names()[:2] {
			d.Privacy().Suppress(name, simtime.StartOfDay(2)+9*time.Hour, simtime.StartOfDay(2)+11*time.Hour)
		}
		a, err := NewAnalytics(analyticsSource(res), sociometry.WithCorrections(nil))
		if err != nil {
			t.Fatal(err)
		}
		d.AttachAnalytics(a)
		return d, a, reg
	}
	one, oneA, oneReg := newDaemon()
	defer oneA.Close()
	many, manyA, manyReg := newDaemon()
	defer manyA.Close()

	rng := stats.NewRNG(5)
	for _, id := range res.Dataset.Badges() {
		recs := res.Dataset.Series(id).All()
		for len(recs) > 0 {
			day := simtime.DayOf(recs[0].Local)
			n := 1
			for max := 1 + rng.Intn(200); n < len(recs) && n < max && simtime.DayOf(recs[n].Local) == day; n++ {
			}
			wearer, _ := res.Assignment.TrueWearerOf(id, day)
			for _, r := range recs[:n] {
				one.Ingest(r.Local, wearer, id, r)
			}
			many.IngestBatch(wearer, id, recs[:n])
			recs = recs[n:]
		}
	}

	if len(one.Alerts()) == 0 {
		t.Error("no alert raised; the comparison would be vacuous")
	}
	if !reflect.DeepEqual(one.Alerts(), many.Alerts()) {
		t.Errorf("alerts differ: %d per record, %d batched", len(one.Alerts()), len(many.Alerts()))
	}
	if oneReg.String() != manyReg.String() {
		t.Errorf("counters differ:\n%s\nvs\n%s", oneReg, manyReg)
	}
	if scrubbed := oneReg.Counter("support_privacy_scrubbed_total").Value(); scrubbed == 0 {
		t.Error("no record was scrubbed; the privacy windows miss the fixture")
	}
	for _, id := range res.Dataset.Badges() {
		a, b := oneA.Dataset().Series(id), manyA.Dataset().Series(id)
		if a.Seq() != b.Seq() || !reflect.DeepEqual(a.All(), b.All()) {
			t.Errorf("badge %d: analytics series differ (seq %d vs %d)", id, a.Seq(), b.Seq())
		}
		ta, oka := one.Health().lastSeen[id]
		tb, okb := many.Health().lastSeen[id]
		if ta != tb || oka != okb {
			t.Errorf("badge %d: last seen %v/%v vs %v/%v", id, ta, oka, tb, okb)
		}
	}
}
