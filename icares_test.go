package icares

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"icares/internal/faultplan"
	"icares/internal/mission"
	"icares/internal/offload"
	"icares/internal/record"
	"icares/internal/sociometry"
	"icares/internal/store"
	"icares/internal/support"
	"icares/internal/survey"
	"icares/internal/timesync"
	"icares/internal/uplink"
)

// One shared 3-day mission for the facade tests.
var (
	facadeOnce sync.Once
	facadeM    *Mission
	facadeErr  error
)

func facadeMission(t *testing.T) *Mission {
	t.Helper()
	if testing.Short() {
		t.Skip("mission simulation in -short mode")
	}
	facadeOnce.Do(func() {
		facadeM, facadeErr = Simulate(Options{Seed: 5, Days: 3})
	})
	if facadeErr != nil {
		t.Fatal(facadeErr)
	}
	return facadeM
}

func TestSimulateBasics(t *testing.T) {
	m := facadeMission(t)
	if got := len(m.Names()); got != 6 {
		t.Errorf("names = %d", got)
	}
	if m.Result().Dataset.TotalRecords() == 0 {
		t.Error("empty dataset")
	}
	if m.Horizon() != 3*24*time.Hour {
		t.Errorf("horizon = %v", m.Horizon())
	}
	profiles := m.VoiceProfiles()
	if len(profiles) != 6 || profiles["C"] == 0 {
		t.Errorf("voice profiles = %v", profiles)
	}
}

func TestFacadePipelineViews(t *testing.T) {
	m := facadeMission(t)
	pipe, err := m.Pipeline(TrueAssignment)
	if err != nil {
		t.Fatal(err)
	}
	if got := pipe.Transitions(nil).Total(); got == 0 {
		t.Error("no transitions")
	}
	// The nominal view on the same mission still works (rectification is
	// idempotent on the shared dataset).
	nom, err := m.Pipeline(NominalAssignment)
	if err != nil {
		t.Fatal(err)
	}
	if got := nom.Transitions(nil).Total(); got == 0 {
		t.Error("no transitions under nominal view")
	}
}

func TestFacadeSupportSystem(t *testing.T) {
	m := facadeMission(t)
	daemon, replayer := m.SupportSystem()
	n := replayer.Run()
	if n == 0 {
		t.Fatal("nothing replayed")
	}
	if len(daemon.Alerts()) == 0 {
		t.Error("a 3-day mission raised no alerts at all")
	}
	// Detector suite: at least wear-compliance nudges should exist given
	// the scripted compliance decay.
	wear := 0
	for _, a := range daemon.Alerts() {
		if a.Kind == "wear-compliance" {
			wear++
		}
	}
	if wear == 0 {
		t.Error("no wear-compliance alerts")
	}
}

// TestFacadeLiveAnalyticsMatchesBatch pins the live-equals-batch contract
// of the facade: analytics attached with no options and queried after the
// first replay step, before any sync record has reached them, end with the batch pipeline's report
// after the whole mission is replayed through the support system.
func TestFacadeLiveAnalyticsMatchesBatch(t *testing.T) {
	m := facadeMission(t)
	d, feed := m.SupportSystem()
	a, err := m.LiveAnalytics(d, TrueAssignment)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	feed.Step()
	live := a.Pipeline().Source().Data
	for _, id := range live.Badges() {
		v, _ := live.View(id)
		if it := v.Iter(math.MinInt64, math.MaxInt64, record.KindSync); it.Next() {
			t.Fatalf("fixture: badge %d delivered a sync record in the first step", id)
		}
	}
	a.Snapshot()

	feed.Run()
	if feed.Undelivered() != 0 {
		t.Fatalf("%d records undelivered", feed.Undelivered())
	}
	batch, err := m.Pipeline(TrueAssignment)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pipeline().Report() != batch.Report() {
		t.Error("live analytics report differs from the batch pipeline's")
	}
}

// TestSupportSystemChaosAccounting runs the support feed of a two-day
// mission simulated under a chaos plan: the facade puts the plan between
// badges and gateway, and every SD-card record ends up either ingested or
// counted undelivered. The same mission without a plan loses nothing.
func TestSupportSystemChaosAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("mission simulation in -short mode")
	}
	for _, plan := range []*faultplan.Plan{ChaosPlan(11, 2), nil} {
		m, err := Simulate(Options{Seed: 11, Days: 2, Tick: time.Minute, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		_, feed := m.SupportSystem()
		feed.Run()
		total := m.Result().Dataset.TotalRecords()
		if !feed.Done() || feed.Ingested()+feed.Undelivered() != total {
			t.Fatalf("faults %v: ingested %d + undelivered %d != %d records",
				plan != nil, feed.Ingested(), feed.Undelivered(), total)
		}
		if plan == nil {
			if feed.Ingested() != total || feed.Undelivered() != 0 {
				t.Errorf("fault-free feed ingested %d of %d records, %d undelivered",
					feed.Ingested(), total, feed.Undelivered())
			}
			continue
		}
		tr, ok := feed.Transport.(*faultplan.Transport)
		if !ok {
			t.Fatalf("feed transport is %T, want the plan's *faultplan.Transport", feed.Transport)
		}
		if dropped, _ := tr.Stats(); dropped == 0 {
			t.Error("the chaos plan never dropped a delivery")
		}
	}
}

// TestChaosPlanWindowsTakeEffect pins that the windows ChaosPlan draws
// fall where they act. Every RF-outage, gateway-crash and frame-corruption
// window sees at least one delivery attempt through the SupportSystem
// feed's transport, so the plan decides that attempt. Every badge-death
// window leaves its badge with no records inside it, read on the reference
// clock through the pipeline's rectified view. Uplink blackouts act only
// on a link a caller installs them on, and a sync dropout shows only
// against a baseline run without it, so neither kind is checked here.
func TestChaosPlanWindowsTakeEffect(t *testing.T) {
	if testing.Short() {
		t.Skip("mission simulations in -short mode")
	}
	for _, c := range []struct {
		seed uint64
		days int
	}{{1, 2}, {3, 2}, {5, 2}, {7, 2}, {11, 2}, {42, 2}, {9, 4}} {
		plan := ChaosPlan(c.seed, c.days)
		m, err := Simulate(Options{Seed: c.seed, Days: c.days, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		_, feed := m.SupportSystem()
		var attempts []time.Duration // feed clock at each attempt, ascending
		inner := feed.Transport
		feed.Transport = offload.TransportFunc(func(b offload.Batch) bool {
			attempts = append(attempts, feed.Now())
			return inner.Deliver(b)
		})
		feed.Run()
		for _, k := range []faultplan.Kind{faultplan.RFOutage, faultplan.GatewayCrash, faultplan.FrameCorruption} {
			for _, w := range plan.Windows(k) {
				if i, _ := slices.BinarySearch(attempts, w.From); i == len(attempts) || attempts[i] >= w.To {
					t.Errorf("seed %d, %d days: no delivery attempt inside %v", c.seed, c.days, w)
				}
			}
		}

		p, err := m.Pipeline(TrueAssignment)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range plan.Windows(faultplan.BadgeDeath) {
			v, ok := p.View(w.Badge)
			if !ok {
				t.Fatalf("seed %d: badge %d has no records", c.seed, w.Badge)
			}
			if n := len(scanView(v, w.From, w.To, 0)); n != 0 {
				t.Errorf("seed %d, %d days: %d records inside %v", c.seed, c.days, n, w)
			}
		}
	}
}

func TestFacadeCouncilOverLink(t *testing.T) {
	m := facadeMission(t)
	link := MissionControlLink()
	if link.Delay() != uplink.DefaultDelay {
		t.Errorf("delay = %v", link.Delay())
	}
	council := m.Council(link)
	p, err := council.Propose(time.Hour, "B", "test change")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"A", "D", "E"} {
		if err := council.Vote(time.Hour, p.ID, v, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := council.MissionControlDecision(2*time.Hour, p.ID, true); err != nil {
		t.Fatal(err)
	}
	if p.Status() != support.Approved {
		t.Errorf("status = %v", p.Status())
	}
}

func TestFacadeSurveysCrossValidate(t *testing.T) {
	m := facadeMission(t)
	col, err := m.Surveys()
	if err != nil {
		t.Fatal(err)
	}
	byDay := col.ByDay(survey.Satisfaction)
	if len(byDay) != 2 { // days 2..3
		t.Errorf("survey days = %v", byDay)
	}
	for d := 2; d <= 3; d++ {
		if v := byDay[d]; v < 1 || v > 7 {
			t.Errorf("day %d satisfaction = %v", d, v)
		}
	}
}

func TestFullMissionShapeHolds(t *testing.T) {
	// The expensive end-to-end shape check on the complete 14-day mission:
	// this is the single test that pins every headline claim at once.
	if testing.Short() {
		t.Skip("full mission in -short mode")
	}
	m, err := Simulate(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Pipeline(TrueAssignment)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 2: kitchen<->office among top passages — covered in benches; here
	// assert the trend and Table I invariants.
	slope, tau := p.SpeechTrend()
	if slope >= 0 || tau >= 0 {
		t.Errorf("speech trend not declining: slope %v tau %v", slope, tau)
	}
	rows := p.TableI()
	for _, r := range rows {
		if r.Name == "C" {
			if !math.IsNaN(r.Company) {
				t.Error("C company not n/a")
			}
			if r.Talking != 1 || r.Walking != 1 {
				t.Errorf("C talking/walking = %v/%v", r.Talking, r.Walking)
			}
		}
	}
}

func TestFailedBadgeStopsRecordingAndReuseContinues(t *testing.T) {
	// Failure injection: F's badge dies on the reuse day; F continues on
	// C's badge. The data must show exactly that.
	if testing.Short() {
		t.Skip("mission simulation in -short mode")
	}
	sc := mission.DefaultScenario(9)
	sc.Days = 9 // past the reuse day (8)
	res, err := mission.Run(mission.Config{Seed: 9, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	day8 := 7 * 24 * time.Hour
	fSeries := res.Dataset.Series(store.BadgeID(mission.BadgeF))
	after := fSeries.Range(day8+10*time.Hour, day8+20*time.Hour)
	if len(after) != 0 {
		t.Errorf("failed badge F recorded %d records on day 8", len(after))
	}
	// C's badge records during day 8 daytime (worn by F).
	cSeries := res.Dataset.Series(store.BadgeID(mission.BadgeC))
	worn := 0
	for _, r := range cSeries.Range(day8, day8+24*time.Hour) {
		if r.Kind == record.KindWear && r.Worn() {
			worn++
		}
	}
	if worn == 0 {
		t.Error("C's badge never worn on the reuse day")
	}
}

func TestSharedDatasetRectifiedOnceAcrossViews(t *testing.T) {
	// Both assignment views over one Simulate run, rectifying concurrently,
	// must fit equal corrections and leave the shared dataset on raw device
	// time: rectification happens in each pipeline's views, never in place,
	// so a second view cannot apply the corrections a second time.
	if testing.Short() {
		t.Skip("mission simulation in -short mode")
	}
	m, err := Simulate(Options{Seed: 11, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	ds := m.Result().Dataset
	type bounds struct {
		first, last time.Duration
		n           int
	}
	snapshot := func() map[store.BadgeID]bounds {
		out := make(map[store.BadgeID]bounds)
		for _, id := range ds.Badges() {
			f, _ := ds.Series(id).First()
			l, _ := ds.Series(id).Last()
			out[id] = bounds{f.Local, l.Local, ds.Series(id).Len()}
		}
		return out
	}
	raw := snapshot()

	truth, err := m.Pipeline(TrueAssignment)
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := m.Pipeline(NominalAssignment)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	cors := make([]map[store.BadgeID]timesync.Correction, 2*callers)
	var wg sync.WaitGroup
	for i := range cors {
		p := truth
		if i%2 == 1 {
			p = nominal
		}
		wg.Add(1)
		go func(i int, p *sociometry.Pipeline) {
			defer wg.Done()
			cors[i], _ = p.RectifyClocks()
		}(i, p)
	}
	wg.Wait()

	if len(cors[0]) == 0 {
		t.Fatal("no corrections fitted")
	}
	for i := 1; i < len(cors); i++ {
		if !reflect.DeepEqual(cors[i], cors[0]) {
			t.Errorf("caller %d corrections differ: %v vs %v", i, cors[i], cors[0])
		}
	}
	// Both views stay analyzable, and the dataset is untouched.
	if truth.Transitions(nil).Total() == 0 || nominal.Transitions(nil).Total() == 0 {
		t.Error("a view lost its transitions")
	}
	if got := snapshot(); !reflect.DeepEqual(got, raw) {
		t.Errorf("dataset timestamps moved under analysis: %v -> %v", raw, got)
	}
}
