package sociometry

import (
	"maps"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/habitat"
	"icares/internal/mission"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/store"
	"icares/internal/timesync"
)

// rectifiedFixtureRecords returns the fixture mission's records as the
// pipeline reads them — through the rectified views — per badge. Parity
// tests replay these into fresh datasets under an empty WithCorrections, so
// fold-order experiments are isolated from correction estimation (which
// NewPipeline fits once, over whatever sync records the source holds then).
func rectifiedFixtureRecords(t *testing.T) map[store.BadgeID][]record.Record {
	t.Helper()
	p := fixturePipeline(t)
	out := make(map[store.BadgeID][]record.Record)
	for _, id := range missionFixture(t).Dataset.Badges() {
		v, ok := p.View(id)
		if !ok {
			t.Fatalf("badge %d has no view", id)
		}
		out[id] = scanAll(v)
	}
	return out
}

// fixtureSource builds a pipeline source over the given dataset with the
// fixture mission's assignment and crew.
func fixtureSource(t *testing.T, ds *store.Dataset) Source {
	t.Helper()
	res := missionFixture(t)
	return Source{
		Habitat: res.Habitat,
		Data:    ds,
		Names:   mission.Names(),
		BadgeFor: func(name string, day int) store.BadgeID {
			return res.Assignment.TrueBadgeFor(name, day)
		},
		VoiceProfiles: voiceProfiles(res),
		FirstDay:      2,
		LastDay:       res.Config.Scenario.Days,
	}
}

func loadAll(ds *store.Dataset, recs map[store.BadgeID][]record.Record) {
	ids := make([]store.BadgeID, 0, len(recs))
	for id := range recs {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		s := ds.Series(id)
		for _, r := range recs[id] {
			s.Append(r)
		}
	}
}

// TestFoldParityRandomChunks is the central incremental-operator property:
// folding the same records into a following pipeline in arbitrary chunk
// sizes and arbitrary cross-badge interleavings — with analyses issued
// mid-stream — must end in a report byte-identical to the batch pipeline
// that saw everything up front. Per-badge record order is preserved, as the
// gateway's per-badge upload streams preserve it.
func TestFoldParityRandomChunks(t *testing.T) {
	recs := rectifiedFixtureRecords(t)

	batchDS := store.NewDataset()
	loadAll(batchDS, recs)
	batchP, err := NewPipeline(fixtureSource(t, batchDS), WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := batchP.Report()

	property := func(seed uint64) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		ds := store.NewDataset()
		p, err := NewPipeline(fixtureSource(t, ds), WithCorrections(nil))
		if err != nil {
			t.Fatal(err)
		}
		stop := p.Follow()
		defer stop()

		// Random contiguous per-badge chunks, delivered in a random
		// cross-badge interleaving (per-badge order preserved).
		type chunk struct {
			id   store.BadgeID
			recs []record.Record
		}
		queues := make(map[store.BadgeID][][]record.Record)
		var ids []store.BadgeID
		for id, rs := range recs {
			ids = append(ids, id)
			for len(rs) > 0 {
				n := 1 + rng.Intn(len(rs))
				queues[id] = append(queues[id], rs[:n])
				rs = rs[n:]
			}
		}
		var schedule []chunk
		for len(ids) > 0 {
			i := rng.Intn(len(ids))
			id := ids[i]
			schedule = append(schedule, chunk{id, queues[id][0]})
			queues[id] = queues[id][1:]
			if len(queues[id]) == 0 {
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
		}
		for ci, c := range schedule {
			s := ds.Series(c.id)
			for _, r := range c.recs {
				s.Append(r)
			}
			// A couple of mid-stream analyses: they must fold the pending
			// windows in without corrupting later results.
			if ci == len(schedule)/3 || ci == 2*len(schedule)/3 {
				p.Transitions(nil)
				p.Wear()
			}
		}
		return p.Report() == want
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestFoldWhileReadersQuery exercises the live path under the race
// detector: a writer folds the final day's records in while readers query,
// and once appends quiesce the next analyses are exact.
func TestFoldWhileReadersQuery(t *testing.T) {
	recs := rectifiedFixtureRecords(t)
	res := missionFixture(t)
	cut := simtime.StartOfDay(res.Config.Scenario.Days)

	batchDS := store.NewDataset()
	loadAll(batchDS, recs)
	batchP, err := NewPipeline(fixtureSource(t, batchDS), WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}

	liveDS := store.NewDataset()
	head := make(map[store.BadgeID][]record.Record)
	tail := make(map[store.BadgeID][]record.Record)
	for id, rs := range recs {
		for _, r := range rs {
			if r.Local < cut {
				head[id] = append(head[id], r)
			} else {
				tail[id] = append(tail[id], r)
			}
		}
	}
	loadAll(liveDS, head)
	p, err := NewPipeline(fixtureSource(t, liveDS), WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	stop := p.Follow()
	defer stop()
	p.Warm()

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				p.Transitions(nil)
				p.WalkingFraction("A")
				p.Pairwise()
			}
		}()
	}
	loadAll(liveDS, tail)
	close(done)
	wg.Wait()

	if got, want := p.Transitions(nil), batchP.Transitions(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("transitions after fold = %v, want %v", got, want)
	}
	for _, name := range mission.Names() {
		if got, want := p.WalkingFraction(name), batchP.WalkingFraction(name); got != want {
			t.Errorf("%s walking fraction = %v, want %v", name, got, want)
		}
	}
	if got, want := p.Pairwise(), batchP.Pairwise(); !reflect.DeepEqual(got, want) {
		t.Errorf("pairwise after fold diverged from batch")
	}
}

// TestWindowScopedInvalidation pins the fold's recomputation scope: one
// appended record recomputes exactly its (astronaut, day) window and the
// astronaut-level caches folding it — every other window stays warm.
func TestWindowScopedInvalidation(t *testing.T) {
	recs := rectifiedFixtureRecords(t)
	res := missionFixture(t)
	lastDay := res.Config.Scenario.Days

	ds := store.NewDataset()
	loadAll(ds, recs)
	p, err := NewPipeline(fixtureSource(t, ds), WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	stop := p.Follow()
	defer stop()
	p.Warm()

	winTrack0 := p.winTrack.computeCount()
	track0 := p.trackCache.computeCount()
	frames0 := p.framesCache.computeCount()

	// One accel record for the badge A wore on the last day.
	id := res.Assignment.TrueBadgeFor("A", lastDay)
	if id == 0 {
		t.Fatal("A unassigned on last day")
	}
	ds.Series(id).Append(record.Record{
		Local: simtime.StartOfDay(lastDay) + 12*time.Hour,
		Kind:  record.KindAccel,
	})

	for _, name := range mission.Names() {
		p.Track(name)
	}
	if got := p.winTrack.computeCount() - winTrack0; got != 1 {
		t.Errorf("window track recomputes = %d, want 1", got)
	}
	if got := p.trackCache.computeCount() - track0; got != 1 {
		t.Errorf("astronaut track recomputes = %d, want 1", got)
	}
	// Frames depend on the same records: the stale window dropped them too,
	// but nobody re-queried, so no recompute yet.
	if got := p.framesCache.computeCount() - frames0; got != 0 {
		t.Errorf("frames recomputed without being queried: %d", got)
	}

	// A middle-day accel record: still exactly one window recomputes. Only
	// a wear record reaches past its own day.
	p.Warm()
	mid := (2 + lastDay) / 2
	before := windowComputes(p)
	ds.Series(res.Assignment.TrueBadgeFor("A", mid)).Append(record.Record{
		Local: simtime.StartOfDay(mid) + 12*time.Hour,
		Kind:  record.KindAccel,
	})
	p.Warm()
	if got := windowComputes(p).sub(before); got != (computes{1, 1, 1}) {
		t.Errorf("middle-day window recomputes (track, frames, activity) = %v, want [1 1 1]", got)
	}
}

// computes counts the track, mic-frame and activity window computations.
type computes [3]int64

func (c computes) sub(d computes) computes { return computes{c[0] - d[0], c[1] - d[1], c[2] - d[2]} }

func windowComputes(p *Pipeline) computes {
	return computes{p.winTrack.computeCount(), p.winFrames.computeCount(), p.winActivity.computeCount()}
}

// TestWearRecordInvalidatesLaterDays pins the wear-mark rule: whether time
// t is worn depends only on the wear records at or before t, so a wear
// record appended on a middle day recomputes its astronaut's track, frame
// and activity windows from that day through the last day and no others,
// and the following report then equals the batch report over the same
// records.
func TestWearRecordInvalidatesLaterDays(t *testing.T) {
	recs := rectifiedFixtureRecords(t)
	res := missionFixture(t)
	lastDay := res.Config.Scenario.Days
	mid := (2 + lastDay) / 2

	ds := store.NewDataset()
	loadAll(ds, recs)
	p, err := NewPipeline(fixtureSource(t, ds), WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	stop := p.Follow()
	defer stop()
	p.Warm()
	p.Report()

	// A put-on record late on the middle day while A's badge lies unworn:
	// the worn range it opens runs past midnight into the next day.
	at := simtime.StartOfDay(mid) + 23*time.Hour + 30*time.Minute
	next := simtime.StartOfDay(mid+1) + time.Hour
	if worn := p.WornRanges("A"); worn.Contains(at) || worn.Contains(next) {
		t.Fatalf("fixture: A's badge is worn around midnight after day %d", mid)
	}
	before, contacts0 := windowComputes(p), p.winContacts.computeCount()
	id := res.Assignment.TrueBadgeFor("A", mid)
	wear := record.NewWear(at, true)
	ds.Series(id).Append(wear)
	p.Warm()
	got := p.Report()
	if !p.WornRanges("A").Contains(next) {
		t.Fatalf("the wear record did not change A's worn set on day %d", mid+1)
	}

	var days int64
	for day := mid; day <= lastDay; day++ {
		if res.Assignment.TrueBadgeFor("A", day) != 0 {
			days++
		}
	}
	if d := windowComputes(p).sub(before); d != (computes{days, days, days}) {
		t.Errorf("window recomputes (track, frames, activity) = %v, want %d each (A, days %d..%d)", d, days, mid, lastDay)
	}
	if d := p.winContacts.computeCount() - contacts0; d != 1 {
		t.Errorf("contact window recomputes = %d, want 1", d)
	}

	batchDS := store.NewDataset()
	loadAll(batchDS, recs)
	batchDS.Series(id).Append(wear)
	batchP, err := NewPipeline(fixtureSource(t, batchDS), WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := batchP.Report(); got != want {
		t.Errorf("following report after the wear record differs from the batch report")
	}
}

// gatedViewer wraps a dataset so a test can hold one reader inside a window
// compute: once armed, the next Iter of the given kind on badge id closes
// entered and waits for release.
type gatedViewer struct {
	*store.Dataset
	id      store.BadgeID
	kind    record.Kind
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedViewer) View(id store.BadgeID) (store.View, bool) {
	v, ok := g.Dataset.View(id)
	if !ok || id != g.id {
		return v, ok
	}
	return gatedView{v, g}, true
}

type gatedView struct {
	store.View
	g *gatedViewer
}

func (v gatedView) Iter(from, to time.Duration, k record.Kind) record.Cursor {
	if k == v.g.kind && v.g.armed.CompareAndSwap(true, false) {
		close(v.g.entered)
		<-v.g.release
	}
	return v.View.Iter(from, to, k)
}

// TestWearFoldBesideQuery runs a query beside the fold that applies a wear
// mark. Analyses that enter after the 0→1 transition do not wait for the
// fold, so a query can start A's frames before the wear record lands and
// rebuild A's later frame windows after the fold dropped them. Each rebuilt
// window must read the worn set as rebuilt after the wear record, so the
// following report still equals the batch report.
func TestWearFoldBesideQuery(t *testing.T) {
	recs := rectifiedFixtureRecords(t)
	res := missionFixture(t)
	lastDay := res.Config.Scenario.Days
	mid := (2 + lastDay) / 2

	ds := store.NewDataset()
	loadAll(ds, recs)
	g := &gatedViewer{
		Dataset: ds,
		id:      res.Assignment.TrueBadgeFor("A", 2),
		kind:    record.KindMic,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	src := fixtureSource(t, ds)
	src.Data = g
	p, err := NewPipeline(src, WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	stop := p.Follow()
	defer stop()
	p.Warm()
	p.Report()

	// The query misses A's frames and A's day-2 frame window, where the
	// gate holds it. It calls the unexported frames, as a query that
	// entered while another one runs the fold: it neither applies marks
	// nor holds the fold back.
	p.framesCache.drop("A")
	p.winFrames.drop(wkey{"A", 2})
	g.armed.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.frames("A")
	}()
	<-g.entered

	at := simtime.StartOfDay(mid) + 23*time.Hour + 30*time.Minute
	id := res.Assignment.TrueBadgeFor("A", mid)
	wear := record.NewWear(at, true)
	ds.Series(id).Append(wear)
	// Release the query once the fold has dropped A's worn set and later
	// windows, and let it finish before the astronaut-level drops.
	p.foldHook = func() {
		close(g.release)
		<-done
	}
	p.Report()
	p.foldHook = nil
	got := p.Report()

	batchDS := store.NewDataset()
	loadAll(batchDS, recs)
	batchDS.Series(id).Append(wear)
	batchP, err := NewPipeline(fixtureSource(t, batchDS), WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := batchP.Report(); got != want {
		t.Errorf("following report after a fold beside a query differs from the batch report")
	}
}

// syntheticSyncSource builds a one-badge dataset whose sync records encode a
// known clock error, plus the pipeline source over it.
func syntheticSyncSource(offset time.Duration, skew float64) (Source, *store.Dataset) {
	ds := store.NewDataset()
	s := ds.Series(1)
	toLocal := func(ref time.Duration) time.Duration {
		return offset + time.Duration(float64(ref)*(1+skew))
	}
	day2 := simtime.StartOfDay(2)
	for i := 0; i < 12; i++ {
		ref := day2 + time.Duration(i)*time.Hour
		s.Append(record.NewSync(toLocal(ref), ref))
	}
	src := Source{
		Habitat:  habitat.Standard(),
		Data:     ds,
		Names:    []string{"A"},
		BadgeFor: func(string, int) store.BadgeID { return 1 },
		FirstDay: 2,
		LastDay:  2,
	}
	return src, ds
}

// TestRectifyOnIngest pins the live-rectification contract: a record
// appended to a following pipeline's source stays raw in the dataset,
// reads rectified through the pipeline's view, and invalidates the window
// of its reference-time day. The record is placed seconds before midnight
// in reference time, where the badge's fast clock already reads the next
// day — outside the analysis range — so marking by the raw timestamp would
// drop the invalidation and leave the stale window cached. And the
// corrections are those NewPipeline fitted: sync records appended later,
// which a refit would follow, change neither them nor a record's time.
func TestRectifyOnIngest(t *testing.T) {
	src, ds := syntheticSyncSource(1500*time.Millisecond, 25e-6)
	p, err := NewPipeline(src)
	if err != nil {
		t.Fatal(err)
	}
	stop := p.Follow()
	defer stop()
	before := len(p.RecordsFor("A"))
	c, ok := p.corrections[1]
	if !ok || c.N == 0 {
		t.Fatalf("no correction estimated: %+v", p.corrections)
	}

	ref := simtime.StartOfDay(3) - 2*time.Second
	local := c.ToLocal(ref)
	if simtime.DayOf(local) == simtime.DayOf(ref) {
		t.Fatalf("fixture clock error too small: local %v and reference %v share a day", local, ref)
	}
	ds.Series(1).Append(record.Record{Local: local, Kind: record.KindAccel})

	if last, _ := ds.Series(1).Last(); last.Local != local {
		t.Errorf("dataset holds %v, want the raw timestamp %v", last.Local, local)
	}
	recs := p.RecordsFor("A")
	if len(recs) != before+1 {
		t.Fatalf("records after append = %d, want %d (window not invalidated)", len(recs), before+1)
	}
	got := recs[len(recs)-1]
	if got.Kind != record.KindAccel {
		t.Fatalf("last record is %v, want the appended accel record", got.Kind)
	}
	if want := c.ToReference(local); got.Local != want {
		t.Errorf("ingested record reads at %v, want rectified %v", got.Local, want)
	}

	// The rest of day 2's sync exchanges arrive, under a clock that has
	// since jumped by a minute: a fit over them would differ.
	fitted, _ := p.RectifyClocks()
	fitted = maps.Clone(fitted)
	for h := 12; h < 20; h++ {
		at := simtime.StartOfDay(2) + time.Duration(h)*time.Hour
		ds.Series(1).Append(record.NewSync(c.ToLocal(at)+time.Minute, at))
	}
	if cors, _ := p.RectifyClocks(); !reflect.DeepEqual(cors, fitted) {
		t.Errorf("corrections after more sync records = %v, want the construction-time %v", cors, fitted)
	}
	refit, err := NewPipeline(src)
	if err != nil {
		t.Fatal(err)
	}
	if cors, _ := refit.RectifyClocks(); reflect.DeepEqual(cors, fitted) {
		t.Fatal("fixture: a fit over every sync record equals the partial fit")
	}
	after := p.RecordsFor("A")
	if len(after) != len(recs)+8 {
		t.Fatalf("records after the sync records = %d, want %d", len(after), len(recs)+8)
	}
	read := make(map[record.Record]int)
	for _, r := range after {
		read[r]++
	}
	for _, r := range recs {
		if read[r] == 0 {
			t.Fatalf("record %+v no longer reads at %v after the sync records", r, r.Local)
		}
		read[r]--
	}
	fixed, err := NewPipeline(src, WithCorrections(fitted))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, fixed.RecordsFor("A")) {
		t.Error("following pipeline's records differ from a batch pipeline's under its corrections")
	}
	if p.Report() != fixed.Report() {
		t.Error("following pipeline's report differs from a batch pipeline's under its corrections")
	}
}

// TestWithoutRectificationBothPaths covers the rectification switch: the
// default pipeline fits corrections, WithCorrections(nil) is the timesync
// ablation and reads local clocks, and an explicit map is used verbatim
// without a fit. No path writes to the dataset.
func TestWithoutRectificationBothPaths(t *testing.T) {
	src, ds := syntheticSyncSource(2*time.Second, 0)
	raw := append([]record.Record(nil), ds.Series(1).All()...)
	viewOf := func(p *Pipeline) []record.Record {
		t.Helper()
		v, ok := p.View(1)
		if !ok {
			t.Fatal("badge 1 has no view")
		}
		return scanAll(v)
	}

	ablated, err := NewPipeline(src, WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	if cors, _ := ablated.RectifyClocks(); len(cors) != 0 {
		t.Errorf("ablated pipeline produced corrections: %v", cors)
	}
	if !reflect.DeepEqual(viewOf(ablated), raw) {
		t.Error("ablated pipeline does not read local clocks")
	}

	normal, err := NewPipeline(src)
	if err != nil {
		t.Fatal(err)
	}
	cors, _ := normal.RectifyClocks()
	if len(cors) == 0 {
		t.Fatal("default pipeline did not fit corrections")
	}
	if reflect.DeepEqual(viewOf(normal), raw) {
		t.Error("default pipeline reads the skewed timestamps")
	}

	given := timesync.Correction{Offset: time.Second}
	explicit, err := NewPipeline(src, WithCorrections(map[store.BadgeID]timesync.Correction{1: given}))
	if err != nil {
		t.Fatal(err)
	}
	if cors, _ := explicit.RectifyClocks(); len(cors) != 1 || cors[1] != given {
		t.Errorf("explicit corrections = %v, want exactly {1: %+v}", cors, given)
	}
	if got := viewOf(explicit); got[0].Local != given.ToReference(raw[0].Local) {
		t.Errorf("explicit correction not applied: %v from %v", got[0].Local, raw[0].Local)
	}

	if !reflect.DeepEqual(ds.Series(1).All(), raw) {
		t.Error("a pipeline rewrote the dataset")
	}
}

// TestFoldCrewFoldsOncePerGeneration pins the crew-level memos of a
// following pipeline: repeated reports and face-to-face reads between
// appends sweep the crew's presence once and build the IR pair map once;
// one appended non-wear record makes the next report rebuild each once;
// and that report equals the batch report over the same records.
func TestFoldCrewFoldsOncePerGeneration(t *testing.T) {
	recs := rectifiedFixtureRecords(t)
	res := missionFixture(t)
	lastDay := res.Config.Scenario.Days
	p, ds, stop := followingFixture(t, recs)
	defer stop()

	counts := func() [2]int64 { return [2]int64{p.crewCache.computeCount(), p.irCache.computeCount()} }
	for i := 0; i < 3; i++ {
		p.Report()
		p.FaceToFace()
	}
	if got := counts(); got != [2]int64{1, 1} {
		t.Errorf("crew and IR folds computed %v times over 3 reports and 3 reads, want [1 1]", got)
	}

	id := res.Assignment.TrueBadgeFor("A", lastDay)
	if id == 0 {
		t.Fatal("A unassigned on last day")
	}
	accel := record.NewAccel(simtime.StartOfDay(lastDay)+12*time.Hour, 0, 0, 1000)
	ds.Series(id).Append(accel)
	got := p.Report()
	p.FaceToFace()
	if c := counts(); c != [2]int64{2, 2} {
		t.Errorf("crew and IR folds computed %v times after one append, want [2 2]", c)
	}

	if want := batchReport(t, recs, map[store.BadgeID][]record.Record{id: {accel}}); got != want {
		t.Errorf("following report after the append differs from the batch report")
	}
}

// followingFixture builds a following pipeline over the fixture's records
// under an empty WithCorrections. The caller stops it.
func followingFixture(t *testing.T, recs map[store.BadgeID][]record.Record) (*Pipeline, *store.Dataset, func()) {
	t.Helper()
	ds := store.NewDataset()
	loadAll(ds, recs)
	p, err := NewPipeline(fixtureSource(t, ds), WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	return p, ds, p.Follow()
}

// batchReport renders the report of a batch pipeline over the fixture's
// records plus extra, appended per badge after them.
func batchReport(t *testing.T, recs, extra map[store.BadgeID][]record.Record) string {
	t.Helper()
	ds := store.NewDataset()
	loadAll(ds, recs)
	loadAll(ds, extra)
	p, err := NewPipeline(fixtureSource(t, ds), WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	return p.Report()
}

// unwearMid returns a wear record that takes A's badge off at noon of the
// fixture's middle day, and that badge. It moves A's worn set and so the
// worn-derived derivations the report reads.
func unwearMid(t *testing.T) (store.BadgeID, record.Record) {
	t.Helper()
	res := missionFixture(t)
	mid := (2 + res.Config.Scenario.Days) / 2
	id := res.Assignment.TrueBadgeFor("A", mid)
	if id == 0 {
		t.Fatal("A unassigned on the middle day")
	}
	return id, record.NewWear(simtime.StartOfDay(mid)+12*time.Hour, false)
}

// TestFoldReportRendersOncePerGeneration pins the report memo: repeated
// reports of a following pipeline render once; one appended record that
// changes the report makes the next report render once more, equal to the
// batch report over the same records; a batch pipeline renders once too.
func TestFoldReportRendersOncePerGeneration(t *testing.T) {
	recs := rectifiedFixtureRecords(t)
	p, ds, stop := followingFixture(t, recs)
	defer stop()

	old := p.Report()
	for i := 0; i < 2; i++ {
		if p.Report() != old {
			t.Fatal("repeated reports differ")
		}
	}
	if c := p.reportCache.computeCount(); c != 1 {
		t.Errorf("report rendered %d times over 3 calls, want 1", c)
	}

	id, wear := unwearMid(t)
	ds.Series(id).Append(wear)
	got := p.Report()
	if got == old {
		t.Fatal("report unchanged by the appended wear record")
	}
	if p.Report() != got {
		t.Error("repeated reports after the append differ")
	}
	if c := p.reportCache.computeCount(); c != 2 {
		t.Errorf("report rendered %d times after one append, want 2", c)
	}
	if want := batchReport(t, recs, map[store.BadgeID][]record.Record{id: {wear}}); got != want {
		t.Error("following report after the append differs from the batch report")
	}

	batchDS := store.NewDataset()
	loadAll(batchDS, recs)
	batchP, err := NewPipeline(fixtureSource(t, batchDS), WithCorrections(nil))
	if err != nil {
		t.Fatal(err)
	}
	if batchP.Report() != batchP.Report() {
		t.Error("repeated batch reports differ")
	}
	if c := batchP.reportCache.computeCount(); c != 1 {
		t.Errorf("batch report rendered %d times over 2 calls, want 1", c)
	}
}

// TestFoldReportBesideFold renders a report beside the fold, through the
// foldHook seam: after the window drops and before the astronaut-level
// drops, where the report reads a mix of old and new caches. That render
// must not outlive the fold: the report after it equals the batch report.
func TestFoldReportBesideFold(t *testing.T) {
	recs := rectifiedFixtureRecords(t)
	p, ds, stop := followingFixture(t, recs)
	defer stop()
	old := p.Report()

	id, wear := unwearMid(t)
	ds.Series(id).Append(wear)
	// The hook runs inside the outer Report's fold, so this Report enters
	// as a nested analysis: it neither applies marks nor waits for them.
	p.foldHook = func() { p.Report() }
	p.Report()
	p.foldHook = nil
	got := p.Report()

	want := batchReport(t, recs, map[store.BadgeID][]record.Record{id: {wear}})
	if want == old {
		t.Fatal("the wear record leaves the batch report unchanged")
	}
	if got != want {
		t.Error("following report after a report beside the fold differs from the batch report")
	}
}

// TestFoldReportSeesUnmarkedAppends appends records that mark no fold
// window: on a badge no astronaut wears, then after the last data day.
// No derivation reads them, but the report's encoded volume counts them,
// so each append must still drop the report.
func TestFoldReportSeesUnmarkedAppends(t *testing.T) {
	recs := rectifiedFixtureRecords(t)
	res := missionFixture(t)
	lastDay := res.Config.Scenario.Days
	p, ds, stop := followingFixture(t, recs)
	defer stop()
	prev := p.Report()

	// envRun returns env records from start on, enough to move the
	// report's encoded volume (printed to 0.1 MiB).
	envRun := func(start time.Duration) []record.Record {
		var out []record.Record
		for n := 0; n < 1<<17; {
			r := record.NewEnv(start+time.Duration(len(out))*time.Second, 21, 1013, 300)
			sz, err := record.EncodedSize(r)
			if err != nil {
				t.Fatal(err)
			}
			n += sz
			out = append(out, r)
		}
		return out
	}
	spare := ds.Badges()[len(ds.Badges())-1] + 1
	extra := make(map[store.BadgeID][]record.Record)
	for _, step := range []struct {
		name string
		id   store.BadgeID
		recs []record.Record
	}{
		{"unworn badge", spare, envRun(simtime.StartOfDay(3))},
		{"after the last day", res.Assignment.TrueBadgeFor("A", lastDay), envRun(simtime.StartOfDay(lastDay + 1))},
	} {
		ds.Series(step.id).AppendBatch(step.recs)
		extra[step.id] = append(extra[step.id], step.recs...)
		got := p.Report()
		if got == prev {
			t.Fatalf("%s: report unchanged by %d appended records", step.name, len(step.recs))
		}
		if want := batchReport(t, recs, extra); got != want {
			t.Errorf("%s: following report differs from the batch report", step.name)
		}
		prev = got
	}
}
