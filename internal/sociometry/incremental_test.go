package sociometry

import (
	"math/rand"
	"reflect"
	"sync"
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
// fold-order experiments are isolated from correction estimation (which is
// deliberately frozen at the first fit and therefore depends on which
// records have arrived).
func rectifiedFixtureRecords(t *testing.T) map[store.BadgeID][]record.Record {
	t.Helper()
	p := fixturePipeline(t)
	out := make(map[store.BadgeID][]record.Record)
	for _, id := range missionFixture(t).Dataset.Badges() {
		v, ok := p.View(id)
		if !ok {
			t.Fatalf("badge %d has no view", id)
		}
		out[id] = v.All()
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
		s.Append(record.Record{Local: toLocal(ref), Kind: record.KindSync, RefTime: ref})
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
// appended after the first analysis froze the corrections stays raw in the
// dataset, reads rectified through the pipeline's view, and invalidates the
// window of its reference-time day. The record is placed seconds before
// midnight in reference time, where the badge's fast clock already reads
// the next day — outside the analysis range — so marking by the raw
// timestamp would drop the invalidation and leave the stale window cached.
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

	// Before the corrections freeze, a mark cannot know its reference day
	// and marks every analysed day of the badge.
	src2, ds2 := syntheticSyncSource(1500*time.Millisecond, 25e-6)
	src2.LastDay = 4
	p2, err := NewPipeline(src2)
	if err != nil {
		t.Fatal(err)
	}
	stop2 := p2.Follow()
	defer stop2()
	ds2.Series(1).Append(record.Record{Local: local, Kind: record.KindAccel})
	for day := 2; day <= 4; day++ {
		if _, ok := p2.stale[staleKey{1, day}]; !ok {
			t.Errorf("pre-freeze mark missed day %d: %v", day, p2.stale)
		}
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
		return v.All()
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
