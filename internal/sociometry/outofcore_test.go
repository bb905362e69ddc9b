package sociometry

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/habitat"
	"icares/internal/record"
	"icares/internal/segment"
	"icares/internal/store"
)

// randomMission builds a small deterministic 4-badge, day-2..3 mission from
// the seed, on skewed badge clocks: local = ref*(1+skew) + offset, with
// periodic sync records carrying the true reference time so rectification
// has something to fit. Calling it twice with one seed gives two
// independent but identical datasets.
func randomMission(seed int64) *store.Dataset {
	rng := rand.New(rand.NewSource(seed))
	sites := habitat.Standard().Beacons()
	d := store.NewDataset()
	for b := 1; b <= 4; b++ {
		offset := time.Duration(rng.Intn(2_000_001)-1_000_000) * time.Microsecond
		skew := (rng.Float64() - 0.5) * 4e-5
		local := func(ref time.Duration) time.Duration {
			return time.Duration(float64(ref)*(1+skew)) + offset
		}
		s := d.Series(store.BadgeID(b))
		for day := 2; day <= 3; day++ {
			start := time.Duration(day-1) * 24 * time.Hour
			end := start + 24*time.Hour
			s.Append(record.NewWear(local(start+5*time.Minute), true))
			for ref := start + 5*time.Minute; ref < end-5*time.Minute; ref += 30 * time.Second {
				switch (ref / (30 * time.Second)) % 6 {
				case 0:
					s.Append(record.NewSync(local(ref), ref))
				case 1:
					site := sites[rng.Intn(len(sites))]
					s.Append(record.NewBeacon(local(ref), uint16(site.ID), float32(-45-rng.Intn(30))))
				case 2:
					s.Append(record.NewMic(local(ref), rng.Intn(3) == 0, float32(40+rng.Intn(40)), float32(110+rng.Intn(130)), float32(rng.Float64())))
				case 3:
					s.Append(record.NewAccel(local(ref), int16(rng.Intn(2000)-1000), int16(rng.Intn(2000)-1000), int16(16000+rng.Intn(800))))
				case 4:
					peer := 1 + rng.Intn(4)
					if peer != b {
						s.Append(record.NewIR(local(ref), uint16(peer)))
					}
				case 5:
					s.Append(record.NewEnv(local(ref), float32(19+rng.Intn(6)), 1010, float32(rng.Intn(500))))
				}
			}
			s.Append(record.NewWear(local(end-5*time.Minute), false))
		}
	}
	return d
}

func missionSource(data store.Viewer) Source {
	src := Source{
		Habitat:       habitat.Standard(),
		Data:          data,
		Names:         []string{"N1", "N2", "N3", "N4"},
		VoiceProfiles: map[string]float64{"N1": 208, "N2": 122, "N3": 136, "N4": 221},
		FirstDay:      2,
		LastDay:       3,
	}
	src.BadgeFor = func(name string, day int) store.BadgeID {
		for i, n := range src.Names {
			if n == name {
				return store.BadgeID(i + 1)
			}
		}
		return 0
	}
	return src
}

func reportOf(t *testing.T, src Source) string {
	t.Helper()
	p, err := NewPipeline(src)
	if err != nil {
		t.Fatal(err)
	}
	return p.Report()
}

// TestOutOfCoreReportParity is the backend-parity property: for random
// seeded missions, the report computed against a reopened segment archive
// is byte-identical to the one computed against the resident dataset — both
// hold raw device time and rectify through the same view wrapper, and the
// storage backend must not show through.
func TestOutOfCoreReportParity(t *testing.T) {
	if testing.Short() {
		t.Skip("property over random missions in -short mode")
	}
	property := func(seed int64) bool {
		dir := t.TempDir()
		if err := randomMission(seed).SaveSegments(dir); err != nil {
			t.Fatalf("seed %d: SaveSegments: %v", seed, err)
		}
		ss, rep, err := store.OpenSegments(dir)
		if err != nil {
			t.Fatalf("seed %d: OpenSegments: %v", seed, err)
		}
		defer ss.Close()
		if !rep.Clean() {
			t.Fatalf("seed %d: dirty load report: %+v", seed, rep)
		}
		memRep := reportOf(t, missionSource(randomMission(seed)))
		segRep := reportOf(t, missionSource(ss))
		if memRep != segRep {
			t.Logf("seed %d reports diverge:\n--- resident ---\n%s\n--- archive ---\n%s", seed, memRep, segRep)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfCoreReportParityCorrupt extends the property to a damaged
// archive: flip one byte mid-segment (dropping a whole block) and delete
// the manifest, then check the archive-backed report equals a resident
// pipeline rebuilt from exactly the surviving records. Salvage must degrade
// both backends identically, not just "not crash".
func TestOutOfCoreReportParityCorrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("property over random missions in -short mode")
	}
	dir := t.TempDir()
	const seed = 1177
	if err := randomMission(seed).SaveSegments(dir); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "badge-002.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0xFF
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}

	ss, _, err := store.OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	// Rebuild a resident dataset from what actually survived on disk.
	baseline := store.NewDataset()
	var corrupt int64
	for _, id := range ss.Badges() {
		v, ok := ss.View(id)
		if !ok {
			t.Fatalf("badge %d listed but has no view", id)
		}
		for it := v.Iter(minTime, maxTime, 0); it.Next(); {
			baseline.Series(id).Append(it.Record())
		}
		corrupt += v.(*segment.Reader).CorruptBlocks()
	}
	if corrupt == 0 {
		t.Fatal("byte flip dropped nothing; fixture no longer exercises salvage")
	}

	memRep := reportOf(t, missionSource(baseline))
	segRep := reportOf(t, missionSource(ss))
	if memRep != segRep {
		t.Fatalf("corrupt-archive reports diverge (%d corrupt blocks dropped):\n--- resident ---\n%s\n--- archive ---\n%s",
			corrupt, memRep, segRep)
	}
}

// readProbe wraps a viewer and counts, across its views, whole-stream Iter
// calls (k == 0) and Times calls.
type readProbe struct {
	store.Viewer
	wholeStream, times *atomic.Int64
}

func (p readProbe) View(id store.BadgeID) (store.View, bool) {
	v, ok := p.Viewer.View(id)
	if !ok {
		return nil, false
	}
	return probedView{v, p}, true
}

type probedView struct {
	store.View
	p readProbe
}

func (v probedView) Iter(from, to time.Duration, k record.Kind) record.Cursor {
	if k == 0 {
		v.p.wholeStream.Add(1)
	}
	return v.View.Iter(from, to, k)
}

func (v probedView) Times(from, to time.Duration) record.TimeCursor {
	v.p.times.Add(1)
	return v.View.Times(from, to)
}

// TestReportReadsNoWholeStream pins the archive report's read shape: a full
// Report over a segment archive asks no view for series-order records of
// every kind — the scans that read only timestamps go through Times — so
// no segment block ever builds its series-order array on the report path.
func TestReportReadsNoWholeStream(t *testing.T) {
	dir := t.TempDir()
	if err := randomMission(11).SaveSegments(dir); err != nil {
		t.Fatal(err)
	}
	ss, _, err := store.OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	probe := readProbe{Viewer: ss, wholeStream: new(atomic.Int64), times: new(atomic.Int64)}
	if len(reportOf(t, missionSource(probe))) == 0 {
		t.Fatal("empty report")
	}
	if n := probe.wholeStream.Load(); n != 0 {
		t.Errorf("Report made %d whole-stream Iter calls, want 0", n)
	}
	if probe.times.Load() == 0 {
		t.Error("Report made no Times call; the coverage scan no longer reads timestamps")
	}
}
