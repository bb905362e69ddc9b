package icares

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"icares/internal/habitat"
	"icares/internal/record"
	"icares/internal/segment"
	"icares/internal/sociometry"
	"icares/internal/store"
)

// TestArchiveReportMatchesResident is the acceptance path for out-of-core
// analytics: a full simulated mission, analysed, archived as segments, and
// reopened must produce a Table I report byte-identical to the resident
// pipeline's — through the facade a ground analyst would actually use. The
// resident pipeline rectifies before the save, and the archive must still
// hold raw device time: the reopened pipeline re-fits the same corrections.
func TestArchiveReportMatchesResident(t *testing.T) {
	m := facadeMission(t)
	pMem, err := m.Pipeline(TrueAssignment)
	if err != nil {
		t.Fatal(err)
	}
	cors, err := pMem.RectifyClocks()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := m.Result().Dataset.SaveSegments(dir); err != nil {
		t.Fatal(err)
	}

	ss, rep, err := store.OpenSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if !rep.Clean() {
		t.Fatalf("dirty load report: %+v", rep)
	}
	for _, id := range ss.Badges() {
		seg, _ := ss.View(id)
		mem, _ := m.Result().Dataset.View(id)
		sf, _ := seg.First()
		mf, _ := mem.First()
		if sf != mf {
			t.Fatalf("badge %d: archive starts at %v, want the raw %v", id, sf.Local, mf.Local)
		}
	}
	pSeg, err := m.PipelineOver(ss, TrueAssignment)
	if err != nil {
		t.Fatal(err)
	}
	if segCors, _ := pSeg.RectifyClocks(); !reflect.DeepEqual(segCors, cors) {
		t.Errorf("archive corrections %v, want the resident fit %v", segCors, cors)
	}

	memRep, segRep := pMem.Report(), pSeg.Report()
	if memRep != segRep {
		t.Errorf("archive-backed report differs from resident report:\n--- resident ---\n%s\n--- archive ---\n%s", memRep, segRep)
	}
}

// soakBadges/soakDays size the paper-scale soak: the full 30-badge fleet
// from the title over a multi-day window, written straight to segments
// without ever holding the mission in memory.
const (
	soakBadges = 30
	soakDays   = 3
)

// writeSoakArchive synthesizes a 30-badge archive segment-by-segment —
// records are generated in timestamp order and streamed to the writer, so
// building the fixture needs O(1) memory just like analyzing it should.
func writeSoakArchive(tb testing.TB, dir string) {
	tb.Helper()
	sites := habitat.Standard().Beacons()
	var framed int64
	count := func(r record.Record) {
		sz, err := record.EncodedSize(r)
		if err != nil {
			tb.Fatal(err)
		}
		framed += int64(sz)
	}
	for b := 1; b <= soakBadges; b++ {
		f, err := os.Create(filepath.Join(dir, "badge-soak-"+string(rune('a'+(b-1)/26))+string(rune('a'+(b-1)%26))+".seg"))
		if err != nil {
			tb.Fatal(err)
		}
		// 512-record blocks keep the unit of decode small: the block cache
		// pins cacheBlocks decoded blocks per reader, so block size is the
		// lever on resident memory for a 30-reader fleet scan.
		sw, err := segment.NewWriter(f, uint16(b), 512)
		if err != nil {
			tb.Fatal(err)
		}
		for day := 2; day < 2+soakDays; day++ {
			start := time.Duration(day-1) * 24 * time.Hour
			end := start + 24*time.Hour
			wearOn := record.Record{Local: start, Kind: record.KindWear, Worn: true}
			if err := sw.Append(wearOn); err != nil {
				tb.Fatal(err)
			}
			count(wearOn)
			// The sensors inside one second are generated out of phase, so
			// buffer the second and sort before streaming to the writer —
			// the writer demands nondecreasing timestamps.
			second := make([]record.Record, 0, 16)
			for sec := 0; sec < 24*60*60; sec++ {
				at := start + time.Duration(sec)*time.Second
				second = second[:0]
				// Env at 3 Hz is the volume driver, like the paper's
				// environmental logging dominating the 150 GiB.
				for i := 0; i < 3; i++ {
					second = append(second, record.Record{
						Local: at + time.Duration(i)*333*time.Millisecond,
						Kind:  record.KindEnv,
						TempC: float32(20 + (sec+i)%5), PressHPa: float32(1008 + b%7),
						LightLux: float32((sec * (b + i)) % 700),
					})
				}
				if sec%5 == 0 {
					site := sites[(sec/5+b)%len(sites)]
					second = append(second, record.Record{Local: at + 400*time.Millisecond, Kind: record.KindBeacon,
						PeerID: uint16(site.ID), RSSI: float32(-44 - (sec+b)%28)})
				}
				if sec%60 == 0 {
					second = append(second, record.Record{Local: at + 500*time.Millisecond, Kind: record.KindMic,
						SpeechDetected: (sec/60+b)%4 == 0, LoudnessDB: float32(45 + (sec/60)%30),
						FundamentalHz: float32(115 + (b*37)%120), SpeechFraction: 0.4})
				}
				if sec%100 == 0 {
					for i := 0; i < 10; i++ {
						second = append(second, record.Record{Local: at + 600*time.Millisecond + time.Duration(i)*10*time.Millisecond,
							Kind: record.KindAccel,
							AX:   int16((sec*7 + i*13) % 900), AY: int16((sec*11 + i*17) % 900),
							AZ: int16(16000 + (sec+i)%500)})
					}
				}
				if sec%300 == 0 {
					peer := 1 + (b+sec/300)%soakBadges
					if peer != b {
						second = append(second, record.Record{Local: at + 700*time.Millisecond, Kind: record.KindIR,
							PeerID: uint16(peer)})
					}
				}
				sort.Slice(second, func(i, j int) bool { return second[i].Local < second[j].Local })
				for _, r := range second {
					if err := sw.Append(r); err != nil {
						tb.Fatal(err)
					}
					count(r)
				}
			}
			wearOff := record.Record{Local: end - time.Millisecond, Kind: record.KindWear, Worn: false}
			if err := sw.Append(wearOff); err != nil {
				tb.Fatal(err)
			}
			count(wearOff)
		}
		if err := sw.Finish(); err != nil {
			tb.Fatal(err)
		}
		if err := f.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	// A real archiver writes the manifest sidecar; without it, the first
	// EncodedBytes() call decodes the whole archive just to size it, which
	// would swamp the soak's memory measurement with fixture artifacts.
	man := fmt.Sprintf("{\"framed_bytes\":%d}\n", framed)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(man), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// soakNames returns 30 crew names and their badge assignment for the soak
// archive.
func soakNames() ([]string, map[string]store.BadgeID) {
	names := make([]string, soakBadges)
	badges := make(map[string]store.BadgeID, soakBadges)
	for i := range names {
		names[i] = "N" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		badges[names[i]] = store.BadgeID(i + 1)
	}
	return names, badges
}

// runSoak opens the archive, runs the full report with a bounded block
// cache, and returns (peak heap delta during the report, bytes on disk).
func runSoak(tb testing.TB, dir string) (peakDelta uint64, onDisk int64) {
	tb.Helper()
	ss, rep, err := store.OpenSegments(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer ss.Close()
	if !rep.Clean() {
		tb.Fatalf("dirty load report: %+v", rep)
	}
	// One cached block per reader suffices: every derivation is a single
	// forward scan, so the cache only needs the block under the cursor —
	// more would just pin decoded records across all 30 readers.
	ss.SetCacheBlocks(1)
	onDisk = ss.BytesOnDisk()

	names, badges := soakNames()
	p, err := newSoakPipeline(ss, names, badges)
	if err != nil {
		tb.Fatal(err)
	}
	p.Parallelism = 4

	// Run the report under an explicit memory budget, the way a
	// memory-constrained ground station actually would: GOMEMLIMIT (via
	// SetMemoryLimit) makes the collector enforce the bound regardless of
	// machine load. Without it the peak depends on how far the concurrent
	// marker falls behind the workers — pure scheduling noise. The budget is
	// soft: if the live set genuinely exceeded it, the heap would still grow
	// past it and the assertion below would fail.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc
	budget := onDisk / 5 // 20% of the archive: margin under the asserted 25%
	oldLimit := debug.SetMemoryLimit(int64(baseline) + budget)
	defer debug.SetMemoryLimit(oldLimit)
	oldGC := debug.SetGCPercent(50)
	defer debug.SetGCPercent(oldGC)

	var peak atomic.Uint64
	peak.Store(baseline)
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				var s runtime.MemStats
				runtime.ReadMemStats(&s)
				for {
					cur := peak.Load()
					if s.HeapAlloc <= cur || peak.CompareAndSwap(cur, s.HeapAlloc) {
						break
					}
				}
			}
		}
	}()

	out := p.Report()
	close(done)
	<-sampled
	if len(out) == 0 {
		tb.Fatal("empty report")
	}
	return peak.Load() - baseline, onDisk
}

func newSoakPipeline(ss *store.SegmentStore, names []string, badges map[string]store.BadgeID) (*sociometry.Pipeline, error) {
	return sociometry.NewPipeline(sociometry.Source{
		Habitat:  habitat.Standard(),
		Data:     ss,
		Names:    names,
		BadgeFor: func(name string, day int) store.BadgeID { return badges[name] },
		FirstDay: 2,
		LastDay:  1 + soakDays,
	}, sociometry.WithLocWindow(60*time.Second)) // at the default 15 s the peak sits at or over the bound
}

// TestOutOfCoreSoak is the paper-scale memory acceptance test: a 30-badge
// multi-day archive (tens of millions of records) analyzed end-to-end must
// peak well under the dataset's on-disk size — the point of running
// analytics against segment views instead of loading the mission.
//
// The measurement runs in a re-exec'd child process: other tests in this
// binary pin a shared simulated mission in a package variable, and that
// unrelated live heap inflates the GC pacer's target (and therefore the
// observed peak) by an amount that depends on test order. A fresh process
// measures the analysis, not its neighbors.
func TestOutOfCoreSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale soak in -short mode")
	}
	if os.Getenv("ICARES_SOAK_CHILD") == "" {
		exe, err := os.Executable()
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(exe, "-test.run", "^TestOutOfCoreSoak$", "-test.v")
		cmd.Env = append(os.Environ(), "ICARES_SOAK_CHILD=1")
		out, err := cmd.CombinedOutput()
		t.Logf("soak child:\n%s", out)
		if err != nil {
			t.Fatalf("soak child failed: %v", err)
		}
		return
	}
	dir := t.TempDir()
	writeSoakArchive(t, dir)
	peakDelta, onDisk := runSoak(t, dir)
	frac := float64(peakDelta) / float64(onDisk)
	t.Logf("soak: %d badges × %d days, %.1f MiB on disk, peak heap delta %.1f MiB (%.1f%% of disk)",
		soakBadges, soakDays, float64(onDisk)/(1<<20), float64(peakDelta)/(1<<20), 100*frac)
	if onDisk < 64<<20 {
		t.Fatalf("archive only %.1f MiB on disk; fixture no longer paper-scale", float64(onDisk)/(1<<20))
	}
	if frac >= 0.25 {
		t.Errorf("peak heap delta %.1f MiB is %.1f%% of the %.1f MiB archive, want < 25%%",
			float64(peakDelta)/(1<<20), 100*frac, float64(onDisk)/(1<<20))
	}
}

// BenchmarkOutOfCoreReport measures the ground-station hot path for a
// pulled-down mission: open the segment archive, build a pipeline over it,
// and render the full Table I report — per iteration, cold caches.
func BenchmarkOutOfCoreReport(b *testing.B) {
	m, err := Simulate(Options{Seed: 5, Days: 3})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := m.Result().Dataset.SaveSegments(dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, rep, err := store.OpenSegments(dir)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatal("dirty load report")
		}
		p, err := m.PipelineOver(ss, TrueAssignment)
		if err != nil {
			b.Fatal(err)
		}
		if len(p.Report()) == 0 {
			b.Fatal("empty report")
		}
		ss.Close()
	}
}

// BenchmarkOutOfCoreSoak runs the paper-scale 30-badge soak and records the
// peak-heap-to-disk ratio alongside latency, so the bench log tracks the
// memory bound the soak test asserts.
func BenchmarkOutOfCoreSoak(b *testing.B) {
	dir := b.TempDir()
	writeSoakArchive(b, dir)
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peak, onDisk := runSoak(b, dir)
		frac = float64(peak) / float64(onDisk)
	}
	b.ReportMetric(frac, "peak_heap_frac_of_disk")
}
