package store

import (
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// The 1M-record benchmarks below measure the chunked append log against
// seedSeries, a replica of the pre-shard store it replaced — one slice, a
// dirty flag, sort.SliceStable on every dirty read, linear scans for kind
// queries, and a throwaway encode per append to count bytes. BENCH_pr5.json
// records both sides; the Series/seed pairs are the perf trajectory every
// later PR is measured against.

const (
	benchN   = 1_000_000
	benchOOO = 1000 // out-of-order stragglers for the dirty-read case
)

type seedSeries struct {
	recs  []record.Record
	dirty bool
	bytes int64
}

func (s *seedSeries) append(r record.Record) {
	if n := len(s.recs); n > 0 && r.Local < s.recs[n-1].Local {
		s.dirty = true
	}
	s.recs = append(s.recs, r)
	if frame, err := record.AppendFrame(nil, r); err == nil {
		s.bytes += int64(len(frame))
	}
}

func (s *seedSeries) sorted() []record.Record {
	if s.dirty {
		sort.SliceStable(s.recs, func(i, j int) bool { return s.recs[i].Local < s.recs[j].Local })
		s.dirty = false
	}
	return s.recs
}

func (s *seedSeries) kind(k record.Kind) []record.Record {
	recs := s.sorted()
	out := make([]record.Record, 0, len(recs)/4)
	for _, r := range recs {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

func (s *seedSeries) rangeKind(from, to time.Duration, k record.Kind) []record.Record {
	recs := s.sorted()
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].Local >= from })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].Local >= to })
	out := make([]record.Record, 0, (hi-lo)/4)
	for _, r := range recs[lo:hi] {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

var (
	benchBaseOnce sync.Once
	benchBase     []record.Record
)

// benchRecords returns a shared, in-order, mixed-kind 1M-record sequence.
func benchRecords() []record.Record {
	benchBaseOnce.Do(func() {
		rng := stats.NewRNG(1)
		kinds := []record.Kind{
			record.KindAccel, record.KindBeacon, record.KindMic,
			record.KindNeighbor, record.KindEnv,
		}
		benchBase = make([]record.Record, benchN)
		for i := range benchBase {
			at, kind := time.Duration(i)*100*time.Millisecond, kinds[rng.Intn(len(kinds))]
			peer, rssi := uint16(rng.Intn(27)+1), float32(rng.Range(-90, -40))
			switch kind {
			case record.KindBeacon:
				benchBase[i] = record.NewBeacon(at, peer, rssi)
			case record.KindNeighbor:
				benchBase[i] = record.NewNeighbor(at, peer, rssi)
			default:
				benchBase[i] = record.Record{Local: at, Kind: kind}
			}
		}
	})
	return benchBase
}

// oooTail returns the out-of-order stragglers appended on top of the base.
func oooTail() []record.Record {
	rng := stats.NewRNG(2)
	out := make([]record.Record, benchOOO)
	for i := range out {
		out[i] = record.NewIR(time.Duration(rng.Intn(benchN))*100*time.Millisecond, uint16(rng.Intn(27)+1))
	}
	return out
}

var (
	benchSeriesOnce sync.Once
	benchSeries1M   *Series
)

// sharedSeries returns a fully ingested, merged 1M-record Series reused by
// the read-only query benchmarks.
func sharedSeries() *Series {
	benchSeriesOnce.Do(func() {
		s := &Series{}
		for _, r := range benchRecords() {
			s.Append(r)
		}
		benchSeries1M = s
	})
	return benchSeries1M
}

func BenchmarkSeriesAppend(b *testing.B) {
	s := &Series{}
	rec := record.NewAccel(0, 0, 0, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Local = time.Duration(i) * time.Second
		s.Append(rec)
	}
}

// BenchmarkSeriesAppendInterleaved appends in the badge pattern instead:
// accel in order, plus every 15 s a mic frame stamped 15 s back (frames are
// stamped at their start), so the series ends disordered.
// One op is one second of badge output; a fresh series starts every 36000
// ops, about one mission data day of one badge (~38k records), so the
// per-op cost does not grow with b.N.
func BenchmarkSeriesAppendInterleaved(b *testing.B) {
	const day = 36000
	var s *Series
	accel := record.NewAccel(0, 0, 0, 1000)
	mic := record.NewMic(0, false, 55, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if i%day == 1 {
			s = &Series{}
		}
		accel.Local = time.Duration(i) * time.Second
		s.Append(accel)
		if i%15 == 0 {
			mic.Local = accel.Local - 15*time.Second
			s.Append(mic)
		}
	}
}

// BenchmarkSeriesFirstRead measures the first read of a mission-shaped
// series: two mission data days of one badge (~100k records) appended in
// the badge pattern, which leaves it in many chunks and disordered. Each op
// joins and stable-sorts a fresh copy of the chunk list (the chunks' arrays
// are shared: a join only reads them).
func BenchmarkSeriesFirstRead(b *testing.B) {
	base := &Series{}
	for app := (&badgeAppender{s: base}); base.Len() < 100_000; {
		app.next()
	}
	base.mu.Lock()
	chunks, n := base.chunks, base.n
	ok := len(chunks) > 1 && base.disordered
	base.mu.Unlock()
	if !ok {
		b.Fatalf("mission-shaped series in %d chunk(s), want several and disordered", len(chunks))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &Series{chunks: slices.Clone(chunks), n: n, disordered: true}
		if len(s.All()) != n {
			b.Fatal("short read")
		}
	}
}

func BenchmarkSeedAppend(b *testing.B) {
	s := &seedSeries{}
	rec := record.NewAccel(0, 0, 0, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Local = time.Duration(i) * time.Second
		s.append(rec)
	}
}

func BenchmarkSeriesDirtyRead1M(b *testing.B) {
	base, tail := benchRecords(), oooTail()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := &Series{}
		for _, r := range base {
			s.Append(r)
		}
		for _, r := range tail {
			s.Append(r)
		}
		b.StartTimer()
		if got := len(s.All()); got != benchN+benchOOO {
			b.Fatalf("len = %d", got)
		}
	}
}

func BenchmarkSeedDirtyRead1M(b *testing.B) {
	base, tail := benchRecords(), oooTail()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		recs := make([]record.Record, 0, benchN+benchOOO)
		recs = append(recs, base...)
		recs = append(recs, tail...)
		s := &seedSeries{recs: recs, dirty: true}
		b.StartTimer()
		if got := len(s.sorted()); got != benchN+benchOOO {
			b.Fatalf("len = %d", got)
		}
	}
}

func BenchmarkSeriesKindQuery1M(b *testing.B) {
	s := sharedSeries()
	s.Kind(record.KindMic) // prime the index once; steady state is what analyses see
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Kind(record.KindMic)) == 0 {
			b.Fatal("empty kind view")
		}
	}
}

func BenchmarkSeedKindQuery1M(b *testing.B) {
	s := &seedSeries{recs: benchRecords()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.kind(record.KindMic)) == 0 {
			b.Fatal("empty kind filter")
		}
	}
}

func BenchmarkSeriesRangeKind1M(b *testing.B) {
	s := sharedSeries()
	s.Kind(record.KindBeacon)
	from := time.Duration(benchN/2) * 100 * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.RangeKind(from, from+time.Hour, record.KindBeacon)) == 0 {
			b.Fatal("empty range")
		}
	}
}

func BenchmarkSeedRangeKind1M(b *testing.B) {
	s := &seedSeries{recs: benchRecords()}
	from := time.Duration(benchN/2) * 100 * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.rangeKind(from, from+time.Hour, record.KindBeacon)) == 0 {
			b.Fatal("empty range")
		}
	}
}

func BenchmarkSeriesRangeQuery1M(b *testing.B) {
	s := sharedSeries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := time.Duration(i%(benchN-36000)) * 100 * time.Millisecond
		if len(s.Range(from, from+time.Hour)) == 0 {
			b.Fatal("empty range")
		}
	}
}

// benchDataset builds the paper-shaped dataset: ~30 badges of mixed-kind
// records.
func benchDataset(badges, per int) *Dataset {
	d := NewDataset()
	for id := BadgeID(1); id <= BadgeID(badges); id++ {
		rng := stats.NewRNG(uint64(id))
		s := d.Series(id)
		for i := 0; i < per; i++ {
			s.Append(record.NewBeacon(time.Duration(i)*time.Second, uint16(rng.Intn(27)+1), float32(rng.Range(-90, -40))))
		}
	}
	return d
}

// BenchmarkDatasetParallelSave measures SaveSegments of a 30-badge dataset
// across the bounded worker pool.
func BenchmarkDatasetParallelSave(b *testing.B) {
	d := benchDataset(30, 20_000)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.SaveSegments(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetParallelLoad measures OpenSegments of the same archive
// plus a full Iter drain of every badge, so each block is decoded once.
func BenchmarkDatasetParallelLoad(b *testing.B) {
	d := benchDataset(30, 20_000)
	dir := b.TempDir()
	if err := d.SaveSegments(dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, _, err := OpenSegments(dir)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, id := range ss.Badges() {
			v, _ := ss.View(id)
			for it := v.Iter(minDuration, maxDuration, 0); it.Next(); {
				n++
			}
		}
		ss.Close()
		if n != 30*20_000 {
			b.Fatal("short load")
		}
	}
}

// BenchmarkSeriesIterWarm measures the View.Iter scan path over a resident
// series. Analysis pipelines fold archives and live data through this one
// cursor interface, so the warm scan must stay zero-alloc per record — the
// per-record figure here is the floor every View implementation is held to.
func BenchmarkSeriesIterWarm(b *testing.B) {
	s := NewDataset().Series(1)
	for i := 0; i < benchN; i++ {
		s.Append(record.NewBeacon(time.Duration(i)*time.Millisecond, uint16(i%27+1), 0))
	}
	it := s.Iter(0, time.Duration(benchN)*time.Millisecond, 0)
	for it.Next() { // settle the sorted-run layout before timing
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		it := s.Iter(0, time.Duration(benchN)*time.Millisecond, 0)
		for it.Next() {
			n++
		}
		if n != benchN {
			b.Fatalf("iterated %d of %d", n, benchN)
		}
	}
}
