package segment

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"icares/internal/record"
	"icares/internal/stats"
)

// randRecords generates n records in non-decreasing time order — the shape
// a segment writer receives from a sorted series view — with plenty of
// equal-timestamp ties across kinds, the case the kind-sequence stream
// exists for.
func randRecords(rng *stats.RNG, n int) []record.Record {
	kinds := []record.Kind{
		record.KindAccel, record.KindMic, record.KindBeacon, record.KindNeighbor,
		record.KindIR, record.KindEnv, record.KindWear, record.KindSync, record.KindBattery,
	}
	out := make([]record.Record, 0, n)
	ts := time.Duration(rng.Intn(10)) * time.Second
	for i := 0; i < n; i++ {
		if rng.Bool(0.6) {
			ts += time.Duration(rng.Intn(7)) * time.Second // Intn can be 0: ties
		}
		r := record.Record{Local: ts, Kind: kinds[rng.Intn(len(kinds))]}
		switch r.Kind {
		case record.KindAccel:
			r = record.NewAccel(ts, int16(rng.Intn(2000)-1000), int16(rng.Intn(2000)-1000), int16(rng.Intn(2000)-1000))
		case record.KindMic:
			r = record.NewMic(ts, rng.Bool(0.5), float32(rng.Range(20, 90)), float32(rng.Range(0, 300)), float32(rng.Float64()))
		case record.KindBeacon:
			r = record.NewBeacon(ts, uint16(rng.Intn(40)), float32(rng.Range(-95, -30)))
		case record.KindNeighbor:
			r = record.NewNeighbor(ts, uint16(rng.Intn(40)), float32(rng.Range(-95, -30)))
		case record.KindIR:
			r.PeerID = uint16(rng.Intn(40))
		case record.KindEnv:
			r = record.NewEnv(ts, float32(rng.Range(15, 30)), float32(rng.Range(980, 1030)), float32(rng.Range(0, 800)))
		case record.KindWear:
			r = record.NewWear(ts, rng.Bool(0.5))
		case record.KindSync:
			r = record.NewSync(ts, ts+time.Duration(rng.Intn(2000))*time.Millisecond)
		case record.KindBattery:
			r = record.NewBattery(ts, float32(rng.Range(0, 100)))
		}
		out = append(out, r)
	}
	return out
}

// writeSegment encodes recs into an in-memory segment and returns its bytes.
func writeSegment(t testing.TB, badge uint16, blockSize int, recs []record.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, badge, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := sw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openBytes(t testing.TB, raw []byte) *Reader {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// minT/maxT bound a full scan through Iter's half-open windows. A record
// stamped math.MaxInt64 lies outside every window; randRecords never
// emits one.
const (
	minT = time.Duration(math.MinInt64)
	maxT = time.Duration(math.MaxInt64)
)

// scan drains rd.Iter(from, to, k) batch by batch, failing on any record
// out of time order, outside [from, to), or of another kind.
func scan(t testing.TB, rd *Reader, from, to time.Duration, k record.Kind) []record.Record {
	t.Helper()
	var out []record.Record
	it := rd.Iter(from, to, k)
	for b := it.NextBatch(); b != nil; b = it.NextBatch() {
		for _, r := range b {
			if r.Local < from || r.Local >= to || (k != 0 && r.Kind != k) ||
				(len(out) > 0 && r.Local < out[len(out)-1].Local) {
				t.Fatalf("Iter(%v, %v, %v) yielded %v at %v out of window, kind or order", from, to, k, r.Kind, r.Local)
			}
			out = append(out, r)
		}
	}
	return out
}

// scanTimes drains rd.Times(from, to), failing on any timestamp out of
// order or outside [from, to).
func scanTimes(t testing.TB, rd *Reader, from, to time.Duration) []time.Duration {
	t.Helper()
	var out []time.Duration
	it := rd.Times(from, to)
	for b := it.NextBatch(); b != nil; b = it.NextBatch() {
		for _, ts := range b {
			if ts < from || ts >= to || (len(out) > 0 && ts < out[len(out)-1]) {
				t.Fatalf("Times(%v, %v) yielded %v out of window or order", from, to, ts)
			}
			out = append(out, ts)
		}
	}
	return out
}

// locals projects records onto their timestamps, the reference for Times.
func locals(recs []record.Record) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = r.Local
	}
	return out
}

func sameTimes(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Reference semantics, against the plain slice the segment was written from.
func refKind(recs []record.Record, k record.Kind) []record.Record {
	var out []record.Record
	for _, r := range recs {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

func refRange(recs []record.Record, from, to time.Duration) []record.Record {
	var out []record.Record
	for _, r := range recs {
		if r.Local >= from && r.Local < to {
			out = append(out, r)
		}
	}
	return out
}

func sameRecords(a, b []record.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoundTripAllKindsAcrossBlockSizes(t *testing.T) {
	recs := randRecords(stats.NewRNG(7), 500)
	for _, bs := range []int{1, 2, 3, 7, 64, 500, 501, DefaultBlockSize} {
		raw := writeSegment(t, 9, bs, recs)
		rd := openBytes(t, raw)
		if rd.BadgeID() != 9 {
			t.Fatalf("block size %d: badge %d", bs, rd.BadgeID())
		}
		if rd.Len() != len(recs) {
			t.Fatalf("block size %d: Len %d, want %d", bs, rd.Len(), len(recs))
		}
		if rd.Skipped() != 0 || rd.Truncated() {
			t.Fatalf("block size %d: clean segment reported salvage", bs)
		}
		if !sameRecords(scan(t, rd, minT, maxT, 0), recs) {
			t.Fatalf("block size %d: full scan mismatch", bs)
		}
		for k := record.KindAccel; k <= record.KindBattery; k++ {
			if !sameRecords(scan(t, rd, minT, maxT, k), refKind(recs, k)) {
				t.Fatalf("block size %d: kind %v scan mismatch", bs, k)
			}
		}
		first, ok := rd.First()
		if !ok || first != recs[0] {
			t.Fatalf("block size %d: First %+v", bs, first)
		}
		last, ok := rd.Last()
		if !ok || last != recs[len(recs)-1] {
			t.Fatalf("block size %d: Last %+v", bs, last)
		}
	}
}

// Property: for any sorted record sequence and any block size, the segment
// answers every window and per-kind Iter exactly like the slice it was
// written from — and inverted windows are empty, never a panic.
func TestQuickSegmentRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		recs := randRecords(rng, rng.Intn(2000))
		blockSize := 1 + rng.Intn(300)
		raw := writeSegment(t, uint16(seed), blockSize, recs)
		rd := openBytes(t, raw)
		rd.whole = rng.Intn(2) == 0 // either cache mode, whatever the block count
		if !sameRecords(scan(t, rd, minT, maxT, 0), recs) {
			return false
		}
		var span time.Duration
		if len(recs) > 0 {
			span = recs[len(recs)-1].Local + time.Second
		}
		for trial := 0; trial < 20; trial++ {
			from := time.Duration(rng.Intn(int(span/time.Second)+2)) * time.Second / 2
			to := time.Duration(rng.Intn(int(span/time.Second)+2)) * time.Second / 2
			k := record.Kind(1 + rng.Intn(9))
			if !sameRecords(scan(t, rd, from, to, 0), refRange(recs, from, to)) {
				return false
			}
			if !sameRecords(scan(t, rd, from, to, k), refRange(refKind(recs, k), from, to)) {
				return false
			}
			if from >= to && len(scan(t, rd, from, to, 0)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIterMatchesViews(t *testing.T) {
	recs := randRecords(stats.NewRNG(21), 1500)
	raw := writeSegment(t, 1, 128, recs)
	rd := openBytes(t, raw)
	horizon := recs[len(recs)-1].Local + time.Second

	if !sameRecords(scan(t, rd, 0, horizon, 0), recs) {
		t.Fatal("full iter mismatch")
	}

	from, to := 20*time.Second, 200*time.Second
	if !sameRecords(scan(t, rd, from, to, record.KindBeacon), refRange(refKind(recs, record.KindBeacon), from, to)) {
		t.Fatal("kind-windowed iter mismatch")
	}

	if it := rd.Iter(to, from, 0); it.Next() {
		t.Fatal("inverted-window iter yielded a record")
	}
}

func TestEmptySegment(t *testing.T) {
	raw := writeSegment(t, 4, 0, nil)
	rd := openBytes(t, raw)
	if rd.Len() != 0 || len(scan(t, rd, minT, maxT, 0)) != 0 || len(rd.blocks) != 0 {
		t.Fatalf("empty segment: len %d blocks %d", rd.Len(), len(rd.blocks))
	}
	if _, ok := rd.First(); ok {
		t.Fatal("First on empty segment")
	}
	if len(scan(t, rd, 0, time.Hour, 0)) != 0 || len(scan(t, rd, minT, maxT, record.KindMic)) != 0 {
		t.Fatal("empty segment answered records")
	}
}

func TestWriterRejectsOutOfOrderAndUnknownKinds(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(record.NewIR(10*time.Second, 1)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(record.Record{Local: 9 * time.Second, Kind: record.KindIR}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order append: %v", err)
	}
	if err := sw.Append(record.Record{Local: 11 * time.Second, Kind: record.Kind(200)}); !errors.Is(err, record.ErrUnknownKind) {
		t.Fatalf("unknown kind append: %v", err)
	}
}

// A lost tail (crash before Finish, or chopped download) must salvage every
// fully written block via the forward scan.
func TestSalvageLostIndex(t *testing.T) {
	recs := randRecords(stats.NewRNG(3), 1000)
	raw := writeSegment(t, 2, 100, recs)

	// Chop the tail magic: the index is unlocatable, blocks are intact.
	rd, err := NewReader(bytes.NewReader(raw[:len(raw)-3]), int64(len(raw))-3)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Truncated() || rd.Skipped() != 0 {
		t.Fatalf("intact blocks: skipped %d truncated %v", rd.Skipped(), rd.Truncated())
	}
	if !sameRecords(scan(t, rd, minT, maxT, 0), recs) {
		t.Fatal("salvaged scan mismatch")
	}
}

// A crash mid-block keeps every block before the torn frame.
func TestSalvageTruncatedMidBlock(t *testing.T) {
	recs := randRecords(stats.NewRNG(5), 1000)
	raw := writeSegment(t, 2, 100, recs)
	rd0 := openBytes(t, raw)
	if len(rd0.blocks) != 10 {
		t.Fatalf("expected 10 blocks, got %d", len(rd0.blocks))
	}
	// Cut inside the 4th block: blocks 0-2 remain intact.
	cut := int(rd0.blocks[3].offset) + int(rd0.blocks[3].length)/2
	rd, err := NewReader(bytes.NewReader(raw[:cut]), int64(cut))
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Truncated() {
		t.Fatal("torn block not reported as truncation")
	}
	if !sameRecords(scan(t, rd, minT, maxT, 0), recs[:300]) {
		t.Fatalf("salvage kept %d records, want 300", rd.Len())
	}
}

// Mid-file bit rot with an intact index: the block fails its CRC at query
// time, contributes nothing, and is counted — the rest of the segment still
// answers.
func TestCorruptBlockIsDroppedAndCounted(t *testing.T) {
	recs := randRecords(stats.NewRNG(11), 1000)
	raw := writeSegment(t, 2, 100, recs)
	rd0 := openBytes(t, raw)
	off := rd0.blocks[4].offset + rd0.blocks[4].length/2
	mut := append([]byte(nil), raw...)
	mut[off] ^= 0x40

	rd := openBytes(t, mut)
	if rd.Skipped() != 0 {
		t.Fatal("index was intact; no open-time salvage scan expected")
	}
	all := scan(t, rd, minT, maxT, 0)
	want := append(append([]record.Record(nil), recs[:400]...), recs[500:]...)
	if !sameRecords(all, want) {
		t.Fatalf("full scan kept %d records, want %d without block 4", len(all), len(want))
	}
	if rd.CorruptBlocks() != 1 {
		t.Fatalf("CorruptBlocks = %d, want 1", rd.CorruptBlocks())
	}
	// The corrupt block is cached as corrupt: re-querying must not recount.
	scan(t, rd, minT, maxT, 0)
	if rd.CorruptBlocks() != 1 {
		t.Fatalf("CorruptBlocks recounted: %d", rd.CorruptBlocks())
	}
	// Nor may a streaming reader, which evicts the block and decodes it
	// again on every pass.
	rs := openBytes(t, mut)
	rs.whole = false
	for pass := 0; pass < 2; pass++ {
		scan(t, rs, minT, maxT, 0)
		if rs.CorruptBlocks() != 1 || rs.Len() != len(want) {
			t.Fatalf("streaming pass %d: CorruptBlocks = %d, Len = %d; want 1, %d", pass, rs.CorruptBlocks(), rs.Len(), len(want))
		}
	}
}

// A corrupt block mid-file during a salvage scan (index also lost) is
// skipped with the later blocks still recovered — framing survives CRC rot.
func TestSalvageSkipsCorruptBlock(t *testing.T) {
	recs := randRecords(stats.NewRNG(13), 1000)
	raw := writeSegment(t, 2, 100, recs)
	rd0 := openBytes(t, raw)
	off := rd0.blocks[4].offset + rd0.blocks[4].length/2
	mut := append([]byte(nil), raw[:len(raw)-1]...) // tail chopped: salvage path
	mut[off] ^= 0x40

	rd, err := NewReader(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Skipped() != 1 {
		t.Fatalf("skipped %d, want salvage with 1 skip", rd.Skipped())
	}
	want := append(append([]record.Record(nil), recs[:400]...), recs[500:]...)
	if !sameRecords(scan(t, rd, minT, maxT, 0), want) {
		t.Fatal("salvage-with-skip scan mismatch")
	}
}

func TestHeaderRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a segment")), 13); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("bad header: %v", err)
	}
	raw := writeSegment(t, 1, 0, nil)
	raw[4] = 99 // future version
	if _, err := NewReader(bytes.NewReader(raw), int64(len(raw))); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("future version: %v", err)
	}
}

// The segment must actually compress: a realistic mixed record stream has
// to land well below its framed on-badge encoding.
func TestCompressionBeatsFrameEncoding(t *testing.T) {
	rng := stats.NewRNG(17)
	var recs []record.Record
	// Tick-shaped traffic: accel+mic every 5 s, beacons most ticks — the
	// mission engine's dominant mixture.
	for tick := 0; tick < 5000; tick++ {
		ts := time.Duration(tick) * 5 * time.Second
		recs = append(recs, record.NewAccel(ts, int16(rng.Intn(200)-100), int16(rng.Intn(200)-100), int16(900+rng.Intn(100))))
		recs = append(recs, record.NewMic(ts, false, float32(rng.Range(30, 70)), 0, float32(rng.Float64())))
		if rng.Bool(0.8) {
			recs = append(recs, record.NewBeacon(ts, uint16(rng.Intn(30)), float32(rng.Range(-90, -40))))
		}
	}
	var framed int64
	for _, r := range recs {
		n, err := record.EncodedSize(r)
		if err != nil {
			t.Fatal(err)
		}
		framed += int64(n)
	}
	raw := writeSegment(t, 1, 0, recs)
	ratio := float64(framed) / float64(len(raw))
	if ratio < 2 {
		t.Fatalf("compression ratio %.2fx < 2x (framed %d, segment %d)", ratio, framed, len(raw))
	}
	t.Logf("compression: framed %d B -> segment %d B (%.2fx)", framed, len(raw), ratio)
}
