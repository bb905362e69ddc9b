package record

import (
	"testing"
	"time"
)

func benchRecords() []Record {
	return []Record{
		NewAccel(5*time.Second, -120, 980, 44),
		NewMic(6*time.Second, true, 63.5, 128, 0.4),
		NewBeacon(7*time.Second, 13, -72.5),
		NewSync(8*time.Second, 7*time.Second),
	}
}

func BenchmarkAppendFrame(b *testing.B) {
	recs := benchRecords()
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], recs[i%len(recs)])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	frames := make([][]byte, 0, 4)
	for _, r := range benchRecords() {
		f, err := AppendFrame(nil, r)
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeSetNormalize(b *testing.B) {
	base := make(RangeSet, 0, 200)
	for i := 0; i < 200; i++ {
		from := time.Duration(i*37%1000) * time.Second
		base = append(base, TimeRange{From: from, To: from + 30*time.Second})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = base.Normalize()
	}
}

// BenchmarkEncodedSize measures the store's per-append byte accounting
// over mission-shaped records: timestamps spread over 14 days, so their
// uvarints run from 1 to 7 bytes, most of them 7.
func BenchmarkEncodedSize(b *testing.B) {
	const n = 1024 // a power of two, so picking a record is a mask
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = benchRecords()[i%4]
		recs[i].Local = time.Duration(i) * 14 * 24 * time.Hour / n
	}
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sz, err := EncodedSize(recs[i&(n-1)])
		if err != nil {
			b.Fatal(err)
		}
		total += sz
	}
	if total == 0 {
		b.Fatal("no size")
	}
}
