package record

import (
	"bytes"
	"testing"
	"time"
)

func benchRecords() []Record {
	return []Record{
		{Local: 5 * time.Second, Kind: KindAccel, AX: -120, AY: 980, AZ: 44},
		{Local: 6 * time.Second, Kind: KindMic, SpeechDetected: true, LoudnessDB: 63.5, FundamentalHz: 128, SpeechFraction: 0.4},
		{Local: 7 * time.Second, Kind: KindBeacon, PeerID: 13, RSSI: -72.5},
		{Local: 8 * time.Second, Kind: KindSync, RefTime: 7 * time.Second},
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

func BenchmarkLogWriterThroughput(b *testing.B) {
	recs := benchRecords()
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lw.Append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := lw.Flush(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()) / int64(b.N))
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
