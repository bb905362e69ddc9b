package support

import (
	"testing"
	"time"

	"icares/internal/habitat"
	"icares/internal/record"
	"icares/internal/stats"
)

// BenchmarkDaemonIngest measures the streaming path with the full detector
// suite — the per-record cost that bounds how many badges one habitat node
// can serve in real time. The records are a second apart, and the daemon
// sweeps once per minute of them, as the replayer does once per window.
func BenchmarkDaemonIngest(b *testing.B) {
	d := NewDaemon()
	d.Register(NewInactivityDetector())
	d.Register(NewQuietCrewDetector())
	d.Register(NewBatteryDetector())
	d.Register(NewHydrationDetector(habitat.Standard()))
	d.Register(NewWearComplianceDetector())

	rng := stats.NewRNG(1)
	names := []string{"A", "B", "C", "D", "E", "F"}
	recs := make([]record.Record, 4096)
	for i := range recs {
		at := time.Duration(i) * time.Second
		switch i % 4 {
		case 0:
			recs[i] = record.NewAccel(at, int16(rng.Norm(0, 100)), 0, 1000)
		case 1:
			recs[i] = record.NewMic(at, rng.Bool(0.3), float32(rng.Range(30, 75)), 0, float32(rng.Float64()))
		case 2:
			recs[i] = record.NewBeacon(at, uint16(rng.Intn(27)+1), float32(rng.Range(-90, -40)))
		default:
			recs[i] = record.NewBattery(at, float32(rng.Range(30, 100)))
		}
	}
	one := make([]record.Record, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0] = recs[i%len(recs)]
		one[0].Local += time.Duration(i/len(recs)) * time.Hour
		d.IngestBatch(names[i%len(names)], 1, one)
		if i%60 == 59 {
			d.Sweep(one[0].Local)
		}
	}
}
