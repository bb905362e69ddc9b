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
			recs[i] = record.Record{Local: at, Kind: record.KindAccel,
				AX: int16(rng.Norm(0, 100)), AZ: 1000}
		case 1:
			recs[i] = record.Record{Local: at, Kind: record.KindMic,
				SpeechDetected: rng.Bool(0.3), LoudnessDB: float32(rng.Range(30, 75)),
				SpeechFraction: float32(rng.Float64())}
		case 2:
			recs[i] = record.Record{Local: at, Kind: record.KindBeacon,
				PeerID: uint16(rng.Intn(27) + 1), RSSI: float32(rng.Range(-90, -40))}
		default:
			recs[i] = record.Record{Local: at, Kind: record.KindBattery,
				BatteryPct: float32(rng.Range(30, 100))}
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

func BenchmarkRendererRender(b *testing.B) {
	r := NewRenderer([]AbilityProfile{
		{Name: "A", Hears: true, Touches: true},
		FullAbility("B"), FullAbility("C"), FullAbility("D"),
		FullAbility("E"), FullAbility("F"),
	})
	alert := Alert{Severity: Critical, Message: "pressure drop in airlock"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Render(alert)
	}
}
