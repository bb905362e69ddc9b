package uplink

import (
	"testing"
	"testing/quick"
	"time"

	"icares/internal/stats"
)

// Property: every sent message is received exactly once, no earlier than
// the one-way delay, and in non-decreasing arrival order.
func TestQuickLinkDelivery(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		l := NewLink(time.Duration(1+rng.Intn(60)) * time.Minute)
		n := 1 + rng.Intn(40)
		var lastSend time.Duration
		for i := 0; i < n; i++ {
			lastSend += time.Duration(rng.Intn(300)) * time.Second
			if _, err := l.Send(lastSend, Message{
				From: Habitat, Kind: Report, Topic: "t",
				Bytes: rng.Intn(2000),
			}); err != nil {
				return false
			}
		}
		// Drain far in the future.
		got := l.Receive(MissionControl, lastSend+1000*time.Hour)
		if len(got) != n {
			return false
		}
		seen := make(map[uint64]bool, n)
		var prev time.Duration
		for _, m := range got {
			if seen[m.ID] {
				return false
			}
			seen[m.ID] = true
			if m.ArrivesAt < m.SentAt+l.Delay() {
				return false
			}
			if m.ArrivesAt < prev {
				return false
			}
			prev = m.ArrivesAt
		}
		// Nothing left.
		return len(l.inFlight[MissionControl]) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLinkSendReceive(b *testing.B) {
	l := NewLink(20 * time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i) * time.Second
		if _, err := l.Send(at, Message{From: Habitat, Kind: Report, Topic: "t", Bytes: 100}); err != nil {
			b.Fatal(err)
		}
		if i%32 == 31 {
			l.Receive(MissionControl, at+time.Hour)
		}
	}
}
