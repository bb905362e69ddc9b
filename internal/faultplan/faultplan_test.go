package faultplan

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"icares/internal/offload"
	"icares/internal/record"
	"icares/internal/store"
	"icares/internal/uplink"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{
		Seed:   99,
		Days:   3,
		Badges: []store.BadgeID{1, 2, 3},
		Zones:  []string{"galley", "lab"},
	}
	a, b := Generate(cfg), Generate(cfg)
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatal("equal configs produced different event traces")
	}
	if a.seed != 99 {
		t.Errorf("seed = %d", a.seed)
	}
	cfg.Seed = 100
	if reflect.DeepEqual(a.events, Generate(cfg).events) {
		t.Error("different seeds produced identical traces")
	}
	// The day-scaled defaults must actually materialize every kind.
	for _, k := range []Kind{RFOutage, BadgeDeath, GatewayCrash, UplinkBlackout, SyncDropout, FrameCorruption} {
		if len(a.Windows(k)) == 0 {
			t.Errorf("no %v windows generated", k)
		}
	}
	// Windows stay inside the mission span.
	span := 3 * 24 * time.Hour
	for _, e := range a.events {
		if e.From < 0 || e.To > span || e.From >= e.To {
			t.Errorf("window out of span: %v", e)
		}
	}
}

func TestEventsAreSortedAndCopied(t *testing.T) {
	evs := []Event{
		{Kind: BadgeDeath, From: 2 * time.Hour, To: 3 * time.Hour, Badge: 2},
		{Kind: RFOutage, From: time.Hour, To: 90 * time.Minute},
		{Kind: BadgeDeath, From: 2 * time.Hour, To: 4 * time.Hour, Badge: 1},
	}
	p := New(7, evs...)
	if got := p.events; got[0].Kind != RFOutage || got[1].Badge != 1 || got[2].Badge != 2 {
		t.Fatalf("trace order wrong: %v", got)
	}
	evs[1].Kind = GatewayCrash // mutating the caller's slice must not corrupt the plan
	if p.events[0].Kind != RFOutage {
		t.Error("New kept a live reference to its events")
	}
}

func TestQuerySemantics(t *testing.T) {
	p := New(1,
		Event{Kind: RFOutage, From: time.Hour, To: 2 * time.Hour, Zone: "lab"},
		Event{Kind: RFOutage, From: 3 * time.Hour, To: 4 * time.Hour}, // habitat-wide
		Event{Kind: BadgeDeath, From: 5 * time.Hour, To: 6 * time.Hour, Badge: 3},
		Event{Kind: BadgeDeath, From: 7 * time.Hour, To: 8 * time.Hour}, // all badges
		Event{Kind: GatewayCrash, From: 9 * time.Hour, To: 10 * time.Hour},
		Event{Kind: UplinkBlackout, From: 11 * time.Hour, To: 12 * time.Hour},
		Event{Kind: SyncDropout, From: 13 * time.Hour, To: 14 * time.Hour, Badge: 4},
	)

	// Only the habitat-wide outage blocks; the zone-scoped one drops nothing.
	if p.RFOut(90 * time.Minute) {
		t.Error("zone-scoped RF outage took effect")
	}
	// Windows are half-open [From, To).
	if p.RFOut(3*time.Hour-time.Nanosecond) || !p.RFOut(3*time.Hour) || !p.RFOut(210*time.Minute) || p.RFOut(4*time.Hour) {
		t.Error("habitat-wide RF outage window wrong")
	}

	if !p.BadgeDown(3, 330*time.Minute) || p.BadgeDown(2, 330*time.Minute) {
		t.Error("badge-scoped death semantics wrong")
	}
	if !p.BadgeDown(1, 450*time.Minute) || !p.BadgeDown(6, 450*time.Minute) {
		t.Error("badge 0 wildcard death semantics wrong")
	}

	if !p.GatewayDown(9*time.Hour+time.Minute) || p.GatewayDown(10*time.Hour) {
		t.Error("gateway crash window wrong")
	}
	if !p.UplinkDown(11*time.Hour+time.Minute) || p.UplinkDown(13*time.Hour) {
		t.Error("uplink blackout window wrong")
	}
	if !p.SyncDropped(4, 13*time.Hour+time.Minute) || p.SyncDropped(5, 13*time.Hour+time.Minute) {
		t.Error("sync dropout semantics wrong")
	}
}

func TestCorruptFrameDeterministic(t *testing.T) {
	always := New(11, Event{Kind: FrameCorruption, From: 0, To: time.Hour, Prob: 1})
	never := New(11, Event{Kind: FrameCorruption, From: 0, To: time.Hour, Prob: 0})
	for seq := uint64(0); seq < 20; seq++ {
		if !always.CorruptFrame(1, seq, 30*time.Minute) {
			t.Fatal("prob 1 window missed a frame")
		}
		if never.CorruptFrame(1, seq, 30*time.Minute) {
			t.Fatal("prob 0 window corrupted a frame")
		}
	}
	if always.CorruptFrame(1, 0, time.Hour) {
		t.Error("corruption outside the window")
	}

	// Per-frame decisions are pure: a retransmission of (badge, seq) inside
	// the window corrupts identically, and an equal-seed plan reproduces the
	// whole pattern.
	p := New(42, Event{Kind: FrameCorruption, From: 0, To: time.Hour, Prob: 0.3})
	q := New(42, Event{Kind: FrameCorruption, From: 0, To: time.Hour, Prob: 0.3})
	hits := 0
	const trials = 2000
	for seq := uint64(0); seq < trials; seq++ {
		a := p.CorruptFrame(2, seq, 10*time.Minute)
		if a != p.CorruptFrame(2, seq, 50*time.Minute) {
			t.Fatal("same window, same frame, different decision")
		}
		if a != q.CorruptFrame(2, seq, 10*time.Minute) {
			t.Fatal("equal seeds disagreed on corruption")
		}
		if a {
			hits++
		}
	}
	if f := float64(hits) / trials; f < 0.25 || f > 0.35 {
		t.Errorf("corruption frequency %.3f, want ~0.30", f)
	}
	// A different seed must reshuffle the pattern.
	r := New(43, Event{Kind: FrameCorruption, From: 0, To: time.Hour, Prob: 0.3})
	same := 0
	for seq := uint64(0); seq < trials; seq++ {
		if p.CorruptFrame(2, seq, 10*time.Minute) == r.CorruptFrame(2, seq, 10*time.Minute) {
			same++
		}
	}
	if same == trials {
		t.Error("different seeds produced identical corruption patterns")
	}
}

func TestTransportInjection(t *testing.T) {
	p := New(5,
		Event{Kind: BadgeDeath, From: time.Hour, To: 2 * time.Hour, Badge: 1},
		Event{Kind: GatewayCrash, From: 3 * time.Hour, To: 4 * time.Hour},
		Event{Kind: RFOutage, From: 5 * time.Hour, To: 6 * time.Hour},
		Event{Kind: FrameCorruption, From: 7 * time.Hour, To: 8 * time.Hour, Prob: 1},
		Event{Kind: RFOutage, From: 9 * time.Hour, To: 10 * time.Hour, Zone: "lab"},
	)
	var now time.Duration
	delivered := 0
	inner := offload.TransportFunc(func(offload.Batch) bool { delivered++; return true })
	tr := NewTransport(p, func() time.Duration { return now }, inner)

	b := offload.Batch{Badge: 1, Seq: 0, Records: []record.Record{{Kind: record.KindAccel, Local: time.Second}}}

	now = 30 * time.Minute // clean air
	if !tr.Deliver(b) || delivered != 1 {
		t.Fatal("clean delivery failed")
	}
	now = 90 * time.Minute // badge dead
	if tr.Deliver(b) || delivered != 1 {
		t.Fatal("dead badge delivered")
	}
	now = 3*time.Hour + time.Minute // gateway crashed
	if tr.Deliver(b) {
		t.Fatal("crashed gateway delivered")
	}
	now = 5*time.Hour + time.Minute // habitat-wide RF outage
	if tr.Deliver(b) {
		t.Fatal("RF outage delivered")
	}
	now = 7*time.Hour + time.Minute // corruption window, prob 1
	if tr.Deliver(b) {
		t.Fatal("corrupted frame passed the CRC")
	}
	now = 9*time.Hour + time.Minute // RF outage scoped to lab: drops nothing
	if !tr.Deliver(b) {
		t.Fatal("zone-scoped RF outage dropped a delivery")
	}
	dropped, corrupted := tr.Stats()
	if dropped != 3 || corrupted != 1 {
		t.Errorf("stats = (%d dropped, %d corrupted), want (3, 1)", dropped, corrupted)
	}

	// Plan-less and inner-less transports degrade sanely.
	if !(&Transport{Inner: inner, Now: func() time.Duration { return 0 }}).Deliver(b) {
		t.Error("nil plan should pass through")
	}
	if (&Transport{Plan: p}).Deliver(b) {
		t.Error("nil inner should refuse")
	}
}

func TestInstallBlackouts(t *testing.T) {
	p := New(2,
		Event{Kind: UplinkBlackout, From: time.Hour, To: 2 * time.Hour},
		Event{Kind: UplinkBlackout, From: 5 * time.Hour, To: 6 * time.Hour},
		Event{Kind: RFOutage, From: 0, To: time.Hour},
	)
	// A message sent inside an installed window waits for it to lift.
	for _, tc := range []struct{ at, arrives time.Duration }{
		{90 * time.Minute, 2*time.Hour + 20*time.Minute},
		{3 * time.Hour, 3*time.Hour + 20*time.Minute},
		{5 * time.Hour, 6*time.Hour + 20*time.Minute},
	} {
		l := uplink.NewLink(20 * time.Minute)
		if n := p.InstallBlackouts(l); n != 2 {
			t.Fatalf("installed %d blackouts, want 2", n)
		}
		msg, err := l.Send(tc.at, uplink.Message{From: uplink.Habitat, Kind: uplink.Report, Topic: "status"})
		if err != nil {
			t.Fatal(err)
		}
		if msg.ArrivesAt != tc.arrives {
			t.Errorf("sent at %v: arrives %v, want %v", tc.at, msg.ArrivesAt, tc.arrives)
		}
	}
}

func TestTraceRendering(t *testing.T) {
	p := New(8,
		Event{Kind: RFOutage, From: time.Hour, To: 2 * time.Hour, Zone: "lab"},
		Event{Kind: FrameCorruption, From: 0, To: time.Hour, Badge: 3, Prob: 0.125},
	)
	s := p.String()
	for _, want := range []string{"seed=8", "events=2", "rf-outage", "zone=lab", "frame-corruption", "p=0.125"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %q:\n%s", want, s)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("unknown kind string")
	}
}
