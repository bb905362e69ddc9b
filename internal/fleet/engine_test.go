package fleet

import (
	"testing"
	"time"

	"icares"
	"icares/internal/offload"
	"icares/internal/store"
)

// coarseTick keeps fleet-test missions cheap: a 60 s simulation step
// produces ~35k records per habitat-day instead of ~450k, with the
// determinism contract (equal seed + tick = identical habitat) intact.
const coarseTick = time.Minute

// standaloneReport runs the reference single-habitat path for a seed: a
// fresh simulation and the offline batch pipeline over its SD dataset.
func standaloneReport(t testing.TB, seed uint64, days int, tick time.Duration) string {
	t.Helper()
	m, err := icares.Simulate(icares.Options{Seed: seed, Days: days, Tick: tick})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Pipeline(icares.TrueAssignment)
	if err != nil {
		t.Fatal(err)
	}
	return p.Report()
}

// TestEngineReportParity is the fleet's ground-truth anchor: a habitat
// engine that ingested its whole mission through the offload gateway
// must produce a live report byte-identical to a standalone
// single-habitat run of the same seed — the fleet path adds sharding
// and transport, never data drift.
func TestEngineReportParity(t *testing.T) {
	if testing.Short() {
		t.Skip("mission fixture in -short mode")
	}
	for _, seed := range []uint64{7, 8} {
		e, err := newEngine("hab", HabitatConfig{ID: "hab", Seed: seed, Days: 2, Tick: coarseTick})
		if err != nil {
			t.Fatal(err)
		}
		e.run()
		if e.feed.Undelivered() != 0 {
			t.Fatalf("seed %d: %d records undeliverable on a lossless transport", seed, e.feed.Undelivered())
		}
		if want := e.mission.Result().Dataset.TotalRecords(); e.feed.Ingested() != want {
			t.Fatalf("seed %d: ingested %d of %d records (exactly-once violated)", seed, e.feed.Ingested(), want)
		}
		live := e.report()
		standalone := standaloneReport(t, seed, 2, coarseTick)
		if live != standalone {
			t.Errorf("seed %d: fleet habitat report diverged from standalone run", seed)
		}
		e.analytics.Close()
	}
}

// TestEngineChaosCompletes pins that a fault-plan-ridden habitat still
// converges to exactly-once delivery: the transport drops and corrupts,
// the uploaders retransmit, and every SD record eventually reaches the
// daemon.
func TestEngineChaosCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("mission fixture in -short mode")
	}
	const seed, days = 11, 2
	plan := icares.ChaosPlan(seed, days)
	e, err := newEngine("chaos", HabitatConfig{ID: "chaos", Seed: seed, Days: days, Tick: coarseTick, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer e.analytics.Close()
	e.run()
	// Badge-death windows can strand tail records on a dead badge's SD
	// card past the drain grace; everything the transport could carry
	// must have arrived exactly once, and the rest is counted exactly.
	if total := e.mission.Result().Dataset.TotalRecords(); e.feed.Ingested()+e.feed.Undelivered() != total {
		t.Fatalf("ingested %d + undelivered %d != %d total", e.feed.Ingested(), e.feed.Undelivered(), total)
	}
	if e.snapshot().Records != e.feed.Ingested() {
		t.Fatalf("analytics hold %d records, daemon ingested %d", e.snapshot().Records, e.feed.Ingested())
	}
}

// TestEngineUndeliveredExact drives the give-up path: one badge's radio
// never gets a batch through, so the engine drains past the grace period
// and declares the rest undeliverable. The count must be exact — that
// badge's whole series, partial last batches included — so every record
// fed is either ingested or undelivered, never both and never neither.
func TestEngineUndeliveredExact(t *testing.T) {
	if testing.Short() {
		t.Skip("mission fixture in -short mode")
	}
	e, err := newEngine("mute", HabitatConfig{ID: "mute", Seed: 7, Days: 2, Tick: coarseTick})
	if err != nil {
		t.Fatal(err)
	}
	defer e.analytics.Close()
	ds := e.mission.Result().Dataset
	mute := ds.Badges()[0]
	inner := e.feed.Transport
	e.feed.Transport = offload.TransportFunc(func(b offload.Batch) bool {
		return b.Badge != mute && inner.Deliver(b)
	})
	e.run()

	total := ds.TotalRecords()
	if e.feed.Ingested()+e.feed.Undelivered() != total {
		t.Fatalf("ingested %d + undelivered %d != %d fed", e.feed.Ingested(), e.feed.Undelivered(), total)
	}
	if want := ds.Series(mute).Len(); e.feed.Undelivered() != want {
		t.Fatalf("undelivered %d, want the muted badge's %d records", e.feed.Undelivered(), want)
	}
	live := e.analytics.Pipeline().Source().Data
	liveLen := func(id store.BadgeID) int {
		if v, ok := live.View(id); ok {
			return v.Len()
		}
		return 0
	}
	if got := liveLen(mute); got != 0 {
		t.Fatalf("muted badge %v reached the analytics with %d records", mute, got)
	}
	var others int
	for _, id := range ds.Badges() {
		if id != mute {
			others += liveLen(id)
		}
	}
	if others != e.feed.Ingested() {
		t.Fatalf("analytics hold %d records of the other badges, daemon ingested %d", others, e.feed.Ingested())
	}
}
