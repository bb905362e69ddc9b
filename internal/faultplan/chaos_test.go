package faultplan_test

import (
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"icares/internal/faultplan"
	"icares/internal/habitat"
	"icares/internal/mission"
	"icares/internal/offload"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/sociometry"
	"icares/internal/stats"
	"icares/internal/store"
	"icares/internal/support"
	"icares/internal/telemetry"
	"icares/internal/uplink"
)

// chaosPlan builds the suite's fault schedule: a handful of explicit
// windows that guarantee every fault kind strikes inside the data days
// (afternoon of data day one, when records are flowing), plus a
// generated randomized-but-seeded batch on top.
func chaosPlan(seed uint64, days int, badges []store.BadgeID, zones []string) *faultplan.Plan {
	d2 := simtime.StartOfDay(2)
	explicit := []faultplan.Event{
		{Kind: faultplan.UplinkBlackout, From: d2 + 8*time.Hour, To: d2 + 9*time.Hour},
		{Kind: faultplan.RFOutage, From: d2 + 10*time.Hour, To: d2 + 10*time.Hour + 30*time.Minute},
		{Kind: faultplan.SyncDropout, From: d2 + 10*time.Hour, To: d2 + 12*time.Hour, Badge: badges[2]},
		{Kind: faultplan.BadgeDeath, From: d2 + 11*time.Hour, To: d2 + 12*time.Hour + 30*time.Minute, Badge: badges[1]},
		{Kind: faultplan.FrameCorruption, From: d2 + 13*time.Hour, To: d2 + 14*time.Hour, Prob: 0.3},
		{Kind: faultplan.GatewayCrash, From: d2 + 14*time.Hour, To: d2 + 14*time.Hour + 20*time.Minute},
	}
	gen := faultplan.Generate(faultplan.GenConfig{Seed: seed, Days: days, Badges: badges, Zones: zones})
	for k := faultplan.RFOutage; k <= faultplan.FrameCorruption; k++ {
		explicit = append(explicit, gen.Windows(k)...)
	}
	return faultplan.New(seed, explicit...)
}

// metricTotal sums a metric's value across all label sets by scanning the
// registry's exposition text, so checks need not enumerate label values.
func metricTotal(reg *telemetry.Registry, name string) float64 {
	var total float64
	for _, line := range strings.Split(reg.String(), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue // longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		total += v
	}
	return total
}

// TestChaosMission is the end-to-end suite: a two-data-day mini-mission
// runs under a randomized-but-seeded fault plan (RF outages, badge
// death/reboot, gateway crash with volatile-state loss, uplink blackouts,
// sync dropouts, frame corruption), its SD-card dataset is streamed
// through the faulty online offload path, and despite everything the
// gateway sink must receive every record exactly once and in order — with
// the sociometry report computed from the offloaded data byte-identical
// to the report from the SD-card baseline.
//
// The whole path runs with telemetry enabled: instrumentation must be
// pure observation, never perturbing a single byte of the results.
func TestChaosMission(t *testing.T) {
	const seed = 42
	const days = 3 // day 1 acclimatization + data days 2..3
	reg := telemetry.NewRegistry()
	journal := telemetry.NewJournal(0)

	var badges []store.BadgeID
	for id := mission.BadgeA; id <= mission.BadgeF; id++ {
		badges = append(badges, store.BadgeID(id))
	}
	var zones []string
	for _, id := range habitat.Standard().RoomIDs() {
		zones = append(zones, id.String())
	}
	plan := chaosPlan(seed, days, badges, zones)

	// Acceptance: the same seed must reproduce the identical event trace.
	if again := chaosPlan(seed, days, badges, zones); !reflect.DeepEqual(plan, again) {
		t.Fatal("same seed produced a different fault-plan event trace")
	}

	sc := mission.DefaultScenario(seed)
	sc.Days = days
	res, err := mission.Run(mission.Config{Seed: seed, Scenario: sc, Faults: plan, Telemetry: reg, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	truth := res.Dataset
	if truth.TotalRecords() == 0 {
		t.Fatal("mission produced no records")
	}

	// --- Online offload replay under the fault plan -----------------------
	// The SD card (truth) is the source; the online path re-delivers it
	// through per-badge uploaders, the plan-wrapped lossy radio, and one
	// gateway that crash-restarts from its durable snapshot mid-mission.
	offloaded := store.NewDataset()
	gw, err := offload.NewGateway(func(id store.BadgeID, recs []record.Record) {
		s := offloaded.Series(id)
		for _, r := range recs {
			s.Append(r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.MaxHeldPerBadge = 16
	gw.Instrument(reg)

	var now time.Duration
	clock := func() time.Duration { return now }
	rng := stats.NewRNG(seed ^ 0xc4a05)
	lossy := &offload.LossyTransport{Gateway: gw, LossUp: 0.15, LossDown: 0.1, Rand: rng.Float64}

	type badgeLeg struct {
		id   store.BadgeID
		u    *offload.Uploader
		tr   *faultplan.Transport
		recs []record.Record
		cur  int
	}
	var legs []*badgeLeg
	for _, id := range truth.Badges() {
		u := offload.NewUploader(id)
		u.BatchSize = 32
		u.Instrument(reg)
		legs = append(legs, &badgeLeg{
			id: id, u: u,
			tr:   faultplan.NewTransport(plan, clock, lossy),
			recs: truth.Series(id).All(),
		})
	}

	end := simtime.StartOfDay(days + 1)
	gwWasDown := false
	for now = 0; now <= end+time.Hour; now += 30 * time.Second {
		down := plan.GatewayDown(now)
		if down && !gwWasDown {
			// Crash entry: volatile held state evaporates; the durable
			// watermarks survive. Uploader retransmissions re-converge.
			gw.Restore(gw.Snapshot())
		}
		gwWasDown = down
		for _, lg := range legs {
			for lg.cur < len(lg.recs) && lg.recs[lg.cur].Local <= now {
				lg.u.Enqueue(lg.recs[lg.cur])
				lg.cur++
			}
			lg.u.FlushAt(now, lg.tr)
		}
	}
	for _, lg := range legs {
		if lg.cur != len(lg.recs) {
			t.Fatalf("badge %d: %d of %d records never enqueued", lg.id, len(lg.recs)-lg.cur, len(lg.recs))
		}
	}
	// Mission over, badges docked: a final drain over the clean link must
	// finish what the faulty air left pending.
	direct := offload.TransportFunc(gw.Offer)
	for _, lg := range legs {
		if _, err := offload.Drain(lg.u, direct, 10000); err != nil {
			t.Fatalf("badge %d final drain: %v", lg.id, err)
		}
	}

	// --- Invariants -------------------------------------------------------
	// Exactly once, in order, for every badge, compared on the raw record
	// structs.
	for _, lg := range legs {
		want := truth.Series(lg.id).All()
		got := offloaded.Series(lg.id).All()
		if len(got) != len(want) {
			t.Fatalf("badge %d: offloaded %d records, want %d exactly once", lg.id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("badge %d: record %d differs after offload", lg.id, i)
			}
		}
	}
	if gs := gw.StatsSnapshot(); gs.HeldBatches != 0 || gs.HeldRecords != 0 {
		t.Errorf("held state after full drain: %d batches %d records, want 0", gs.HeldBatches, gs.HeldRecords)
	}

	// The plan must actually have engaged: deliveries dropped in fault
	// windows, frames corrupted (and caught by the CRC), duplicates
	// absorbed from retransmissions over the lossy air.
	var dropped, corrupted int
	for _, lg := range legs {
		d, c := lg.tr.Stats()
		dropped += d
		corrupted += c
	}
	if dropped == 0 {
		t.Error("fault plan never dropped a delivery")
	}
	if corrupted == 0 {
		t.Error("corruption windows never touched a frame")
	}
	if gw.StatsSnapshot().Duplicates == 0 {
		t.Error("no duplicates despite lossy retransmission")
	}

	// The sociometry backend cannot tell the datasets apart: byte-identical
	// reports.
	profiles := make(map[string]float64, len(res.Roster))
	for _, r := range res.Roster {
		profiles[r.Name] = r.Traits.F0Hz
	}
	report := func(ds *store.Dataset) string {
		p, err := sociometry.NewPipeline(sociometry.Source{
			Habitat:       res.Habitat,
			Data:          ds,
			Names:         mission.Names(),
			BadgeFor:      res.Assignment.TrueBadgeFor,
			VoiceProfiles: profiles,
			FirstDay:      res.Config.FirstDataDay,
			LastDay:       days,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.SetTelemetry(reg)
		return p.Report()
	}
	truthReport := report(truth)
	if offReport := report(offloaded); offReport != truthReport {
		t.Error("sociometry report from offloaded data differs from the SD-card baseline")
	}

	// --- Uplink under the same plan --------------------------------------
	// A command composed against pre-blackout state is queued (not dropped)
	// through the blackout, and conflict detection still fires on the late
	// arrival — the day-12 failure mode aggravated by a blackout.
	link := uplink.NewLink(20 * time.Minute)
	link.Instrument(reg)
	if n := plan.InstallBlackouts(link); n == 0 {
		t.Fatal("no blackout windows installed")
	}
	d2 := simtime.StartOfDay(2)
	topics := uplink.NewTopicState()
	topics.Instrument(reg)
	msg, err := link.Send(d2+8*time.Hour+30*time.Minute, uplink.Message{
		From: uplink.MissionControl, Kind: uplink.Command, Topic: "ops",
		BasisVersion: topics.Version("ops"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if msg.ArrivesAt <= d2+9*time.Hour {
		t.Errorf("blackout did not defer the command: arrives %v", msg.ArrivesAt)
	}
	topics.Advance("ops") // the crew acts on its own during the blackout
	arrived := link.Receive(uplink.Habitat, msg.ArrivesAt)
	if len(arrived) != 1 {
		t.Fatalf("arrivals = %d, want the queued command", len(arrived))
	}
	if topics.Check(arrived[0]) == nil {
		t.Error("stale command arriving after the blackout not flagged")
	}

	// --- Support ingestion under the same plan ---------------------------
	// The support feed carries the SD card over its own uploaders and
	// gateway with the plan in between: deliveries in fault windows (badge
	// dead, gateway down, habitat-wide RF outage) fail and are retried, so
	// every record is ingested or counted undelivered, and the daemon
	// ingests across the gaps without choking on them.
	daemon := support.NewDaemon()
	daemon.Instrument(reg)
	daemon.Register(support.NewInactivityDetector())
	rep := support.NewReplayer(daemon, truth, end, res.Assignment.TrueWearerOf)
	tr := faultplan.NewTransport(plan, rep.Now, rep.Transport)
	rep.Transport = tr
	rep.Run()
	if !rep.Done() || rep.Ingested()+rep.Undelivered() != truth.TotalRecords() {
		t.Errorf("support feed: ingested %d + undelivered %d != %d SD-card records",
			rep.Ingested(), rep.Undelivered(), truth.TotalRecords())
	}
	if dropped, _ := tr.Stats(); dropped == 0 {
		t.Error("fault plan never dropped a support-feed delivery")
	}
	if silent := daemon.Health().Stale(end, end-(d2+15*time.Hour)); len(silent) == len(truth.Badges()) {
		t.Error("daemon heard from no badge after the day-2 gateway crash")
	}

	// --- Telemetry sanity -------------------------------------------------
	// Every instrumented layer actually reported, and the exposition is
	// well-formed end to end.
	for _, name := range []string{
		"mission_ticks_total",
		"offload_gateway_batches_total",
		"offload_gateway_duplicates_total",
		"uplink_blackout_deferrals_total",
		"uplink_stale_conflicts_total",
		"support_records_ingested_total",
	} {
		if got := metricTotal(reg, name); got == 0 {
			t.Errorf("metric %s never incremented under chaos", name)
		}
	}
	if err := reg.Write(io.Discard); err != nil {
		t.Errorf("exposition write: %v", err)
	}
	// The sim-clock spans land in the journal, one event per data day plus
	// one for the run, and the span histogram counts exactly those.
	spans := make(map[string]uint64)
	for _, e := range journal.Select(telemetry.EventQuery{Kind: "span"}) {
		if e.Component != "mission" || e.Severity != telemetry.SevDebug || len(e.Fields) == 0 || e.Fields[0].Key != "span" {
			t.Fatalf("malformed span event %+v", e)
		}
		spans[e.Fields[0].Value]++
	}
	dataDays := uint64(days - res.Config.FirstDataDay + 1)
	if spans["mission.day"] != dataDays || spans["mission.run"] != 1 || len(spans) != 2 {
		t.Errorf("span events = %v, want %d mission.day and 1 mission.run", spans, dataDays)
	}
	for name, n := range spans {
		if got := reg.Histogram("trace_span_seconds", nil, telemetry.L("span", name)).Snapshot().Count; got != n {
			t.Errorf("trace_span_seconds{span=%q} count = %d, want %d", name, got, n)
		}
	}
}
