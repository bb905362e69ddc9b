package offload_test

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icares/internal/faultplan"
	"icares/internal/offload"
	"icares/internal/record"
	"icares/internal/stats"
	"icares/internal/store"
	"icares/internal/telemetry"
)

// TestConcurrentScrapeUnderChaos is the torn-read regression: while badge
// uploaders flush through a chaos-plan-wrapped lossy transport into one
// gateway, scraper goroutines hammer StatsSnapshot, the legacy accessors,
// and the telemetry exposition. Run under -race this proves the stats path
// is data-race free; the in-test assertions prove each snapshot is
// internally consistent (a property the old plain-int split accessors
// could not give: refused read at one instant, batches at another).
func TestConcurrentScrapeUnderChaos(t *testing.T) {
	const seed = 7
	const steps, recsPerStep = 400, 5
	badges := []store.BadgeID{1, 2, 3}
	plan := faultplan.Generate(seed, 0, 24*time.Hour, badges)

	reg := telemetry.NewRegistry()
	var sunk atomic.Int64
	gw, err := offload.NewGateway(func(id store.BadgeID, recs []record.Record) {
		sunk.Add(int64(len(recs)))
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.MaxHeldPerBadge = 8
	gw.Instrument(reg)

	// Shared simulated clock, advanced by the flush goroutines.
	var nowNanos atomic.Int64
	clock := func() time.Duration { return time.Duration(nowNanos.Load()) }

	// One flushing goroutine per badge: enqueue records and flush through
	// the plan-wrapped lossy air while the clock sweeps the fault windows.
	var flushers sync.WaitGroup
	uploaders := make([]*offload.Uploader, len(badges))
	for i, id := range badges {
		u := offload.NewUploader(id)
		u.BatchSize = 8
		u.BackoffBase = time.Second
		u.Instrument(reg)
		uploaders[i] = u

		rng := stats.NewRNG(seed ^ uint64(id))
		lossy := &offload.LossyTransport{Gateway: gw, LossUp: 0.3, LossDown: 0.2, Rand: rng.Float64}
		tr := faultplan.NewTransport(plan, clock, lossy)

		flushers.Add(1)
		go func(u *offload.Uploader, tr offload.Transport, seed uint64) {
			defer flushers.Done()
			srng := stats.NewRNG(seed)
			for step := 0; step < steps; step++ {
				for r := 0; r < recsPerStep; r++ {
					u.Enqueue(record.Record{Local: clock(), Kind: record.KindEnv})
				}
				// Sweep the plan's whole span so outage and corruption
				// windows actually engage mid-flush.
				nowNanos.Add(int64(time.Minute) + int64(srng.Intn(5))*int64(time.Second))
				u.FlushAt(clock(), tr)
			}
		}(u, tr, seed^uint64(id)<<8)
	}

	// Scraper goroutines: consistent snapshots plus the legacy accessors
	// plus the registry exposition, continuously until the flushers finish.
	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 3; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				gs := gw.StatsSnapshot()
				if gs.Duplicates+gs.Refused > gs.Batches {
					t.Errorf("torn gateway snapshot: dup %d + refused %d > batches %d",
						gs.Duplicates, gs.Refused, gs.Batches)
					return
				}
				if gs.HeldBatches < 0 || gs.HeldRecords < gs.HeldBatches {
					t.Errorf("impossible held state: %d batches, %d records", gs.HeldBatches, gs.HeldRecords)
					return
				}
				for _, u := range uploaders {
					us := u.StatsSnapshot()
					if us.Pending < 0 || us.Buffered < 0 || us.Retransmits < 0 {
						t.Errorf("impossible uploader snapshot: %+v", us)
						return
					}
				}
				gw.StatsSnapshot()
				_ = reg.Write(io.Discard)
			}
		}()
	}

	flushers.Wait()
	close(done)
	scrapers.Wait()

	// Mission over: a clean-link drain must finish what the faulty air
	// left pending, and the post-quiescence snapshot must balance.
	direct := offload.TransportFunc(gw.Offer)
	for _, u := range uploaders {
		if _, err := offload.Drain(u, direct, 10000); err != nil {
			t.Fatalf("final drain: %v", err)
		}
	}
	gs := gw.StatsSnapshot()
	if gs.HeldBatches != 0 || gs.HeldRecords != 0 {
		t.Errorf("held after drain: %+v", gs)
	}
	want := int64(len(badges) * steps * recsPerStep)
	if got := sunk.Load(); got != want {
		t.Errorf("sink received %d records, want %d exactly once", got, want)
	}
	if gs.Batches == 0 {
		t.Error("gateway saw no batches")
	}
	// The telemetry mirrors agree with the snapshot after quiescence.
	if got := reg.Counter("offload_gateway_batches_total").Value(); int(got) != gs.Batches {
		t.Errorf("mirror batches = %d, snapshot %d", got, gs.Batches)
	}
}
