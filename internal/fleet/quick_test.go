package fleet

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestInterleavingNeverChangesReports is the property half of the
// isolation story: however the scheduler interleaves the habitats'
// ingest steps — bursts, starvation, strict round-robin, anything —
// every habitat's final report equals its standalone batch run.
// testing/quick draws random interleaving seeds; each one drives the
// three engines' clock domains forward in a different order.
func TestInterleavingNeverChangesReports(t *testing.T) {
	if testing.Short() {
		t.Skip("interleaving property in -short mode")
	}
	seeds := []uint64{40, 41, 42}
	want := make([]string, len(seeds))
	for i, s := range seeds {
		want[i] = standaloneReport(t, s, 2, coarseTick)
	}

	property := func(order int64) bool {
		rng := rand.New(rand.NewSource(order))
		engines := make([]*engine, len(seeds))
		for i, s := range seeds {
			e, err := newEngine(fmt.Sprintf("hab-%02d", i), HabitatConfig{
				ID: fmt.Sprintf("hab-%02d", i), Seed: s, Days: 2, Tick: coarseTick,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.analytics.Close()
			engines[i] = e
		}
		for {
			var live []*engine
			for _, e := range engines {
				if !e.feed.Done() {
					live = append(live, e)
				}
			}
			if len(live) == 0 {
				break
			}
			// Pick one habitat and run a random burst of its steps,
			// occasionally interposing a query mid-ingest — queries must
			// not perturb results either.
			e := live[rng.Intn(len(live))]
			for n := rng.Intn(64) + 1; n > 0 && !e.feed.Done(); n-- {
				e.step()
			}
			if rng.Intn(4) == 0 {
				_ = e.snapshot()
			}
		}
		for i, e := range engines {
			if e.feed.Undelivered() != 0 {
				t.Fatalf("habitat %d left %d records undelivered", i, e.feed.Undelivered())
			}
			if e.report() != want[i] {
				return false
			}
		}
		return true
	}

	cfg := &quick.Config{
		MaxCount: 6,
		Rand:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Errorf("an ingest interleaving changed a habitat's report: %v", err)
	}
}
