// Offload: stream a badge's SD-card records to the habitat gateway over a
// lossy radio — the real-time data path of the Section VI support system.
// At-least-once retransmission plus gateway deduplication delivers every
// record exactly once and in order, even at 30% symmetric packet loss.
//
//	go run ./examples/offload
package main

import (
	"fmt"
	"log"

	"icares"
	"icares/internal/offload"
	"icares/internal/record"
	"icares/internal/stats"
	"icares/internal/store"
)

func main() {
	// One simulated mission day gives a realistic record stream.
	m, err := icares.Simulate(icares.Options{Seed: 21, Days: 2})
	if err != nil {
		log.Fatal(err)
	}
	badgeID := store.BadgeID(2) // astronaut B's badge
	recs := m.Result().Dataset.Series(badgeID).All()
	fmt.Printf("badge %d recorded %d records on day 2\n", badgeID, len(recs))

	// Gateway feeding a server-side dataset.
	serverSide := store.NewDataset()
	gw, err := offload.NewGateway(func(id store.BadgeID, batch []record.Record) {
		s := serverSide.Series(id)
		for _, r := range batch {
			s.Append(r)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// The badge uploads through 30% loss in both directions.
	rng := stats.NewRNG(99)
	transport := &offload.LossyTransport{
		Gateway: gw, LossUp: 0.3, LossDown: 0.3, Rand: rng.Float64,
	}
	up := offload.NewUploader(badgeID)
	up.BatchSize = 128
	for _, r := range recs {
		up.Enqueue(r)
	}
	rounds, err := offload.Drain(up, transport, 10_000)
	if err != nil {
		log.Fatal(err)
	}

	us, gs := up.StatsSnapshot(), gw.StatsSnapshot()
	fmt.Printf("drained in %d coverage rounds\n", rounds)
	fmt.Printf("uploader: %d batches formed, %d retransmissions\n", us.Sent, us.Retransmits)
	fmt.Printf("gateway:  %d batches heard, %d duplicates absorbed\n", gs.Batches, gs.Duplicates)

	got := serverSide.Series(badgeID).All()
	fmt.Printf("server received %d records (exactly once: %v)\n",
		len(got), len(got) == len(recs))
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i].Local < got[i-1].Local {
			inOrder = false
		}
	}
	fmt.Printf("in order: %v\n", inOrder)
}
