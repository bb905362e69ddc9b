// Support: run the Section VI mission support system over a simulated
// mission — real-time anomaly alerts, a privacy window, badge failover from
// the backup pool, and a consensus-approved configuration change.
//
//	go run ./examples/support
package main

import (
	"fmt"
	"log"
	"time"

	"icares"
	"icares/internal/simtime"
	"icares/internal/support"
	"icares/internal/uplink"
)

func main() {
	m, err := icares.Simulate(icares.Options{Seed: 11, Days: 3})
	if err != nil {
		log.Fatal(err)
	}

	daemon, replayer := m.SupportSystem()

	// Astronaut E requests privacy during the day-2 evening: mic and IR
	// records from E's badge are dropped before any detector sees them.
	evening := simtime.StartOfDay(2) + 19*time.Hour
	daemon.Privacy().Suppress("E", evening, evening+2*time.Hour)
	fmt.Println("privacy window: E, day 2, 19:00-21:00 (mic/IR suppressed)")

	fmt.Println("\nreplaying the mission through the daemon...")
	n := replayer.Run()
	alerts := daemon.Alerts()
	fmt.Printf("%d records -> %d alerts\n", n, len(alerts))

	byKind := make(map[string][]support.Alert)
	for _, a := range alerts {
		byKind[a.Kind] = append(byKind[a.Kind], a)
	}
	for _, k := range []struct{ kind, label string }{
		{"hydration", "hydration reminders"},
		{"wear-compliance", "wear nudges"},
		{"quiet-crew", "morale warnings"},
	} {
		as := byKind[k.kind]
		fmt.Printf("\n%s (%d):\n", k.label, len(as))
		for i, a := range as {
			if i == 3 {
				fmt.Println("  ...")
				break
			}
			fmt.Printf("  [day %d %s] %s\n", simtime.DayOf(a.At), simtime.ClockString(a.At), a.Message)
		}
	}

	// Consensus: the crew approves intensified sampling, mission control
	// concurs over the 20-minute link.
	fmt.Println("\nconsensus approval:")
	link := icares.MissionControlLink()
	council := m.Council(link)
	now := m.Horizon()
	p, err := council.Propose(now, "B", "intensify accelerometer sampling during EVAs")
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range []string{"A", "D", "E"} {
		if err := council.Vote(now, p.ID, v, true); err != nil {
			log.Fatal(err)
		}
	}
	if msgs := link.Receive(uplink.MissionControl, now+link.Delay()); len(msgs) == 1 {
		fmt.Printf("  proposal relayed to mission control (%v one-way)\n", link.Delay())
	}
	if err := council.MissionControlDecision(now+2*link.Delay(), p.ID, true); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  crew 4/6 + mission control yes -> %v after %v round trip\n",
		p.Status(), 2*link.Delay())
}
