package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"icares"
)

// goldenStream pins the sha256 of one chaos habitat's whole live stream:
// every journal event in order (ingest steps, uploader backoffs, gateway
// refusals and restores, fault windows, alerts), the daemon's alert log in
// raise order, and the final live report. The report tests compare paths
// within one build; this pins the order in which the live path flushes,
// enqueues and runs its detectors across builds. Update it only with a
// change that is meant to alter that stream, and say so.
const goldenStream = "469d2d24e97205e974c10f268a982e7b5dd47e2f76745af91103e4afcb83302a"

func TestEngineStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("mission fixture in -short mode")
	}
	const seed, days = 11, 2
	e, err := newEngine("chaos", HabitatConfig{
		ID: "chaos", Seed: seed, Days: days, Tick: coarseTick, Faults: icares.ChaosPlan(seed, days),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.analytics.Close()
	e.run()

	h := sha256.New()
	if err := e.journal.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "dropped %d\n", e.journal.Dropped())
	for _, a := range e.alerts() {
		fmt.Fprintf(h, "%d|%d|%s|%s|%s\n", a.At, a.Severity, a.Kind, a.Subject, a.Message)
	}
	h.Write([]byte(e.report()))
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenStream {
		t.Errorf("live stream changed:\n got %s\nwant %s", got, goldenStream)
	}
}
