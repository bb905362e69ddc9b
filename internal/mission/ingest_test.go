package mission

import (
	"runtime"
	"testing"
	"time"

	"icares/internal/telemetry"
)

// Run applies every staged record before it returns: the mission_records
// gauge, set once the ingest goroutine has drained, counts the whole
// dataset, and the goroutine itself is gone.
func TestRunIngestLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("mission run in -short mode")
	}
	before := runtime.NumGoroutine()
	sc := DefaultScenario(7)
	sc.Days = 2
	reg := telemetry.NewRegistry()
	res, err := Run(Config{Seed: 7, Scenario: sc, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Dataset.TotalRecords()
	if got := reg.Gauge("mission_records").Value(); got != float64(total) || total == 0 {
		t.Errorf("mission_records = %v, dataset holds %d records", got, total)
	}
	// The goroutine closes its done channel on the way out, so give it a
	// moment to finish returning before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after Run, %d before", after, before)
	}
}
