package mission

import (
	"bytes"
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
	// moment to finish returning before looking. Goroutines of other tests
	// are not counted: only those startIngest started.
	deadline := time.Now().Add(2 * time.Second)
	for ingestGoroutines() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := ingestGoroutines(); n > 0 {
		t.Errorf("%d ingest goroutines still running after Run", n)
	}
}

// ingestGoroutines counts the live goroutines started by startIngest, from
// a dump of every goroutine's stack: each names the function that created
// it.
func ingestGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("mission.startIngest")) {
			n++
		}
	}
	return n
}
