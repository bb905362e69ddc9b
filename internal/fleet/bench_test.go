package fleet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// BenchmarkFleetQueries measures fleet API throughput: parallel clients
// cycling the endpoint mix against a settled 8-habitat fleet over real
// HTTP. The req/s metric is the PR's headline load figure.
func BenchmarkFleetQueries(b *testing.B) {
	var habitats []HabitatConfig
	for i := 0; i < 8; i++ {
		habitats = append(habitats, HabitatConfig{
			ID: fmt.Sprintf("hab-%02d", i), Seed: uint64(500 + i), Days: 2, Tick: time.Minute,
		})
	}
	f, err := New(Config{Habitats: habitats})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if !f.WaitIdle(4 * time.Minute) {
		b.Fatal("fleet never settled")
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	paths := []string{
		"/habitats",
		"/habitats/hab-00/alerts",
		"/habitats/hab-01/snapshot",
		"/habitats/hab-02/report",
		"/fleet/summary",
		"/fleet/alerts?limit=100",
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		for i := 0; pb.Next(); i++ {
			path := paths[i%len(paths)]
			resp, err := client.Get(srv.URL + path)
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// 503 = bounded queue pushing back under parallel load;
			// that is the design working, not a failure.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
				b.Errorf("GET %s = %d", path, resp.StatusCode)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// benchFix is a settled two-habitat fleet shared by the serve-path
// benchmarks, built once no matter how many times the harness re-enters
// with a larger b.N.
var (
	benchFixOnce sync.Once
	benchFixErr  error
	benchFix     *Fleet
)

func benchFleet(b *testing.B) *Fleet {
	b.Helper()
	benchFixOnce.Do(func() {
		benchFix, benchFixErr = New(Config{Habitats: []HabitatConfig{
			{ID: "hab-00", Seed: 910, Days: 2, Tick: time.Minute},
			{ID: "hab-01", Seed: 911, Days: 2, Tick: time.Minute},
		}})
		if benchFixErr == nil && !benchFix.WaitIdle(4*time.Minute) {
			benchFixErr = fmt.Errorf("bench fleet never settled")
		}
	})
	if benchFixErr != nil {
		b.Fatal(benchFixErr)
	}
	return benchFix
}

// BenchmarkServeInstrumented measures the full instrumented handler —
// request ID, status capture, per-route counters, latency histogram —
// on the cheapest endpoint, so the number is the middleware plus
// serialization, not worker scheduling. Compare against
// BenchmarkServeBare: the acceptance bar is instrumented within 10% of
// bare.
func BenchmarkServeInstrumented(b *testing.B) {
	f := benchFleet(b)
	req := httptest.NewRequest(http.MethodGet, "/habitats", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.serve(httptest.NewRecorder(), req)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeBare measures the same endpoint through parse+dispatch
// only — the handler with the instrumentation middleware peeled off.
func BenchmarkServeBare(b *testing.B) {
	f := benchFleet(b)
	req := httptest.NewRequest(http.MethodGet, "/habitats", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, aerr := ParseRequest(req.Method, req.URL.Path, req.URL.RawQuery)
		f.dispatch(httptest.NewRecorder(), req, pr, aerr)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkHabitatSetup measures what one habitat costs a fleet before it
// can serve a settled report, at the benchmark workload's habitat shape
// (three mission days, one-minute tick): the mission simulation, the feed
// assembly in newEngine, and the whole offload-and-ingest run. The
// records/s metric is the habitat's SD-card records over that time.
func BenchmarkHabitatSetup(b *testing.B) {
	records := 0
	for i := 0; i < b.N; i++ {
		e, err := newEngine("bench", HabitatConfig{ID: "bench", Seed: 900, Days: 3, Tick: time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		e.run()
		records += e.feed.Ingested()
		b.StopTimer()
		e.analytics.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkFleetIngest measures one habitat's full offload-and-ingest
// throughput: mission records per second through uploader → gateway →
// daemon → live analytics.
func BenchmarkFleetIngest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := newEngine("bench", HabitatConfig{ID: "bench", Seed: 900, Days: 2, Tick: time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		e.run()
		b.StopTimer()
		b.ReportMetric(float64(e.feed.Ingested()), "records")
		e.analytics.Close()
		b.StartTimer()
	}
}
