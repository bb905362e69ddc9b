package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same identity returns the same counter.
	if r.Counter("requests_total") != c {
		t.Error("re-lookup returned a different counter")
	}
	// Different labels are different series.
	if r.Counter("requests_total", L("kind", "a")) == c {
		t.Error("labelled lookup returned the unlabelled counter")
	}

	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every handle from a nil registry must be a usable no-op.
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", nil).Observe(1)
	if got := r.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	if s := r.String(); s != "" {
		t.Errorf("nil registry exposition = %q", s)
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-edge semantics:
// an observation exactly on a bound lands in that bound's bucket, and
// anything above the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4.9, 5, 7} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Buckets: (-inf,1] (1,2] (2,5] (5,+inf)
	want := []uint64{2, 2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	const wantSum = 0.5 + 1 + 1.0000001 + 2 + 4.9 + 5 + 7
	if s.Sum != wantSum {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
	// The frozen layout wins over later bounds arguments.
	if h2 := r.Histogram("lat", []float64{10, 20}); h2 != h {
		t.Error("re-lookup with different bounds returned a new histogram")
	}
}

// TestSnapshotDeterminism: two scrapes with no intervening writes are
// byte-identical.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", L("x", "1")).Add(3)
	r.Counter("a_total").Inc()
	r.Gauge("depth", L("side", "up")).Set(4)
	r.Histogram("dur_seconds", []float64{0.1, 1}).Observe(0.05)
	first := r.String()
	for i := 0; i < 10; i++ {
		if again := r.String(); again != first {
			t.Fatalf("scrape %d differs:\n%s\n---\n%s", i, first, again)
		}
	}
}

// TestExpositionGolden pins the text format end to end: # TYPE headers,
// names sorted, labels sorted and quoted, cumulative buckets with le
// labels, _sum and _count lines.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("offload_batches_total", L("badge", "3")).Add(12)
	r.Counter("offload_batches_total", L("badge", "1")).Add(7)
	r.Gauge("uplink_pending", L("dst", "habitat")).Set(2)
	h := r.Histogram("stage_seconds", []float64{0.01, 0.1}, L("stage", "track"))
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)

	want := strings.Join([]string{
		`# TYPE offload_batches_total counter`,
		`offload_batches_total{badge="1"} 7`,
		`offload_batches_total{badge="3"} 12`,
		`# TYPE stage_seconds histogram`,
		`stage_seconds_bucket{stage="track",le="0.01"} 1`,
		`stage_seconds_bucket{stage="track",le="0.1"} 2`,
		`stage_seconds_bucket{stage="track",le="+Inf"} 3`,
		`stage_seconds_count{stage="track"} 3`,
		`stage_seconds_sum{stage="track"} 0.555`,
		`# TYPE uplink_pending gauge`,
		`uplink_pending{dst="habitat"} 2`,
	}, "\n") + "\n"
	if got := r.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentScrape hammers one registry from writer and scraper
// goroutines; run under -race this is the registry's thread-safety proof.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	const writers = 4
	const perWriter = 2000
	var writersWG, scraperWG sync.WaitGroup
	stop := make(chan struct{})
	scraperWG.Add(1)
	go func() { // scraper
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.String()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			c := r.Counter("hits_total")
			g := r.Gauge("depth")
			h := r.Histogram("lat_seconds", nil)
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%10) / 100)
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	scraperWG.Wait()
	if got := r.Counter("hits_total").Value(); got != writers*perWriter {
		t.Errorf("hits = %d, want %d", got, writers*perWriter)
	}
	if got := r.Gauge("depth").Value(); got != writers*perWriter {
		t.Errorf("depth = %v, want %d", got, writers*perWriter)
	}
	if got := r.Histogram("lat_seconds", nil).Snapshot().Count; got != writers*perWriter {
		t.Errorf("observations = %d, want %d", got, writers*perWriter)
	}
}
