package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"icares"
	"icares/internal/fleet"
	"icares/internal/record"
	"icares/internal/telemetry"
)

// The fleet_api workload is the only request-serving path: a fleet of
// habitats behind the HTTP API, driven by an open loop at fixed rates over
// two keep-alive connections. The operation is a dashboard refresh: one
// round of the eight-request mix, issued in order on one connection. A
// refresh is timed from when it was due to its last response, so a stall
// also charges the refreshes queued behind it. Timing whole rounds rather
// than single requests keeps the operation's latency unimodal: the mix's
// requests range from 0.03 ms to 4 ms, and a median of single requests
// would fall between request classes.

// loadWorkers is the number of goroutines (and HTTP connections) driving
// load: one per core of the reference box.
const loadWorkers = 2

// mixLen is the number of requests in one round of the mix.
const mixLen = 8

// requestPath returns the i-th request of the mix. Each round of eight
// covers every route the mix uses; the habitat rotates round by round.
func requestPath(ids []string, i int) string {
	round := i / mixLen
	id := ids[round%len(ids)]
	next := ids[(round+1)%len(ids)]
	switch i % mixLen {
	case 0:
		return "/fleet/summary"
	case 1:
		return "/habitats/" + id + "/snapshot"
	case 2:
		return "/habitats/" + next + "/snapshot"
	case 3:
		return "/habitats/" + id + "/alerts"
	case 4:
		return "/habitats/" + id + "/report"
	case 5:
		return "/habitats/" + next + "/report"
	case 6:
		return "/fleet/alerts?limit=100"
	default:
		return "/habitats/" + id + "/events?limit=50"
	}
}

// mixRoutes are the server-side route names the mix reaches.
var mixRoutes = []string{"fleet-summary", "snapshot", "alerts", "report", "fleet-alerts", "events"}

// apiClient issues the mix's requests and applies the response gates: any
// transport error or non-200 status fails the request, and a habitat's
// report must be byte-identical on every request.
type apiClient struct {
	base    string
	http    *http.Client
	reports *gate // keyed by report path

	mu sync.Mutex
	o  *outcome
}

func newAPIClient(base string, o *outcome, reports *gate) *apiClient {
	return &apiClient{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     loadWorkers,
			MaxIdleConnsPerHost: loadWorkers,
			DisableCompression:  true,
		}},
		reports: reports,
		o:       o,
	}
}

func (c *apiClient) close() { c.http.CloseIdleConnections() }

// get issues one request and records it on the outcome; ok reports
// whether it passed every gate.
func (c *apiClient) get(path string) (ok bool) {
	problem := c.fetch(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.o.Attempted++
	if problem != "" {
		c.o.fail("fleet_api: GET %s: %s", path, problem)
		return false
	}
	return true
}

// fetch returns "" for a good response, or what was wrong with it.
func (c *apiClient) fetch(path string) string {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err.Error()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return "reading body: " + err.Error()
	case resp.StatusCode != http.StatusOK:
		return fmt.Sprintf("status %d", resp.StatusCode)
	case strings.HasSuffix(path, "/report") && !c.reports.check(path, body):
		return "report body changed between requests"
	}
	return ""
}

// rateResult is an open-loop run at a fixed offered rate.
type rateResult struct {
	Rounds  int           // refreshes sent
	Failed  int           // requests that failed a gate
	Backlog int           // refreshes still unsent when a slice's cutoff passed
	Drain   time.Duration // longest wait, past a slice's last due time, for its last completion
	Lat     []float64     // wall ms from due time to the last response, per refresh
	Late    []float64     // ms the refresh started behind its due time
	Req     []float64     // wall ms per request, send to response
}

// sustained reports whether the rate met the service limit: refresh p99
// within 100 ms, at most 1% of requests failed, no backlog, and every
// refresh done within a second of the last due time.
func (r rateResult) sustained() bool {
	return r.Rounds > 0 && quantile(r.Lat, 0.99) <= 100 &&
		float64(r.Failed) <= 0.01*float64(r.Rounds*mixLen) &&
		r.Backlog == 0 && r.Drain <= time.Second
}

func (r *rateResult) add(part rateResult) {
	r.Rounds += part.Rounds
	r.Failed += part.Failed
	r.Backlog += part.Backlog
	r.Drain = max(r.Drain, part.Drain)
	r.Lat = append(r.Lat, part.Lat...)
	r.Late = append(r.Late, part.Late...)
	r.Req = append(r.Req, part.Req...)
}

// sliceDur is how long the open loop runs between two calibration kernels.
const sliceDur = 250 * time.Millisecond

// runRate offers rate requests per second for dur in slices, running the
// calibration kernel between slices while no request is in flight, and
// records each slice's refresh latencies into ph with the mean of the
// kernel times around it. A slice that leaves a backlog ends the run: the
// rate is past saturation.
func runRate(c *apiClient, ids []string, rate float64, dur time.Duration, ph *phase) rateResult {
	slices := max(1, int(dur/sliceDur))
	var r rateResult
	k := ph.kernel()
	for sl := 0; sl < slices && r.Backlog == 0; sl++ {
		part := openLoop(c, ids, r.Rounds, rate/mixLen, dur/time.Duration(slices))
		next := ph.kernel()
		for _, l := range part.Lat {
			ph.record(l, (k+next)/2)
		}
		k = next
		r.add(part)
	}
	return r
}

// openLoop offers refreshes at roundRate per second for dur. Refresh i is
// due at start + i/roundRate whatever happened to earlier ones;
// loadWorkers goroutines each take the next due refresh, wait for its due
// time if early, and issue its requests. Refreshes not started a second
// after the run's end are abandoned as backlog, which bounds a saturated
// run. first is the index of the run's first refresh in the mix.
func openLoop(c *apiClient, ids []string, first int, roundRate float64, dur time.Duration) rateResult {
	n := max(1, int(roundRate*dur.Seconds()))
	interval := time.Duration(float64(time.Second) / roundRate)
	start := time.Now()
	cutoff := start.Add(dur + time.Second)
	results := make([]rateResult, loadWorkers)
	lastDone := make([]time.Time, loadWorkers)
	var next, backlog atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if sent.After(cutoff) {
					backlog.Add(int64(n - i))
					next.Store(int64(n))
					return
				}
				for q := 0; q < mixLen; q++ {
					reqStart := time.Now()
					if !c.get(requestPath(ids, (first+i)*mixLen+q)) {
						res.Failed++
					}
					res.Req = append(res.Req, ms(time.Since(reqStart)))
				}
				lastDone[w] = time.Now()
				res.Rounds++
				res.Lat = append(res.Lat, ms(lastDone[w].Sub(due)))
				res.Late = append(res.Late, ms(sent.Sub(due)))
			}
		}(w)
	}
	wg.Wait()
	r := rateResult{Backlog: int(backlog.Load())}
	var last time.Time
	for w := range results {
		r.add(results[w])
		if lastDone[w].After(last) {
			last = lastDone[w]
		}
	}
	r.Drain = last.Sub(start.Add(time.Duration(n-1) * interval))
	return r
}

// capacity sends requests back to back on every load worker for dur and
// returns the completed requests per second.
func capacity(c *apiClient, ids []string, dur time.Duration) float64 {
	var next, done atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.get(requestPath(ids, int(next.Add(1)-1)))
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// serverTimes reads the server-side request histograms of the mix's routes.
func serverTimes(f *fleet.Fleet) map[string]telemetry.HistogramSnapshot {
	out := make(map[string]telemetry.HistogramSnapshot, len(mixRoutes))
	for _, r := range mixRoutes {
		out[r] = f.Telemetry().Histogram("fleet_http_request_seconds", nil, telemetry.L("route", r)).Snapshot()
	}
	return out
}

// serverDelta turns two histogram readings into each route's mean server
// milliseconds and the mean over every request in between.
func serverDelta(before, after map[string]telemetry.HistogramSnapshot) (perRoute map[string]float64, mean float64) {
	perRoute = make(map[string]float64, len(mixRoutes))
	var sum float64
	var count uint64
	for _, r := range mixRoutes {
		s := after[r].Sum - before[r].Sum
		c := after[r].Count - before[r].Count
		if c > 0 {
			perRoute[r] = s * 1000 / float64(c)
		}
		sum += s
		count += c
	}
	if count > 0 {
		mean = sum * 1000 / float64(count)
	}
	return perRoute, mean
}

// fleetLayers are the fleet layer metrics BENCHMARK.json declares.
type fleetLayers struct {
	ServerShare float64 // mean server time over mean client latency
	Rejected    uint64  // queries refused by a full habitat queue
	Timeouts    uint64  // queries that missed their deadline
	Panics      uint64
}

func emitFleetLayers(o *outcome, l fleetLayers) {
	o.add("fleet.server_share", l.ServerShare, "frac")
	o.add("fleet.rejected", float64(l.Rejected), "count")
	o.add("fleet.timeouts", float64(l.Timeouts), "count")
	o.add("fleet.panics", float64(l.Panics), "count")
}

// fleetCounters sums the per-habitat failure counters.
func fleetCounters(f *fleet.Fleet) fleetLayers {
	var l fleetLayers
	for _, id := range f.IDs() {
		hab := telemetry.L("habitat", id)
		l.Rejected += f.Telemetry().Counter("fleet_queue_rejected_total", hab).Value()
		l.Timeouts += f.Telemetry().Counter("fleet_timeouts_total", hab).Value()
		l.Panics += f.Telemetry().Counter("fleet_panics_total", hab).Value()
	}
	return l
}

// parseNanos times fleet.ParseRequest over the request mix.
func parseNanos(ids []string, calls int) float64 {
	start := time.Now()
	for i := 0; i < calls; i++ {
		path, query, _ := strings.Cut(requestPath(ids, i), "?")
		if _, err := fleet.ParseRequest(http.MethodGet, path, query); err != nil {
			return 0
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

func (e *env) habitatConfigs() []fleet.HabitatConfig {
	var out []fleet.HabitatConfig
	for h := 0; h < e.size.Habitats; h++ {
		out = append(out, fleet.HabitatConfig{
			ID:   fmt.Sprintf("hab-%02d", h),
			Seed: derive(e.seed, 100+h),
			Days: e.size.HabitatDays,
			Tick: habitatTick,
		})
	}
	return out
}

// runFleetAPI: set-up builds the fleet and waits until every habitat has
// ingested its mission. Untraced, the open loop then runs at each rate in
// turn (the reference rate for three times as long), followed by a closed-loop
// capacity run; the end-to-end latencies are read at the reference rate.
func runFleetAPI(e *env) (*outcome, error) {
	o := &outcome{}
	var f *fleet.Fleet
	var ingest []float64
	setups := e.setups()
	release := func() {
		if f != nil {
			f.Close()
			f = nil
		}
	}
	defer release()
	setup, wallSetup, err := timeSetups(setups, release, func() error {
		start := time.Now()
		var err error
		f, err = fleet.New(fleet.Config{Habitats: e.habitatConfigs()})
		if err != nil {
			return err
		}
		if !f.WaitIdle(2 * time.Minute) {
			return fmt.Errorf("fleet did not finish ingesting")
		}
		s := f.Summary()
		if s.Failed > 0 {
			return fmt.Errorf("%d habitats failed during ingest", s.Failed)
		}
		ingest = append(ingest, float64(s.Records)/time.Since(start).Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}

	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	c := newAPIClient(srv.URL, o, newGate(e.tamper))
	defer c.close()
	ids := f.IDs()
	// Warm-up: one round per habitat, which also records every report's
	// reference body.
	for i := 0; i < mixLen*len(ids); i++ {
		c.get(requestPath(ids, i))
	}

	// The reference rate gets three shares of the budget, every other rate
	// and the capacity run one each.
	shares := float64(len(e.size.Rates) + 3)
	share := time.Duration(float64(e.budget) / shares)
	// Server-side times per measured phase, read from the fleet's own
	// request histograms around it.
	type served struct {
		perRoute map[string]float64
		server   float64 // mean ms per request in the handler
		client   float64 // mean ms per request at the client
	}
	servedBy := make(map[*phase]served)
	var ref rateResult
	measureRef := func(ph *phase, budget time.Duration) error {
		before := serverTimes(f)
		ref = runRate(c, ids, e.size.RefRate, budget, ph)
		perRoute, server := serverDelta(before, serverTimes(f))
		servedBy[ph] = served{perRoute, server, mean(ref.Req)}
		return nil
	}

	if e.trace {
		o.add("setup_s", setup, "s")
		base, err := tracedPair(e, o, "fleet_api", measureRef)
		if err != nil {
			return nil, err
		}
		layers := fleetCounters(f)
		sv := servedBy[base]
		layers.ServerShare = sv.server / sv.client
		for _, r := range mixRoutes {
			o.add("fleet.server_ms."+r, sv.perRoute[r], "ms")
		}
		o.add("fleet.transport_ms", sv.client-sv.server, "ms")
		o.add("fleet.ingest_records_per_s", ingest[0], "1/s")
		o.add("fleet.parse_ns", parseNanos(ids, 100000), "ns")
		emitFleetLayers(o, layers)
		emitStages(o, nil, nil, quantile(base.Lat, 0.5), 0)
		emitSeg(o, segStats{}, 0)
		srv.Close()
		release()
		kinds, err := habitatKinds(e)
		if err != nil {
			return nil, err
		}
		emitRecordKinds(o, kinds)
		return o, nil
	}

	o.addN("setup_s", setup, "s", setups)
	o.addN("wall.setup_s", wallSetup, "s", setups)
	o.add("fleet.ingest_records_per_s", quantile(ingest, 0.5), "1/s")
	var refPhase *phase
	maxRate := 0.0
	for _, rate := range e.size.Rates {
		var r rateResult
		if rate == e.size.RefRate {
			refPhase = beginPhase()
			err := measureRef(refPhase, 3*share)
			refPhase.end()
			if err != nil {
				return nil, err
			}
			r = ref
		} else {
			r = runRate(c, ids, rate, share, &phase{})
		}
		tag := fmt.Sprintf("@%g", rate)
		o.addN("wall.refresh_p50_ms"+tag, quantile(r.Lat, 0.5), "ms", r.Rounds)
		o.addN("wall.refresh_p99_ms"+tag, quantile(r.Lat, 0.99), "ms", r.Rounds)
		o.addN("wall.request_p50_ms"+tag, quantile(r.Req, 0.5), "ms", len(r.Req))
		o.addN("wall.request_p99_ms"+tag, quantile(r.Req, 0.99), "ms", len(r.Req))
		o.addN("fleet.gen_late_p99_ms"+tag, quantile(r.Late, 0.99), "ms", r.Rounds)
		o.add("fleet.backlog"+tag, float64(r.Backlog), "count")
		if r.sustained() && rate > maxRate {
			maxRate = rate
		}
	}
	if refPhase == nil {
		return nil, fmt.Errorf("reference rate %g is not among the rates", e.size.RefRate)
	}
	addPhase(o, refPhase)
	o.addN("api_p99_ms", quantile(ref.Req, 0.99), "ms", len(ref.Req))
	o.add("api_max_rps", maxRate, "1/s")
	o.add("capacity_rps", capacity(c, ids, share), "1/s")
	addFailedFrac(o)
	return o, nil
}

// habitatKinds re-simulates each habitat's mission and counts its records
// per kind: the records the fleet ingested.
func habitatKinds(e *env) (map[record.Kind]int, error) {
	total := make(map[record.Kind]int)
	for _, hc := range e.habitatConfigs() {
		m, err := icares.Simulate(icares.Options{Seed: hc.Seed, Days: hc.Days, Tick: hc.Tick})
		if err != nil {
			return nil, err
		}
		for k, n := range kindCounts(m.Result().Dataset) {
			total[k] += n
		}
	}
	return total, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
