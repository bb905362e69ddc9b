package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"icares/internal/support"
	"icares/internal/telemetry"
)

// Config parameterizes a fleet.
type Config struct {
	// Habitats lists the fleet members. IDs must be unique and non-empty.
	Habitats []HabitatConfig
	// QueueDepth bounds each habitat's work queue (default 64). A full
	// queue refuses new queries with ErrBusy instead of stalling the
	// caller — the backpressure half of the isolation story.
	QueueDepth int
	// RequestTimeout is the default per-request deadline when the caller
	// supplies no deadline of its own (default 5 s).
	RequestTimeout time.Duration
	// Telemetry optionally receives the fleet-level metrics, labelled
	// per habitat (fleet_requests_total{habitat,endpoint}, queue/timeout/
	// panic counters). Nil creates a private registry.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	return c
}

// Status is a habitat's lifecycle state.
type Status int32

// Habitat lifecycle states.
const (
	// Ingesting: the worker is streaming the mission through the
	// offload path, interleaving queries between ingest steps.
	Ingesting Status = iota + 1
	// Serving: ingest is complete; the worker only answers queries.
	Serving
	// Failed: the habitat's ingest panicked; its state is quarantined
	// and queries are refused with ErrHabitatFailed. The rest of the
	// fleet is unaffected.
	Failed
	// Stopped: the fleet is shut down.
	Stopped
)

// String returns the lifecycle label.
func (s Status) String() string {
	switch s {
	case Ingesting:
		return "ingesting"
	case Serving:
		return "serving"
	case Failed:
		return "failed"
	case Stopped:
		return "stopped"
	default:
		return fmt.Sprintf("status(%d)", int32(s))
	}
}

// Sentinel errors mapped to HTTP statuses by the API layer.
var (
	// ErrUnknownHabitat reports a habitat ID not in the fleet.
	ErrUnknownHabitat = errors.New("fleet: unknown habitat")
	// ErrBusy reports a habitat whose bounded work queue is full.
	ErrBusy = errors.New("fleet: habitat queue full")
	// ErrDeadline reports a query abandoned at its deadline. The worker
	// may still execute the job later; the caller has moved on.
	ErrDeadline = errors.New("fleet: deadline exceeded")
	// ErrHabitatFailed reports a habitat quarantined after a panic.
	ErrHabitatFailed = errors.New("fleet: habitat failed")
	// ErrStopped reports a query against a closed fleet.
	ErrStopped = errors.New("fleet: stopped")
)

// job is one unit of work serialized onto a habitat's worker.
type job struct {
	name string
	fn   func(*engine) (any, error)
	done chan jobResult // buffered: the worker never blocks completing it
}

type jobResult struct {
	v   any
	err error
}

// runner owns one habitat: its engine, worker goroutine, and bounded
// queue. The atomic mirrors (records, alerts, status) let list/summary
// endpoints answer without touching the worker — a frozen habitat can
// always still be *described*.
type runner struct {
	id   string
	cfg  HabitatConfig
	eng  *engine
	jobs chan *job
	quit chan struct{}

	status  atomic.Int32
	records atomic.Int64
	alerts  atomic.Int64
	failure atomic.Value // string: panic message after Failed

	slo sloWindow

	cPanics   *telemetry.Counter
	cTimeouts *telemetry.Counter
	cRejected *telemetry.Counter
	gUp       *telemetry.Gauge
}

// Status returns the habitat's lifecycle state.
func (r *runner) Status() Status { return Status(r.status.Load()) }

// sloOutcome classifies one worker-bound request for the SLO window.
type sloOutcome int8

const (
	sloOK sloOutcome = iota
	sloRejected
	sloTimeout
)

// sloWindowSize is how many recent worker-bound requests the health
// derivation looks at. Small on purpose: health must flip within a few
// requests of a habitat wedging, not after a long tail drains.
const sloWindowSize = 16

// sloMinSamples is the minimum window population before the derivation
// trusts rates; below it a habitat reports healthy (no evidence yet).
const sloMinSamples = 4

// sloWindow is a rolling record of recent request outcomes, the evidence
// base for the derived health state. It has its own tiny mutex because
// outcomes are recorded on caller goroutines, never the worker.
type sloWindow struct {
	mu   sync.Mutex
	ring [sloWindowSize]sloOutcome
	n    int // total recorded (ring fills at sloWindowSize)
	pos  int
}

func (s *sloWindow) record(o sloOutcome) {
	s.mu.Lock()
	s.ring[s.pos] = o
	s.pos = (s.pos + 1) % sloWindowSize
	if s.n < sloWindowSize {
		s.n++
	}
	s.mu.Unlock()
}

// stats returns (window population, rejects, timeouts).
func (s *sloWindow) stats() (n, rejects, timeouts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.n; i++ {
		switch s.ring[i] {
		case sloRejected:
			rejects++
		case sloTimeout:
			timeouts++
		}
	}
	return s.n, rejects, timeouts
}

// Health is the derived per-habitat health verdict served by /healthz.
type Health string

// Health states, from best to worst.
const (
	// Healthy: lifecycle nominal and the SLO window shows no sustained
	// deadline misses or queue rejections.
	Healthy Health = "healthy"
	// Degraded: the habitat answers, but a quarter or more of recent
	// requests were rejected or timed out — backpressure is biting.
	Degraded Health = "degraded"
	// Wedged: the worker is not making progress — recent requests
	// mostly miss their deadlines (with rejections piling up behind).
	Wedged Health = "wedged"
	// Quarantined: the habitat's ingest panicked; its state is frozen
	// and queries are refused.
	Quarantined Health = "quarantined"
)

// health derives the habitat's state from its lifecycle and SLO window.
//
// Derivation rules (documented in DESIGN.md; tests pin them):
//
//	quarantined  lifecycle Failed (panic), regardless of the window
//	wedged       >= sloMinSamples samples, >= 2 deadline misses, and
//	             misses+rejects are at least half the window — the
//	             worker is stuck, not merely busy
//	degraded     >= sloMinSamples samples and misses+rejects are at
//	             least a quarter of the window
//	healthy      otherwise (including an empty window)
func (r *runner) health() Health {
	if Status(r.status.Load()) == Failed {
		return Quarantined
	}
	n, rejects, timeouts := r.slo.stats()
	if n >= sloMinSamples {
		bad := rejects + timeouts
		if timeouts >= 2 && bad*2 >= n {
			return Wedged
		}
		if bad*4 >= n {
			return Degraded
		}
	}
	return Healthy
}

// Fleet runs N isolated habitats and answers queries about them.
type Fleet struct {
	cfg     Config
	reg     *telemetry.Registry
	journal *telemetry.Journal // fleet-plane flight recorder
	runners []*runner          // sorted by ID
	byID    map[string]*runner

	reqSeq    atomic.Uint64 // request-ID source for the HTTP middleware
	closed    atomic.Bool
	httpStats map[string]*routeStats // per-route middleware metrics, by route name

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// routeStats caches one route's middleware metric handles. The registry
// lookup formats a label block per call, which is too expensive for the
// per-request path; routes are a closed set, so the handles are resolved
// once at construction (histograms) or on each status code's first
// appearance (counters).
type routeStats struct {
	reg  *telemetry.Registry
	name string
	hist *telemetry.Histogram

	mu       sync.RWMutex
	byStatus map[int]*telemetry.Counter
}

func newRouteStats(reg *telemetry.Registry, name string) *routeStats {
	return &routeStats{
		reg:      reg,
		name:     name,
		hist:     reg.Histogram("fleet_http_request_seconds", nil, telemetry.L("route", name)),
		byStatus: make(map[int]*telemetry.Counter),
	}
}

func (s *routeStats) counter(status int) *telemetry.Counter {
	s.mu.RLock()
	c := s.byStatus[status]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.byStatus[status]; c != nil {
		return c
	}
	c = s.reg.Counter("fleet_http_requests_total",
		telemetry.L("route", s.name),
		telemetry.L("status", strconv.Itoa(status)))
	s.byStatus[status] = c
	return c
}

// New builds every habitat (simulating the missions concurrently — they
// share nothing) and starts one worker per habitat. The fleet is
// serving queries when New returns; ingest proceeds in the background,
// interleaved with queries on each habitat's worker.
func New(cfg Config) (*Fleet, error) {
	f, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
	f.start()
	return f, nil
}

// newFleet builds the runners and engines without starting workers, so
// tests can instrument an engine before its worker owns it.
func newFleet(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Habitats) == 0 {
		return nil, errors.New("fleet: no habitats configured")
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	f := &Fleet{
		cfg:       cfg,
		reg:       reg,
		journal:   telemetry.NewJournal(0),
		byID:      make(map[string]*runner, len(cfg.Habitats)),
		httpStats: make(map[string]*routeStats),
	}
	for r := RouteHabitats; r <= RouteReadyz; r++ {
		f.httpStats[routeName(r)] = newRouteStats(reg, routeName(r))
	}
	f.httpStats["unroutable"] = newRouteStats(reg, "unroutable")

	for _, hc := range cfg.Habitats {
		if hc.ID == "" {
			return nil, errors.New("fleet: habitat with empty ID")
		}
		if _, dup := f.byID[hc.ID]; dup {
			return nil, fmt.Errorf("fleet: duplicate habitat ID %q", hc.ID)
		}
		r := &runner{
			id:   hc.ID,
			cfg:  hc.withDefaults(),
			jobs: make(chan *job, cfg.QueueDepth),
			quit: make(chan struct{}),
		}
		hab := telemetry.L("habitat", hc.ID)
		r.cPanics = reg.Counter("fleet_panics_total", hab)
		r.cTimeouts = reg.Counter("fleet_timeouts_total", hab)
		r.cRejected = reg.Counter("fleet_queue_rejected_total", hab)
		r.gUp = reg.Gauge("fleet_habitat_up", hab)
		f.byID[hc.ID] = r
		f.runners = append(f.runners, r)
	}
	sort.Slice(f.runners, func(i, j int) bool { return f.runners[i].id < f.runners[j].id })

	// Simulate all missions concurrently; engines are independent.
	errs := make([]error, len(f.runners))
	var build sync.WaitGroup
	for i, r := range f.runners {
		build.Add(1)
		go func(i int, r *runner) {
			defer build.Done()
			r.eng, errs[i] = newEngine(r.id, r.cfg)
		}(i, r)
	}
	build.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return f, nil
}

// start hands each engine to its worker goroutine.
func (f *Fleet) start() {
	for _, r := range f.runners {
		r.eng.daemon.OnAlert(func(support.Alert) { r.alerts.Add(1) })
		r.status.Store(int32(Ingesting))
		r.gUp.Set(1)
		f.wg.Add(1)
		go func(r *runner) {
			defer f.wg.Done()
			r.loop()
		}(r)
	}
}

// loop is the habitat's worker: queries drain with priority; ingest
// steps fill the gaps until the mission is fully offloaded.
func (r *runner) loop() {
	for {
		if Status(r.status.Load()) == Ingesting {
			select {
			case <-r.quit:
				r.stop()
				return
			case j := <-r.jobs:
				r.exec(j)
			default:
				r.ingest()
			}
			continue
		}
		select {
		case <-r.quit:
			r.stop()
			return
		case j := <-r.jobs:
			r.exec(j)
		}
	}
}

func (r *runner) stop() {
	if Status(r.status.Load()) != Failed {
		r.status.Store(int32(Stopped))
	}
	r.gUp.Set(0)
}

// ingest runs one contained engine step. A panic here — a fault plan or
// scenario driving the habitat's own pipeline into a corner — poisons
// only this habitat: state is quarantined, the worker keeps draining
// its queue with ErrHabitatFailed, and the fleet stays up.
func (r *runner) ingest() {
	defer func() {
		if p := recover(); p != nil {
			r.failure.Store(fmt.Sprint(p))
			r.status.Store(int32(Failed))
			r.gUp.Set(0)
			r.cPanics.Inc()
			// The quarantine event goes in the habitat's own black box:
			// the journal is the part of a failed habitat that stays
			// readable, and the cause belongs next to the events that
			// led up to it.
			r.eng.journal.Emit(r.eng.now, telemetry.SevError, "fleet", "quarantine",
				"habitat ingest panicked; state quarantined",
				telemetry.F("cause", fmt.Sprint(p)),
				telemetry.Fi("step", r.eng.steps))
		}
	}()
	n := r.eng.step()
	if n > 0 {
		r.records.Add(int64(n))
	}
	if r.eng.done {
		r.status.Store(int32(Serving))
	}
}

// exec runs one query job with panic containment: a pathological query
// fails itself, not the habitat.
func (r *runner) exec(j *job) {
	if Status(r.status.Load()) == Failed {
		j.done <- jobResult{err: fmt.Errorf("%w: %s", ErrHabitatFailed, r.failureMessage())}
		return
	}
	var res jobResult
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.cPanics.Inc()
				res = jobResult{err: fmt.Errorf("fleet: query %s panicked: %v", j.name, p)}
			}
		}()
		res.v, res.err = j.fn(r.eng)
	}()
	j.done <- res
}

func (r *runner) failureMessage() string {
	if s, ok := r.failure.Load().(string); ok {
		return s
	}
	return "unknown"
}

// do submits fn to the habitat's worker and waits for the result or the
// context deadline. A full queue returns ErrBusy immediately; a missed
// deadline returns ErrDeadline and abandons the job (the buffered done
// channel lets the worker complete it later without blocking).
func (r *runner) do(ctx context.Context, name string, fn func(*engine) (any, error)) (any, error) {
	switch Status(r.status.Load()) {
	case Failed:
		return nil, fmt.Errorf("%w: %s", ErrHabitatFailed, r.failureMessage())
	case Stopped:
		return nil, ErrStopped
	}
	j := &job{name: name, fn: fn, done: make(chan jobResult, 1)}
	select {
	case r.jobs <- j:
	default:
		r.cRejected.Inc()
		r.slo.record(sloRejected)
		return nil, ErrBusy
	}
	select {
	case res := <-j.done:
		r.slo.record(sloOK)
		return res.v, res.err
	case <-ctx.Done():
		r.cTimeouts.Inc()
		r.slo.record(sloTimeout)
		return nil, ErrDeadline
	case <-r.quit:
		return nil, ErrStopped
	}
}

// Close stops every worker and waits for them to exit. Queries after
// Close fail with ErrStopped.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() {
		f.closed.Store(true)
		for _, r := range f.runners {
			close(r.quit)
		}
	})
	f.wg.Wait()
	for _, r := range f.runners {
		r.eng.analytics.Close()
	}
}

// Telemetry returns the fleet-level registry (per-habitat labels).
func (f *Fleet) Telemetry() *telemetry.Registry { return f.reg }

// IDs returns the habitat IDs in sorted order.
func (f *Fleet) IDs() []string {
	out := make([]string, len(f.runners))
	for i, r := range f.runners {
		out[i] = r.id
	}
	return out
}

// WaitIdle blocks until every habitat has finished ingesting (or failed,
// or the timeout elapses), returning true if the whole fleet settled.
// Test and benchmark helper: queries need no quiesced fleet, but
// byte-parity checks do.
func (f *Fleet) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		settled := true
		for _, r := range f.runners {
			if s := r.Status(); s == Ingesting {
				settled = false
				break
			}
		}
		if settled {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// HabitatInfo is one habitat's descriptive row, served from atomics so
// it is always available — even while the habitat's worker is wedged.
type HabitatInfo struct {
	ID      string `json:"id"`
	Seed    uint64 `json:"seed"`
	Days    int    `json:"days"`
	Status  string `json:"status"`
	Chaos   bool   `json:"chaos"`
	Records int64  `json:"records"`
	Alerts  int64  `json:"alerts"`
}

// Habitats describes every habitat (sorted by ID).
func (f *Fleet) Habitats() []HabitatInfo {
	out := make([]HabitatInfo, 0, len(f.runners))
	for _, r := range f.runners {
		out = append(out, HabitatInfo{
			ID:      r.id,
			Seed:    r.cfg.Seed,
			Days:    r.cfg.Days,
			Status:  r.Status().String(),
			Chaos:   r.cfg.Faults != nil,
			Records: r.records.Load(),
			Alerts:  r.alerts.Load(),
		})
	}
	return out
}

// Summary is the cross-fleet aggregate view.
type Summary struct {
	Habitats  int   `json:"habitats"`
	Ingesting int   `json:"ingesting"`
	Serving   int   `json:"serving"`
	Failed    int   `json:"failed"`
	Records   int64 `json:"records"`
	Alerts    int64 `json:"alerts"`
}

// Summary aggregates fleet state from the runners' atomic mirrors: it
// never touches a worker, so it answers even with habitats wedged.
func (f *Fleet) Summary() Summary {
	var s Summary
	s.Habitats = len(f.runners)
	for _, r := range f.runners {
		switch r.Status() {
		case Ingesting:
			s.Ingesting++
		case Serving:
			s.Serving++
		case Failed:
			s.Failed++
		}
		s.Records += r.records.Load()
		s.Alerts += r.alerts.Load()
	}
	return s
}

// runnerFor resolves a habitat ID.
func (f *Fleet) runnerFor(id string) (*runner, error) {
	r, ok := f.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHabitat, id)
	}
	return r, nil
}

// Report renders the habitat's live sociometric report on its worker.
func (f *Fleet) Report(ctx context.Context, id string) (string, error) {
	r, err := f.runnerFor(id)
	if err != nil {
		return "", err
	}
	v, err := r.do(ctx, "report", func(e *engine) (any, error) { return e.report(), nil })
	if err != nil {
		return "", err
	}
	s, _ := v.(string)
	return s, nil
}

// Alerts returns the habitat's alert log via its worker.
func (f *Fleet) Alerts(ctx context.Context, id string) ([]support.Alert, error) {
	r, err := f.runnerFor(id)
	if err != nil {
		return nil, err
	}
	v, err := r.do(ctx, "alerts", func(e *engine) (any, error) { return e.alerts(), nil })
	if err != nil {
		return nil, err
	}
	alerts, _ := v.([]support.Alert)
	return alerts, nil
}

// Snapshot answers the habitat's live analytics summary without going
// through the worker: the analytics pipeline supports queries racing
// ingestion, which is exactly what a fleet dashboard does.
func (f *Fleet) Snapshot(id string) (support.AnalyticsSnapshot, error) {
	r, err := f.runnerFor(id)
	if err != nil {
		return support.AnalyticsSnapshot{}, err
	}
	if Status(r.status.Load()) == Failed {
		return support.AnalyticsSnapshot{}, fmt.Errorf("%w: %s", ErrHabitatFailed, r.failureMessage())
	}
	return r.eng.snapshot(), nil
}

// HabitatTelemetry returns the habitat-local metrics registry.
func (f *Fleet) HabitatTelemetry(id string) (*telemetry.Registry, error) {
	r, err := f.runnerFor(id)
	if err != nil {
		return nil, err
	}
	return r.eng.reg, nil
}

// HabitatJournal returns the habitat's flight recorder. Deliberately NOT
// routed through the worker: the journal has its own lock, so the black box
// of a wedged or quarantined habitat stays readable — that is the point of a
// flight recorder.
func (f *Fleet) HabitatJournal(id string) (*telemetry.Journal, error) {
	r, err := f.runnerFor(id)
	if err != nil {
		return nil, err
	}
	return r.eng.journal, nil
}

// FleetEvents merges every habitat's flight recorder with the fleet-plane
// journal into one timeline ordered by mission time (then habitat, then
// sequence). The limit applies after the merge, keeping the newest events.
func (f *Fleet) FleetEvents(q telemetry.EventQuery) []telemetry.Event {
	limit := q.Limit
	q.Limit = 0 // limit applies to the merged timeline, not per journal
	slices := make([][]telemetry.Event, 0, len(f.runners)+1)
	for _, r := range f.runners {
		slices = append(slices, r.eng.journal.Select(q))
	}
	slices = append(slices, f.journal.Select(q))
	merged := telemetry.MergeEvents(slices...)
	if limit > 0 && len(merged) > limit {
		merged = merged[len(merged)-limit:]
	}
	return merged
}

// HabitatHealth is one habitat's row in the /healthz verdict.
type HabitatHealth struct {
	ID        string `json:"id"`
	Health    Health `json:"health"`
	Lifecycle string `json:"lifecycle"`
	// Window statistics behind the verdict: recent worker-bound requests
	// and how many were rejected at the queue or missed their deadline.
	WindowRequests int `json:"window_requests"`
	WindowRejected int `json:"window_rejected"`
	WindowTimeouts int `json:"window_timeouts"`
}

// HealthReport reports every habitat's derived health (sorted by ID).
func (f *Fleet) HealthReport() []HabitatHealth {
	out := make([]HabitatHealth, 0, len(f.runners))
	for _, r := range f.runners {
		n, rejects, timeouts := r.slo.stats()
		out = append(out, HabitatHealth{
			ID:             r.id,
			Health:         r.health(),
			Lifecycle:      r.Status().String(),
			WindowRequests: n,
			WindowRejected: rejects,
			WindowTimeouts: timeouts,
		})
	}
	return out
}

// Ready reports whether the fleet accepts queries (false after Close).
func (f *Fleet) Ready() bool { return !f.closed.Load() }

// FleetAlert is one alert tagged with its habitat.
type FleetAlert struct {
	Habitat string
	support.Alert
}

// FleetAlerts fans the alert query out to every habitat with a shared
// deadline and merges the results by time. Habitats that cannot answer
// in time (wedged, failed, queue-full) are reported in stalled rather
// than blocking the aggregate — the isolation contract at the API
// surface.
func (f *Fleet) FleetAlerts(ctx context.Context) (merged []FleetAlert, stalled []string) {
	type res struct {
		id     string
		alerts []support.Alert
		err    error
	}
	out := make(chan res, len(f.runners))
	for _, r := range f.runners {
		go func(r *runner) {
			v, err := r.do(ctx, "fleet-alerts", func(e *engine) (any, error) { return e.alerts(), nil })
			alerts, _ := v.([]support.Alert)
			out <- res{id: r.id, alerts: alerts, err: err}
		}(r)
	}
	for range f.runners {
		r := <-out
		if r.err != nil {
			stalled = append(stalled, r.id)
			continue
		}
		for _, a := range r.alerts {
			merged = append(merged, FleetAlert{Habitat: r.id, Alert: a})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].At != merged[j].At {
			return merged[i].At < merged[j].At
		}
		return merged[i].Habitat < merged[j].Habitat
	})
	sort.Strings(stalled)
	return merged, stalled
}
