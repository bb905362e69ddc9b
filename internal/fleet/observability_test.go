package fleet

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"icares/internal/faultplan"
	"icares/internal/mission"
	"icares/internal/store"
	"icares/internal/telemetry"
)

// eventsBody is the JSON shape of /habitats/{id}/events.
type eventsBody struct {
	Habitat string      `json:"habitat"`
	Total   int         `json:"total"`
	Dropped uint64      `json:"dropped"`
	Events  []eventJSON `json:"events"`
}

// fleetEventsBody is the JSON shape of /fleet/events.
type fleetEventsBody struct {
	Total  int         `json:"total"`
	Events []eventJSON `json:"events"`
}

// healthzBody is the JSON shape of /healthz.
type healthzBody struct {
	Fleet    string          `json:"fleet"`
	Habitats []HabitatHealth `json:"habitats"`
}

// getResp fetches a path and returns the full response plus body (the
// plain get helper discards headers, which the request-ID tests need).
func getResp(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestEventsEndpoint pins the per-habitat flight-recorder surface: the
// ingest lifecycle lands in the journal, the query filters compose, and
// the limit keeps the newest events.
func TestEventsEndpoint(t *testing.T) {
	srv := fixtureServer(t)
	status, ct, body := get(t, srv, "/habitats/hab-00/events")
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var out eventsBody
	decode(t, body, &out)
	if out.Habitat != "hab-00" {
		t.Errorf("habitat = %q", out.Habitat)
	}
	if out.Total != len(out.Events) || out.Total == 0 {
		t.Fatalf("total = %d with %d events", out.Total, len(out.Events))
	}
	kinds := map[string]int{}
	for i, e := range out.Events {
		kinds[e.Kind]++
		if e.Habitat != "hab-00" {
			t.Errorf("event %d carries habitat %q", i, e.Habitat)
		}
		if i > 0 && e.Seq <= out.Events[i-1].Seq {
			t.Fatal("events not in sequence order")
		}
	}
	if kinds["ingest-start"] != 1 || kinds["ingest-complete"] != 1 {
		t.Errorf("ingest lifecycle events = %v, want one start and one complete", kinds)
	}

	// severity filter: warning and above only.
	_, body = getResp(t, srv, "/habitats/hab-00/events?severity=warning")
	var warn eventsBody
	decode(t, body, &warn)
	for _, e := range warn.Events {
		if e.Severity != "warning" && e.Severity != "error" {
			t.Errorf("severity=warning leaked a %q event", e.Severity)
		}
	}

	// kind filter isolates the one completion event.
	_, body = getResp(t, srv, "/habitats/hab-00/events?kind=ingest-complete")
	var comp eventsBody
	decode(t, body, &comp)
	if comp.Total != 1 || len(comp.Events) != 1 || comp.Events[0].Kind != "ingest-complete" {
		t.Errorf("kind filter = %+v, want exactly the completion event", comp)
	}

	// limit keeps the newest: total reports the pre-limit count.
	_, body = getResp(t, srv, "/habitats/hab-00/events?limit=1")
	var lim eventsBody
	decode(t, body, &lim)
	if len(lim.Events) != 1 || lim.Total != out.Total {
		t.Fatalf("limit=1 gave %d events, total %d (want 1, %d)", len(lim.Events), lim.Total, out.Total)
	}
	if lim.Events[0].Seq != out.Events[len(out.Events)-1].Seq {
		t.Error("limit=1 did not keep the newest event")
	}

	if status, _, _ := get(t, srv, "/habitats/hab-99/events"); status != http.StatusNotFound {
		t.Errorf("unknown habitat events = %d, want 404", status)
	}
}

// TestFleetEventsEndpoint pins the merged timeline: every habitat
// appears, mission-time order holds across journals, and the severity
// filter applies to the merge.
func TestFleetEventsEndpoint(t *testing.T) {
	srv := fixtureServer(t)
	status, _, body := get(t, srv, "/fleet/events")
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	var out fleetEventsBody
	decode(t, body, &out)
	if out.Total == 0 {
		t.Fatal("fleet events empty after two full ingests")
	}
	seen := map[string]bool{}
	for i, e := range out.Events {
		seen[e.Habitat] = true
		if i > 0 && e.AtSec < out.Events[i-1].AtSec {
			t.Fatal("merged events not ordered by mission time")
		}
	}
	if !seen["hab-00"] || !seen["hab-01"] {
		t.Errorf("merged events cover %v, want both habitats", seen)
	}

	_, body = getResp(t, srv, "/fleet/events?severity=error")
	var errs fleetEventsBody
	decode(t, body, &errs)
	for _, e := range errs.Events {
		if e.Severity != "error" {
			t.Errorf("severity=error leaked a %q event", e.Severity)
		}
	}
	if errs.Total > out.Total {
		t.Errorf("filtered total %d exceeds unfiltered %d", errs.Total, out.Total)
	}
}

// TestHealthEndpointsHealthyFleet pins the happy path: a settled fleet
// reports every habitat healthy and ready.
func TestHealthEndpointsHealthyFleet(t *testing.T) {
	srv := fixtureServer(t)
	status, _, body := get(t, srv, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", status)
	}
	var out healthzBody
	decode(t, body, &out)
	if out.Fleet != "ok" || len(out.Habitats) != 2 {
		t.Fatalf("healthz = %+v", out)
	}
	for _, h := range out.Habitats {
		if h.Health != Healthy {
			t.Errorf("%s health = %q, want healthy", h.ID, h.Health)
		}
		if h.Lifecycle != "serving" {
			t.Errorf("%s lifecycle = %q", h.ID, h.Lifecycle)
		}
	}

	status, _, body = get(t, srv, "/readyz")
	if status != http.StatusOK || !strings.Contains(string(body), `"ready": true`) {
		t.Errorf("readyz = %d %s, want ready 200", status, body)
	}
}

// TestRequestIDAndMiddlewareMetrics pins the instrumentation middleware
// on the happy path: every response carries a unique X-Fleet-Request ID,
// and requests land in the per-route/status counters and latency
// histograms.
func TestRequestIDAndMiddlewareMetrics(t *testing.T) {
	srv := fixtureServer(t)
	r1, _ := getResp(t, srv, "/habitats")
	r2, _ := getResp(t, srv, "/habitats")
	id1, id2 := r1.Header.Get("X-Fleet-Request"), r2.Header.Get("X-Fleet-Request")
	if id1 == "" || id2 == "" || id1 == id2 {
		t.Fatalf("request IDs = %q, %q — want distinct non-empty", id1, id2)
	}
	if !strings.HasPrefix(id1, "f-") {
		t.Errorf("request ID %q not in f-N form", id1)
	}

	expo := fix.Telemetry().String()
	for _, want := range []string{
		`fleet_http_requests_total{route="habitats",status="200"}`,
		`fleet_http_request_seconds_count{route="habitats"}`,
		`# TYPE fleet_http_requests_total counter`,
		`# TYPE fleet_http_request_seconds histogram`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("fleet telemetry missing %s", want)
		}
	}

	// Unroutable requests are counted too — the middleware wraps parsing.
	if status, _, _ := get(t, srv, "/nope"); status != http.StatusNotFound {
		t.Fatal("expected 404 probe")
	}
	if !strings.Contains(fix.Telemetry().String(),
		`fleet_http_requests_total{route="unroutable",status="404"}`) {
		t.Error("unroutable request not counted")
	}
}

// TestErrorPathInstrumentation is the PR's error-path acceptance battery:
// 503 (queue full), 504 (deadline), and 500 (quarantined habitat) each
// increment the right per-status counter, and each 5xx lands a fleet
// journal event carrying the request ID the client saw in its
// X-Fleet-Request header.
func TestErrorPathInstrumentation(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet fixture in -short mode")
	}
	f, err := newFleet(Config{
		RequestTimeout: 200 * time.Millisecond,
		QueueDepth:     2,
		Habitats: []HabitatConfig{
			{ID: "doomed", Seed: 75, Days: 2, Tick: coarseTick},
			{ID: "frozen", Seed: 76, Days: 2, Tick: coarseTick},
			{ID: "steady", Seed: 77, Days: 2, Tick: coarseTick},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.byID["doomed"].eng.stepHook = func(step int) {
		if step == 50 {
			panic("injected observability-path failure")
		}
	}
	f.start()
	defer f.Close()
	if !f.WaitIdle(2 * time.Minute) {
		t.Fatal("fleet never settled")
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	// 500: the quarantined habitat refuses with the cause.
	resp, _ := getResp(t, srv, "/habitats/doomed/report")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("quarantined report = %d, want 500", resp.StatusCode)
	}
	rid500 := resp.Header.Get("X-Fleet-Request")

	// 504 then 503: the frozen habitat's depth-2 queue absorbs two
	// deadline-missed requests, then refuses outright.
	release := freeze(t, f.byID["frozen"])
	defer release()
	var got504, got503 int
	var rid504, rid503 string
	for i := 0; i < 5; i++ {
		resp, _ := getResp(t, srv, "/habitats/frozen/alerts")
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			got504++
			rid504 = resp.Header.Get("X-Fleet-Request")
		case http.StatusServiceUnavailable:
			got503++
			rid503 = resp.Header.Get("X-Fleet-Request")
		default:
			t.Fatalf("frozen habitat query %d = %d, want 503/504", i, resp.StatusCode)
		}
	}
	if got504 != 2 || got503 != 3 {
		t.Fatalf("frozen habitat gave %d×504 and %d×503, want 2 and 3", got504, got503)
	}

	// Each error increments its own per-status counter.
	expo := f.Telemetry().String()
	for _, want := range []string{
		`fleet_http_requests_total{route="report",status="500"} 1`,
		`fleet_http_requests_total{route="alerts",status="504"} 2`,
		`fleet_http_requests_total{route="alerts",status="503"} 3`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("telemetry missing %s\n%s", want, expo)
		}
	}

	// Each 5xx landed a fleet-journal http-error event with the request
	// ID the client saw.
	events := f.journal.Select(telemetry.EventQuery{Kind: "http-error"})
	byRID := map[string]telemetry.Event{}
	for _, e := range events {
		for _, fd := range e.Fields {
			if fd.Key == "request_id" {
				byRID[fd.Value] = e
			}
		}
	}
	for _, tc := range []struct {
		rid, status, route string
	}{
		{rid500, "500", "report"},
		{rid504, "504", "alerts"},
		{rid503, "503", "alerts"},
	} {
		e, ok := byRID[tc.rid]
		if !ok {
			t.Errorf("no http-error journal event for request %s", tc.rid)
			continue
		}
		fields := map[string]string{}
		for _, fd := range e.Fields {
			fields[fd.Key] = fd.Value
		}
		if fields["status"] != tc.status || fields["route"] != tc.route {
			t.Errorf("event for %s = status %s route %s, want %s %s",
				tc.rid, fields["status"], fields["route"], tc.status, tc.route)
		}
	}

	// Health derivation: the panicked habitat is quarantined, the frozen
	// one wedged (2 deadline misses + 3 rejections in a 5-sample window),
	// and the untouched one stays healthy — so /healthz is still 200.
	status, _, body := get(t, srv, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz = %d with one healthy habitat, want 200", status)
	}
	var hz healthzBody
	decode(t, body, &hz)
	want := map[string]Health{"doomed": Quarantined, "frozen": Wedged, "steady": Healthy}
	for _, h := range hz.Habitats {
		if h.Health != want[h.ID] {
			t.Errorf("%s health = %q, want %q (window %d/%d/%d)",
				h.ID, h.Health, want[h.ID], h.WindowRequests, h.WindowRejected, h.WindowTimeouts)
		}
	}

	// The quarantined habitat's black box stays readable — lock-free, no
	// worker involved — and carries the quarantine event with its cause.
	status, _, body = get(t, srv, "/habitats/doomed/events?kind=quarantine")
	if status != http.StatusOK {
		t.Fatalf("quarantined habitat events = %d, want 200 (journal must outlive the worker)", status)
	}
	var q eventsBody
	decode(t, body, &q)
	if len(q.Events) != 1 || q.Events[0].Fields["cause"] == "" {
		t.Fatalf("quarantine event = %+v, want one event with a cause", q.Events)
	}
	if !strings.Contains(q.Events[0].Fields["cause"], "injected") {
		t.Errorf("quarantine cause = %q", q.Events[0].Fields["cause"])
	}
}

// TestReadyzAfterClose pins shutdown visibility: readiness flips to 503
// once the fleet is closed, while liveness-style description endpoints
// keep answering from atomics.
func TestReadyzAfterClose(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet fixture in -short mode")
	}
	f, err := New(Config{Habitats: []HabitatConfig{{ID: "solo", Seed: 81, Days: 2, Tick: coarseTick}}})
	if err != nil {
		t.Fatal(err)
	}
	f.WaitIdle(2 * time.Minute)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	if status, _, _ := get(t, srv, "/readyz"); status != http.StatusOK {
		t.Fatalf("readyz before close = %d", status)
	}
	f.Close()
	status, _, body := get(t, srv, "/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), `"ready": false`) {
		t.Errorf("readyz after close = %d %s, want 503 not-ready", status, body)
	}
	if status, _, _ := get(t, srv, "/habitats"); status != http.StatusOK {
		t.Error("roster stopped answering after close")
	}
}

// TestChaosEventsEndToEnd is the acceptance scenario: a habitat under a
// seeded fault plan records every injected fault — gateway crash, uplink
// blackout, badge death — as journal events in order, timestamped inside
// their plan windows on the habitat's own mission clock, and the merged
// /fleet/events timeline carries them while the calm habitat's journal
// stays free of them.
func TestChaosEventsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet fixture in -short mode")
	}
	const hour = time.Hour
	windows := map[string][2]time.Duration{
		"gateway-crash":   {34 * hour, 35 * hour}, // day 1, 10:00–11:00
		"uplink-blackout": {36 * hour, 37 * hour}, // day 1, 12:00–13:00
		"badge-death":     {38 * hour, 39 * hour}, // day 1, 14:00–15:00
	}
	plan := faultplan.New(1,
		faultplan.Event{Kind: faultplan.GatewayCrash, From: windows["gateway-crash"][0], To: windows["gateway-crash"][1]},
		faultplan.Event{Kind: faultplan.UplinkBlackout, From: windows["uplink-blackout"][0], To: windows["uplink-blackout"][1]},
		faultplan.Event{Kind: faultplan.BadgeDeath, From: windows["badge-death"][0], To: windows["badge-death"][1], Badge: store.BadgeID(mission.BadgeA)},
	)
	f, err := New(Config{Habitats: []HabitatConfig{
		{ID: "calm", Seed: 90, Days: 2, Tick: coarseTick},
		{ID: "chaos", Seed: 91, Days: 2, Tick: coarseTick, Faults: plan},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.WaitIdle(2 * time.Minute) {
		t.Fatal("fleet never settled")
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	status, _, body := get(t, srv, "/fleet/events")
	if status != http.StatusOK {
		t.Fatalf("fleet events = %d", status)
	}
	var merged fleetEventsBody
	decode(t, body, &merged)

	// The three injected faults appear in injection order with sim-clock
	// timestamps inside their plan windows. noteFaults samples at ingest
	// steps (1 min), so "inside" allows one step of detection lag.
	order := []string{"gateway-crash", "uplink-blackout", "badge-death"}
	pos := -1
	found := map[string]eventJSON{}
	for i, e := range merged.Events {
		if w, chaosKind := windows[e.Kind]; chaosKind {
			if e.Habitat != "chaos" {
				t.Fatalf("fault event %q attributed to habitat %q", e.Kind, e.Habitat)
			}
			if _, dup := found[e.Kind]; dup {
				t.Fatalf("fault %q journaled twice", e.Kind)
			}
			found[e.Kind] = e
			if i <= pos {
				t.Fatalf("fault %q out of order in merged timeline", e.Kind)
			}
			pos = i
			lo, hi := int64(w[0]/time.Second), int64((w[1]+ingestStep)/time.Second)
			if e.AtSec < lo || e.AtSec > hi {
				t.Errorf("%s at %ds, want within [%d, %d]", e.Kind, e.AtSec, lo, hi)
			}
		}
	}
	for _, kind := range order {
		if _, ok := found[kind]; !ok {
			t.Errorf("injected fault %q missing from /fleet/events", kind)
		}
	}

	// Every fault window also closes: restores/reboots are journaled.
	_, _, body = get(t, srv, "/habitats/chaos/events")
	var chaos eventsBody
	decode(t, body, &chaos)
	kinds := map[string]int{}
	for _, e := range chaos.Events {
		kinds[e.Kind]++
	}
	for _, kind := range []string{"gateway-restore", "uplink-restore", "badge-reboot"} {
		if kinds[kind] == 0 {
			t.Errorf("chaos journal missing %q", kind)
		}
	}

	// Fault isolation extends to the flight recorders: the calm habitat
	// journaled none of the chaos habitat's faults.
	_, _, body = get(t, srv, "/habitats/calm/events")
	var calm eventsBody
	decode(t, body, &calm)
	for _, e := range calm.Events {
		if _, bad := windows[e.Kind]; bad {
			t.Errorf("calm habitat journaled %q from its neighbour's fault plan", e.Kind)
		}
	}

	// Chaos or not, both habitats derive healthy: injected faults are
	// mission events, not serving-path failures.
	status, _, body = get(t, srv, "/healthz")
	var hz healthzBody
	decode(t, body, &hz)
	if status != http.StatusOK {
		t.Fatalf("healthz = %d", status)
	}
	for _, h := range hz.Habitats {
		if h.Health != Healthy {
			t.Errorf("%s health = %q after clean ingest", h.ID, h.Health)
		}
	}
}
