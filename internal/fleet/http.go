package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"icares/internal/simtime"
	"icares/internal/support"
	"icares/internal/telemetry"
)

// Handler returns the fleet's HTTP API:
//
//	GET /habitats                    fleet roster with per-habitat status
//	GET /habitats/{id}/report        live sociometric report (markdown)
//	GET /habitats/{id}/alerts        alert log (?kind=&limit=&days=A-B)
//	GET /habitats/{id}/snapshot      live analytics summary (lock-free)
//	GET /habitats/{id}/telemetry     habitat-local metrics exposition
//	GET /habitats/{id}/events        flight-recorder events (?severity=&kind=&limit=)
//	GET /fleet/summary               cross-fleet aggregates
//	GET /fleet/alerts                merged alert log (?limit=), with
//	                                 wedged habitats listed, not awaited
//	GET /fleet/telemetry             fleet-level metrics (per-habitat labels)
//	GET /fleet/events                merged flight recorders (?severity=&limit=)
//	GET /healthz                     derived per-habitat health verdicts
//	GET /readyz                      fleet readiness (503 after Close)
//
// Every request carries a deadline (the fleet's RequestTimeout unless
// the caller's context is tighter); worker-bound queries refused by a
// full habitat queue return 503 and ones missing their deadline 504 —
// one slow habitat degrades its own endpoints only.
//
// The handler is wrapped in instrumentation middleware: every response
// carries an X-Fleet-Request ID, lands in per-route/status counters and
// latency histograms, and 5xx or slow requests become fleet-journal
// events carrying that ID — so a dashboard 504 can be joined against the
// habitat black box that caused it.
func (f *Fleet) Handler() http.Handler {
	return http.HandlerFunc(f.serve)
}

// statusWriter captures the response status code for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Status returns the response code sent (200 if the handler never set one
// explicitly before writing, 0 if nothing was written).
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// serve is the instrumented entry point: request ID, status capture,
// latency accounting, and journal events around the bare dispatch.
func (f *Fleet) serve(w http.ResponseWriter, r *http.Request) {
	rid := "f-" + strconv.FormatUint(f.reqSeq.Add(1), 10)
	w.Header().Set("X-Fleet-Request", rid)
	sw := &statusWriter{ResponseWriter: w}
	started := time.Now()

	req, aerr := ParseRequest(r.Method, r.URL.Path, r.URL.RawQuery)
	f.dispatch(sw, r, req, aerr)

	elapsed := time.Since(started)
	route := "unroutable"
	if aerr == nil {
		route = routeName(req.Route)
	}
	status := sw.Status()
	st := f.httpStats[route]
	st.counter(status).Inc()
	st.hist.Observe(elapsed.Seconds())

	if status >= http.StatusInternalServerError {
		f.journal.Emit(f.simNow(req.Habitat), telemetry.SevError, "fleet", "http-error",
			"request failed server-side",
			telemetry.F("request_id", rid),
			telemetry.F("route", route),
			telemetry.Fi("status", status),
			telemetry.F("habitat", orFleet(req.Habitat)))
	} else if slow := f.cfg.RequestTimeout / 2; elapsed > slow {
		f.journal.Emit(f.simNow(req.Habitat), telemetry.SevWarn, "fleet", "slow-request",
			"request exceeded half its deadline budget",
			telemetry.F("request_id", rid),
			telemetry.F("route", route),
			telemetry.F("elapsed", elapsed.String()),
			telemetry.F("habitat", orFleet(req.Habitat)))
	}
}

// simNow maps a fleet-plane event onto a mission clock: the habitat's own
// clock when the request is habitat-scoped, zero otherwise (the fleet
// plane has no clock domain of its own).
func (f *Fleet) simNow(habitat string) time.Duration {
	if r, ok := f.byID[habitat]; ok {
		return time.Duration(r.eng.gClock.Value() * float64(time.Second))
	}
	return 0
}

// alertJSON is the wire form of one alert.
type alertJSON struct {
	Habitat  string `json:"habitat,omitempty"`
	Day      int    `json:"day"`
	Clock    string `json:"clock"`
	AtSec    int64  `json:"at_seconds"`
	Severity string `json:"severity"`
	Kind     string `json:"kind"`
	Subject  string `json:"subject,omitempty"`
	Message  string `json:"message"`
}

func toAlertJSON(habitat string, a support.Alert) alertJSON {
	return alertJSON{
		Habitat:  habitat,
		Day:      simtime.DayOf(a.At),
		Clock:    simtime.ClockString(a.At),
		AtSec:    int64(a.At / time.Second),
		Severity: a.Severity.String(),
		Kind:     a.Kind,
		Subject:  a.Subject,
		Message:  a.Message,
	}
}

// eventJSON is the wire form of one flight-recorder event.
type eventJSON struct {
	Seq       uint64            `json:"seq"`
	Day       int               `json:"day"`
	Clock     string            `json:"clock"`
	AtSec     int64             `json:"at_seconds"`
	Severity  string            `json:"severity"`
	Component string            `json:"component"`
	Habitat   string            `json:"habitat,omitempty"`
	Kind      string            `json:"kind"`
	Message   string            `json:"message"`
	Fields    map[string]string `json:"fields,omitempty"`
}

func toEventJSON(e telemetry.Event) eventJSON {
	out := eventJSON{
		Seq:       e.Seq,
		Day:       simtime.DayOf(e.At),
		Clock:     simtime.ClockString(e.At),
		AtSec:     int64(e.At / time.Second),
		Severity:  e.Severity.String(),
		Component: e.Component,
		Habitat:   e.Habitat,
		Kind:      e.Kind,
		Message:   e.Message,
	}
	if len(e.Fields) > 0 {
		// encoding/json sorts map keys, so the wire form stays
		// deterministic even though emission order is lost.
		out.Fields = make(map[string]string, len(e.Fields))
		for _, f := range e.Fields {
			out.Fields[f.Key] = f.Value
		}
	}
	return out
}

// dispatch answers one parsed request. It contains no instrumentation of
// its own — serve wraps it, and the bare-dispatch benchmark calls it
// directly to measure the middleware's cost.
func (f *Fleet) dispatch(w http.ResponseWriter, r *http.Request, req Request, aerr *APIError) {
	if aerr != nil {
		if aerr.Status == http.StatusMethodNotAllowed {
			w.Header().Set("Allow", "GET, HEAD")
		}
		writeError(w, aerr.Status, aerr.Message)
		return
	}

	ctx := r.Context()
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.cfg.RequestTimeout)
		defer cancel()
	}

	f.reg.Counter("fleet_requests_total",
		telemetry.L("habitat", orFleet(req.Habitat)),
		telemetry.L("route", routeName(req.Route))).Inc()

	switch req.Route {
	case RouteHabitats:
		writeJSON(w, http.StatusOK, map[string]any{"habitats": f.Habitats()})

	case RouteFleetSummary:
		writeJSON(w, http.StatusOK, f.Summary())

	case RouteFleetTelemetry:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = f.reg.Write(w)

	case RouteFleetAlerts:
		merged, stalled := f.FleetAlerts(ctx)
		total := len(merged)
		if len(merged) > req.Limit {
			merged = merged[len(merged)-req.Limit:]
		}
		out := make([]alertJSON, 0, len(merged))
		for _, a := range merged {
			out = append(out, toAlertJSON(a.Habitat, a.Alert))
		}
		if stalled == nil {
			stalled = []string{}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"total": total, "alerts": out, "stalled": stalled,
		})

	case RouteFleetEvents:
		merged := f.FleetEvents(telemetry.EventQuery{
			MinSeverity: req.MinSeverity, Kind: req.Kind,
		})
		total := len(merged)
		if len(merged) > req.Limit {
			merged = merged[len(merged)-req.Limit:]
		}
		out := make([]eventJSON, 0, len(merged))
		for _, e := range merged {
			out = append(out, toEventJSON(e))
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"total": total, "events": out,
		})

	case RouteHealthz:
		report := f.HealthReport()
		up := 0
		for _, h := range report {
			if h.Health == Healthy || h.Health == Degraded {
				up++
			}
		}
		verdict, status := "ok", http.StatusOK
		if up == 0 {
			// Every habitat wedged or quarantined: the fleet as a whole
			// cannot serve worker-bound queries.
			verdict, status = "failing", http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{
			"fleet": verdict, "habitats": report,
		})

	case RouteReadyz:
		if !f.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false})
			return
		}
		s := f.Summary()
		writeJSON(w, http.StatusOK, map[string]any{
			"ready": true, "habitats": s.Habitats,
			"ingesting": s.Ingesting, "serving": s.Serving, "failed": s.Failed,
		})

	case RouteReport:
		report, err := f.Report(ctx, req.Habitat)
		if err != nil {
			writeFleetError(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, report)

	case RouteAlerts:
		alerts, err := f.Alerts(ctx, req.Habitat)
		if err != nil {
			writeFleetError(w, err)
			return
		}
		filtered := filterAlerts(alerts, req)
		total := len(filtered)
		if len(filtered) > req.Limit {
			filtered = filtered[len(filtered)-req.Limit:]
		}
		out := make([]alertJSON, 0, len(filtered))
		for _, a := range filtered {
			out = append(out, toAlertJSON("", a))
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"habitat": req.Habitat, "total": total, "alerts": out,
		})

	case RouteEvents:
		j, err := f.HabitatJournal(req.Habitat)
		if err != nil {
			writeFleetError(w, err)
			return
		}
		events := j.Select(telemetry.EventQuery{
			MinSeverity: req.MinSeverity, Kind: req.Kind,
		})
		total := len(events)
		if len(events) > req.Limit {
			events = events[len(events)-req.Limit:]
		}
		out := make([]eventJSON, 0, len(events))
		for _, e := range events {
			out = append(out, toEventJSON(e))
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"habitat": req.Habitat, "total": total,
			"dropped": j.Dropped(), "events": out,
		})

	case RouteSnapshot:
		snap, err := f.Snapshot(req.Habitat)
		if err != nil {
			writeFleetError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"habitat":          req.Habitat,
			"records":          snap.Records,
			"passages":         snap.Passages,
			"walking":          snap.Walking,
			"speech":           snap.Speech,
			"face_to_face_sec": int64(snap.FaceToFace / time.Second),
		})

	case RouteTelemetry:
		reg, err := f.HabitatTelemetry(req.Habitat)
		if err != nil {
			writeFleetError(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.Write(w)

	default:
		writeError(w, http.StatusNotFound, "unroutable request")
	}
}

func filterAlerts(alerts []support.Alert, req Request) []support.Alert {
	out := alerts[:0:0]
	for _, a := range alerts {
		if req.Kind != "" && a.Kind != req.Kind {
			continue
		}
		if req.HasDays {
			day := simtime.DayOf(a.At)
			if day < req.FromDay || day > req.ToDay {
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// writeFleetError maps the fleet's sentinel errors onto HTTP statuses:
// unknown habitat 404, full queue 503 (retryable backpressure), missed
// deadline 504, failed habitat or panicking query 500, stopped fleet 503.
func writeFleetError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownHabitat):
		status = http.StatusNotFound
	case errors.Is(err, ErrBusy), errors.Is(err, ErrStopped):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadline):
		status = http.StatusGatewayTimeout
	}
	writeError(w, status, err.Error())
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func orFleet(habitat string) string {
	if habitat == "" {
		return "_fleet"
	}
	return habitat
}

func routeName(r Route) string {
	switch r {
	case RouteHabitats:
		return "habitats"
	case RouteReport:
		return "report"
	case RouteAlerts:
		return "alerts"
	case RouteTelemetry:
		return "telemetry"
	case RouteSnapshot:
		return "snapshot"
	case RouteEvents:
		return "events"
	case RouteFleetSummary:
		return "fleet-summary"
	case RouteFleetAlerts:
		return "fleet-alerts"
	case RouteFleetTelemetry:
		return "fleet-telemetry"
	case RouteFleetEvents:
		return "fleet-events"
	case RouteHealthz:
		return "healthz"
	case RouteReadyz:
		return "readyz"
	default:
		return "unknown"
	}
}
