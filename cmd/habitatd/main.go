// Command habitatd runs the mission support daemon over a simulated
// mission: it replays the badge streams through the detector suite and
// prints the alerts the crew would have received in real time, then
// demonstrates the consensus-approval protocol and the day-12 stale-command
// detection over the delayed mission-control link.
//
// With -fleet N it instead runs N concurrent habitats — each its own
// mission, store, and live analytics — and serves the fleet query API
// (see internal/fleet) until interrupted.
//
// Usage:
//
//	habitatd [-seed N] [-days N] [-tick D] [-max N] [-metrics] [-segdir DIR] [-journal FILE] [-debug-addr HOST:PORT]
//	habitatd -fleet N [-seed N] [-days N] [-tick D] [-addr HOST:PORT] [-journal FILE] [-debug-addr HOST:PORT]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"icares"
	"icares/internal/fleet"
	"icares/internal/simtime"
	"icares/internal/store"
	"icares/internal/support"
	"icares/internal/telemetry"
	"icares/internal/uplink"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "habitatd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("habitatd", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "simulation seed (fleet mode: habitat i uses seed+i)")
	days := fs.Int("days", 4, "mission length in days")
	tick := fs.Duration("tick", 0, "simulation step (default 5s; coarser ticks run faster)")
	maxAlerts := fs.Int("max", 40, "maximum alerts to print")
	metrics := fs.Bool("metrics", false, "dump the telemetry registry after the run")
	fleetN := fs.Int("fleet", 0, "run N habitats as a fleet and serve the query API (0 = single-habitat replay)")
	addr := fs.String("addr", "localhost:8080", "fleet API listen address (with -fleet)")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060); keeps a single-habitat run alive afterwards")
	segdir := fs.String("segdir", "", "archive the mission dataset as compressed .seg segment files to this directory after a single-habitat run")
	journalPath := fs.String("journal", "", "dump the flight-recorder journal as JSON Lines to this file on exit (\"-\" for stdout); fleet mode dumps the merged fleet timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	var dbg *debugServer
	if *debugAddr != "" {
		reg.PublishExpvar("icares")
		var err error
		if dbg, err = startDebugServer(*debugAddr); err != nil {
			return err
		}
		defer dbg.Shutdown(context.Background())
		fmt.Printf("debug server on http://%s/debug/vars and /debug/pprof/\n", dbg.Addr())
	}

	if *fleetN > 0 {
		return runFleet(ctx, fleetConfig{
			n: *fleetN, baseSeed: *seed, days: *days, tick: *tick, addr: *addr, reg: reg,
			journalPath: *journalPath,
		})
	}

	var journal *telemetry.Journal
	if *journalPath != "" {
		journal = telemetry.NewJournal(0)
	}

	fmt.Printf("simulating %d mission days (seed %d)...\n", *days, *seed)
	m, err := icares.Simulate(icares.Options{Seed: *seed, Days: *days, Tick: *tick, Telemetry: reg, Journal: journal})
	if err != nil {
		return err
	}

	daemon, replayer := m.SupportSystem()
	daemon.Instrument(reg)
	daemon.AttachJournal(journal)
	replayer.Instrument(reg)
	replayer.AttachJournal(journal)
	printed := 0
	daemon.OnAlert(func(a support.Alert) {
		if printed >= *maxAlerts {
			return
		}
		printed++
		fmt.Printf("[day %2d %s] %-8s %-15s %s\n",
			simtime.DayOf(a.At), simtime.ClockString(a.At), a.Severity, a.Kind, a.Message)
	})

	fmt.Println("replaying badge streams through the support daemon:")
	n := replayer.Run()
	alerts := daemon.Alerts()
	fmt.Printf("\n%d records replayed, %d alerts raised", n, len(alerts))
	if len(alerts) > *maxAlerts {
		fmt.Printf(" (%d shown)", *maxAlerts)
	}
	fmt.Println()

	byKind := make(map[string]int)
	for _, a := range alerts {
		byKind[a.Kind]++
	}
	fmt.Println("alerts by kind:")
	for _, kind := range []string{"inactivity", "quiet-crew", "battery", "hydration", "wear-compliance", "failover"} {
		fmt.Printf("  %-15s %d\n", kind, byKind[kind])
	}

	demoConsensus(m, reg)
	demoDay12(reg)

	if *segdir != "" {
		ds := m.Result().Dataset
		if err := ds.SaveSegments(*segdir); err != nil {
			return err
		}
		ss, _, err := store.OpenSegments(*segdir)
		if err != nil {
			return err
		}
		onDisk := ss.BytesOnDisk()
		ss.Close()
		fmt.Printf("\ndataset archived to %s: %.1f MiB on disk (%.2fx over framed logs)\n",
			*segdir, float64(onDisk)/(1<<20), float64(ds.EncodedBytes())/float64(onDisk))
	}
	if *metrics {
		fmt.Println("\ntelemetry:")
		if err := reg.Write(os.Stdout); err != nil {
			return err
		}
	}
	if journal != nil {
		if err := dumpEvents(*journalPath, journal.Events()); err != nil {
			return err
		}
		fmt.Printf("\n%d journal events written to %s (%d dropped by the ring)\n",
			journal.Len(), *journalPath, journal.Dropped())
	}
	if dbg != nil {
		fmt.Println("\nrun complete; debug server still up — ctrl-c to exit")
		<-ctx.Done()
	}
	return nil
}

// debugServer owns the expvar/pprof endpoint. The obvious
// `go http.Serve(ln, nil)` both leaks the serving goroutine and reports
// a spurious "use of closed network connection" error when the listener
// closes underneath it at shutdown; wrapping an http.Server restores a
// clean lifecycle: Shutdown drains, the goroutine is reaped, and the
// only error ever surfaced is a real one.
type debugServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan error
}

func startDebugServer(addr string) (*debugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	// The nil handler is DefaultServeMux, which carries the expvar and
	// pprof handlers registered by their package imports.
	d := &debugServer{ln: ln, srv: &http.Server{}, done: make(chan error, 1)}
	go func() {
		err := d.srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		d.done <- err
	}()
	return d, nil
}

// Addr returns the bound listen address.
func (d *debugServer) Addr() net.Addr { return d.ln.Addr() }

// Shutdown stops the server, reaps the serving goroutine, and returns
// any real serve error.
func (d *debugServer) Shutdown(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; err == nil {
		err = serr
	}
	return err
}

type fleetConfig struct {
	n           int
	baseSeed    uint64
	days        int
	tick        time.Duration
	addr        string
	reg         *telemetry.Registry
	journalPath string
}

// dumpEvents writes a flight-recorder timeline as JSON Lines to path
// ("-" for stdout).
func dumpEvents(path string, events []telemetry.Event) error {
	if path == "-" {
		return telemetry.WriteEventsJSON(os.Stdout, events)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("journal dump: %w", err)
	}
	if err := telemetry.WriteEventsJSON(f, events); err != nil {
		f.Close()
		return fmt.Errorf("journal dump: %w", err)
	}
	return f.Close()
}

// runFleet builds the fleet and serves its API until the context is
// cancelled (ctrl-c) or the server fails.
func runFleet(ctx context.Context, cfg fleetConfig) error {
	habitats := make([]fleet.HabitatConfig, cfg.n)
	for i := range habitats {
		habitats[i] = fleet.HabitatConfig{
			ID:   fmt.Sprintf("hab-%02d", i),
			Seed: cfg.baseSeed + uint64(i),
			Days: cfg.days,
			Tick: cfg.tick,
		}
	}
	fmt.Printf("building %d-habitat fleet (seeds %d..%d, %d days each)...\n",
		cfg.n, cfg.baseSeed, cfg.baseSeed+uint64(cfg.n)-1, cfg.days)
	f, err := fleet.New(fleet.Config{Habitats: habitats, Telemetry: cfg.reg})
	if err != nil {
		return err
	}
	defer f.Close()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("fleet listener: %w", err)
	}
	fmt.Printf("fleet API on http://%s/habitats (ctrl-c to exit)\n", ln.Addr())
	if err := serveFleet(ctx, f.Handler(), ln); err != nil {
		return err
	}
	if cfg.journalPath != "" {
		events := f.FleetEvents(telemetry.EventQuery{})
		if err := dumpEvents(cfg.journalPath, events); err != nil {
			return err
		}
		fmt.Printf("%d journal events written to %s\n", len(events), cfg.journalPath)
	}
	return nil
}

// serveFleet runs the API server on ln until ctx is cancelled, then
// shuts it down gracefully. It returns nil on a clean shutdown.
func serveFleet(ctx context.Context, handler http.Handler, ln net.Listener) error {
	srv := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() {
		err := srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	fmt.Println("\nshutting down fleet...")
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return err
	}
	return <-done
}

// demoConsensus walks one proposal through the council.
func demoConsensus(m *icares.Mission, reg *telemetry.Registry) {
	fmt.Println("\n--- consensus approval demo ---")
	link := icares.MissionControlLink()
	link.Instrument(reg)
	council := m.Council(link)
	now := 5 * simtime.DayLength

	p, err := council.Propose(now, "B", "disable IR sensing in the bedroom after 21:00")
	if err != nil {
		fmt.Println("propose:", err)
		return
	}
	fmt.Printf("B proposes #%d: %s\n", p.ID, p.Change)
	for _, voter := range []string{"A", "D", "E"} {
		if err := council.Vote(now+time.Minute, p.ID, voter, true); err != nil {
			fmt.Println("vote:", err)
			return
		}
		fmt.Printf("%s votes yes (status: %v)\n", voter, p.Status())
	}
	// Mission control receives the proposal after the 20-minute delay and
	// approves; the verdict takes another 20 minutes to come back.
	inbox := link.Receive(uplink.MissionControl, now+21*time.Minute)
	fmt.Printf("mission control receives %d message(s) after %v\n", len(inbox), link.Delay())
	decisionAt := now + 42*time.Minute
	if err := council.MissionControlDecision(decisionAt, p.ID, true); err != nil {
		fmt.Println("mc decision:", err)
		return
	}
	fmt.Printf("mission control approves at +%v -> status: %v\n",
		(decisionAt - now).Round(time.Minute), p.Status())
}

// demoDay12 replays the day-12 incident: a stale command arriving after the
// crew already acted.
func demoDay12(reg *telemetry.Registry) {
	fmt.Println("\n--- day-12 stale-command detection demo ---")
	link := icares.MissionControlLink()
	link.Instrument(reg)
	state := uplink.NewTopicState()
	state.Instrument(reg)
	day12 := 11 * simtime.DayLength

	if _, err := link.Send(day12, uplink.Message{
		From: uplink.Habitat, Kind: uplink.Report, Topic: "experiment-7",
		BasisVersion: state.Version("experiment-7"),
		Body:         "protocol stalled, awaiting guidance",
	}); err != nil {
		fmt.Println("send:", err)
		return
	}
	inbox := link.Receive(uplink.MissionControl, day12+20*time.Minute)
	if _, err := link.Send(day12+20*time.Minute, uplink.Message{
		From: uplink.MissionControl, Kind: uplink.Command, Topic: "experiment-7",
		BasisVersion: inbox[0].BasisVersion,
		Body:         "abort and restart with protocol B",
	}); err != nil {
		fmt.Println("send:", err)
		return
	}
	// The crew cannot wait 40 minutes; they proceed with protocol A.
	state.Advance("experiment-7")
	fmt.Println("crew proceeds with protocol A (state v1)")

	for _, cmd := range link.Receive(uplink.Habitat, day12+40*time.Minute) {
		if c := state.Check(cmd); c != nil {
			fmt.Printf("command %q flagged: based on v%d, habitat is at v%d\n",
				cmd.Body, cmd.BasisVersion, c.CurrentVersion)
			fmt.Println("-> surfaced to the crew as a conflict instead of being executed")
		}
	}
}
