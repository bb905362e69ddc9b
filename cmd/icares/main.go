// Command icares runs the full 14-day ICAres-1 mission simulation
// end-to-end, optionally persists the dataset as per-badge SD-card log
// files, and prints the headline statistics.
//
// Usage:
//
//	icares [-seed N] [-days N] [-out DIR] [-segout DIR] [-metrics] [-chaos] [-journal FILE]
//	icares -segdir DIR [-days N]
//
// The second form skips the simulation entirely: it reopens a segment
// archive previously written with -segout and prints the full sociometric
// report straight from the compressed segments, reading blocks on demand.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"icares"
	"icares/internal/faultplan"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/store"
	"icares/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "icares:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("icares", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "simulation seed")
	days := fs.Int("days", 14, "mission length in days")
	out := fs.String("out", "", "directory to write per-badge .icr log files (optional)")
	segout := fs.String("segout", "", "directory to write per-badge compressed .seg segment files (optional)")
	metrics := fs.Bool("metrics", false, "dump the telemetry registry after the run (the sim-clock spans themselves are \"span\" events in -journal)")
	chaos := fs.Bool("chaos", false, "subject the mission to the seeded chaos fault plan")
	journalPath := fs.String("journal", "", "dump the mission flight-recorder journal as JSON Lines to this file (\"-\" for stdout)")
	segdir := fs.String("segdir", "", "print the sociometric report from a previously written segment archive (no simulation)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *segdir != "" {
		// The -days default describes a simulation; an archive knows its own
		// span. Only an explicit -days overrides what is on disk.
		reportDays := 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "days" {
				reportDays = *days
			}
		})
		return reportFromSegments(*segdir, reportDays)
	}

	var reg *telemetry.Registry
	if *metrics {
		reg = telemetry.NewRegistry()
	}
	var journal *telemetry.Journal
	if *journalPath != "" {
		journal = telemetry.NewJournal(0)
	}
	var faults *faultplan.Plan
	if *chaos {
		faults = icares.ChaosPlan(*seed, *days)
	}

	fmt.Printf("ICAres-1 mission simulation — seed %d, %d days\n", *seed, *days)
	start := time.Now()
	m, err := icares.Simulate(icares.Options{
		Seed: *seed, Days: *days, Telemetry: reg, Faults: faults, Journal: journal,
	})
	if err != nil {
		return err
	}
	res := m.Result()
	fmt.Printf("simulated in %v\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Println("dataset:")
	fmt.Printf("  badges:   %d\n", len(res.Dataset.Badges()))
	fmt.Printf("  records:  %d\n", res.Dataset.TotalRecords())
	fmt.Printf("  encoded:  %.1f MiB\n", float64(res.Dataset.EncodedBytes())/(1<<20))

	kindCounts := make(map[record.Kind]int)
	for _, id := range res.Dataset.Badges() {
		for _, r := range res.Dataset.Series(id).All() {
			kindCounts[r.Kind]++
		}
	}
	fmt.Println("  by kind:")
	for _, k := range []record.Kind{
		record.KindAccel, record.KindMic, record.KindBeacon, record.KindNeighbor,
		record.KindIR, record.KindEnv, record.KindWear, record.KindSync, record.KindBattery,
	} {
		fmt.Printf("    %-9s %9d\n", k, kindCounts[k])
	}

	fmt.Println("\nscripted events:")
	for _, ev := range res.Events {
		fmt.Printf("  day %2d %s  %s\n", simtime.DayOf(ev.At), simtime.ClockString(ev.At), ev.Name)
	}

	if *out != "" {
		if err := res.Dataset.Save(*out); err != nil {
			return err
		}
		fmt.Printf("\ndataset written to %s\n", *out)
	}
	if *segout != "" {
		if err := res.Dataset.SaveSegments(*segout); err != nil {
			return err
		}
		// Reopen out-of-core to report the ratio actually on disk, not an
		// estimate — this is the persistence path a real pull would use.
		ss, _, err := store.OpenSegments(*segout)
		if err != nil {
			return err
		}
		onDisk := ss.BytesOnDisk()
		ss.Close()
		fmt.Printf("\nsegments written to %s: %.1f MiB on disk (%.2fx over framed logs)\n",
			*segout, float64(onDisk)/(1<<20), float64(res.Dataset.EncodedBytes())/float64(onDisk))
	}
	if *metrics {
		fmt.Println("\ntelemetry:")
		if err := reg.Write(os.Stdout); err != nil {
			return err
		}
	}
	if journal != nil {
		if err := dumpJournal(*journalPath, journal); err != nil {
			return err
		}
		fmt.Printf("\n%d journal events written to %s\n", journal.Len(), *journalPath)
	}
	fmt.Println("\nrun `repro -exp all` to regenerate the paper's figures and tables")
	return nil
}

// reportFromSegments reopens a segment archive and prints the full
// sociometric report out-of-core: the analysis streams decompressed blocks
// through a bounded cache instead of materializing the dataset in memory.
func reportFromSegments(dir string, days int) error {
	ss, rep, err := store.OpenSegments(dir)
	if err != nil {
		return err
	}
	defer ss.Close()
	for name, ferr := range rep.Failed {
		fmt.Fprintf(os.Stderr, "icares: skipping %s: %v\n", name, ferr)
	}
	fmt.Fprintf(os.Stderr, "icares: %d badges, %.1f MiB on disk\n",
		len(ss.Badges()), float64(ss.BytesOnDisk())/(1<<20))
	p, err := icares.ArchivePipeline(ss, days, icares.TrueAssignment)
	if err != nil {
		return err
	}
	fmt.Print(p.Report())
	return nil
}

// dumpJournal writes the journal as JSON Lines to path ("-" for stdout).
func dumpJournal(path string, j *telemetry.Journal) error {
	if path == "-" {
		return j.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("journal dump: %w", err)
	}
	if err := j.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("journal dump: %w", err)
	}
	return f.Close()
}
