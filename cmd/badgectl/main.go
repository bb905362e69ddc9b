// Command badgectl inspects segment files (.seg): the compressed per-badge
// dataset archive cmd/icares writes with -segout and cmd/habitatd with
// -segdir.
//
// Usage:
//
//	badgectl stats  <dir|file>   per-badge record counts and time spans
//	badgectl dump   <file>       print records as text (use -n to limit)
//	badgectl verify <dir|file>   re-read everything, report corruption
//
// Flags come before the subcommand: badgectl -n 5 dump FILE.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"icares/internal/record"
	"icares/internal/segment"
	"icares/internal/simtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "badgectl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("badgectl", flag.ContinueOnError)
	limit := fs.Int("n", 20, "dump: maximum records to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) != 2 {
		return errors.New("usage: badgectl [-n N] stats|dump|verify <path>")
	}
	cmd, path := rest[0], rest[1]
	switch cmd {
	case "stats":
		return forEachSegment(path, statsOne)
	case "dump":
		return dumpOne(path, *limit)
	case "verify":
		return forEachSegment(path, verifyOne)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// forEachSegment applies fn to the file, or to every .seg file in a
// directory.
func forEachSegment(path string, fn func(string) error) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if !info.IsDir() {
		return fn(path)
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return err
	}
	found := false
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		found = true
		if err := fn(filepath.Join(path, e.Name())); err != nil {
			return err
		}
	}
	if !found {
		return fmt.Errorf("no .seg files in %s", path)
	}
	return nil
}

// openSegment opens the .seg file at path and a cursor over all its
// records. A segment read cannot fail past its header: damage found on the
// way is counted by the reader (Skipped, CorruptBlocks, Truncated) once the
// cursor is drained.
func openSegment(path string) (*segment.Reader, record.Cursor, error) {
	if filepath.Ext(path) != ".seg" {
		return nil, record.Cursor{}, fmt.Errorf("%s: not a segment file (want .seg)", path)
	}
	rd, err := segment.Open(path)
	if err != nil {
		return nil, record.Cursor{}, err
	}
	return rd, rd.Iter(math.MinInt64, math.MaxInt64, 0), nil
}

// damaged counts what a drained read survived: blocks dropped by the
// open-time salvage scan plus blocks whose CRC or decode failed at read
// time.
func damaged(rd *segment.Reader) int { return rd.Skipped() + int(rd.CorruptBlocks()) }

func statsOne(path string) error {
	rd, it, err := openSegment(path)
	if err != nil {
		return err
	}
	counts := make(map[record.Kind]int)
	var first, last time.Duration
	n := 0
	for ; it.Next(); n++ {
		rec := it.Record()
		if n == 0 || rec.Local < first {
			first = rec.Local
		}
		if rec.Local > last {
			last = rec.Local
		}
		counts[rec.Kind]++
	}
	fmt.Printf("%s: badge %d, %d records", filepath.Base(path), rd.BadgeID(), n)
	if d := damaged(rd); d > 0 {
		fmt.Printf(" (%d corrupt frames skipped)", d)
	}
	if rd.Truncated() {
		fmt.Printf(" (truncated mid-frame; tail lost)")
	}
	fmt.Println()
	if n > 0 {
		fmt.Printf("  span: day %d %s .. day %d %s\n",
			simtime.DayOf(first), simtime.ClockString(first),
			simtime.DayOf(last), simtime.ClockString(last))
	}
	kinds := make([]record.Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Printf("  %-9s %9d\n", k, counts[k])
	}
	return rd.Close()
}

// dumpOne prints the first limit records (all of them if limit is 0),
// noting the limit only when a record beyond it was left unprinted.
func dumpOne(path string, limit int) error {
	rd, it, err := openSegment(path)
	if err != nil {
		return err
	}
	for n := 0; it.Next(); n++ {
		if limit > 0 && n == limit {
			fmt.Printf("... (limited to %d; use -n 0 for all)\n", limit)
			break
		}
		fmt.Println(formatRecord(it.Record()))
	}
	return rd.Close()
}

func formatRecord(r record.Record) string {
	ts := fmt.Sprintf("d%02d %s", simtime.DayOf(r.Local), simtime.ClockString(r.Local))
	switch r.Kind {
	case record.KindAccel:
		x, y, z := r.Accel()
		return fmt.Sprintf("%s accel   x=%d y=%d z=%d", ts, x, y, z)
	case record.KindMic:
		speech, loud, f0, frac := r.Mic()
		return fmt.Sprintf("%s mic     speech=%v loud=%.1fdB f0=%.0fHz frac=%.2f", ts, speech, loud, f0, frac)
	case record.KindBeacon:
		return fmt.Sprintf("%s beacon  id=%d rssi=%.1f", ts, r.PeerID, r.RSSI())
	case record.KindNeighbor:
		return fmt.Sprintf("%s neighb  badge=%d rssi=%.1f", ts, r.PeerID, r.RSSI())
	case record.KindIR:
		return fmt.Sprintf("%s ir      badge=%d", ts, r.PeerID)
	case record.KindEnv:
		temp, press, lux := r.Env()
		return fmt.Sprintf("%s env     %.1fC %.1fhPa %.0flux", ts, temp, press, lux)
	case record.KindWear:
		return fmt.Sprintf("%s wear    worn=%v", ts, r.Worn())
	case record.KindSync:
		return fmt.Sprintf("%s sync    ref=%v", ts, r.RefTime())
	case record.KindBattery:
		return fmt.Sprintf("%s battery %.1f%%", ts, r.BatteryPct())
	default:
		return fmt.Sprintf("%s %v", ts, r.Kind)
	}
}

func verifyOne(path string) error {
	rd, it, err := openSegment(path)
	if err != nil {
		return err
	}
	n := 0
	outOfOrder := 0
	var prev time.Duration
	for ; it.Next(); n++ {
		rec := it.Record()
		if n > 0 && rec.Local < prev {
			outOfOrder++
		}
		prev = rec.Local
	}
	var problems []string
	if d := damaged(rd); d > 0 {
		problems = append(problems, fmt.Sprintf("%d corrupt frames", d))
	}
	if rd.Truncated() {
		problems = append(problems, "truncated mid-frame")
	}
	status := "OK"
	if len(problems) > 0 {
		status = strings.Join(problems, ", ")
	}
	fmt.Printf("%s: %d records, %d out-of-order timestamps, %s\n",
		filepath.Base(path), n, outOfOrder, status)
	return rd.Close()
}
