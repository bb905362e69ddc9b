// Command badgectl inspects on-badge SD-card log files (.icr) — the framed
// format a badge writes and a deployment would pull off physical badges
// after a mission — and compressed segment files (.seg, the dataset archive
// cmd/icares writes with -segout), dispatching on the file extension.
//
// Usage:
//
//	badgectl stats  <dir|file>   per-badge record counts and time spans
//	badgectl dump   <file>       print records as text (use -n to limit)
//	badgectl verify <dir|file>   re-read everything, report corruption
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	if len(rest) < 2 {
		return errors.New("usage: badgectl [-n N] stats|dump|verify <path>")
	}
	cmd, path := rest[0], rest[1]
	switch cmd {
	case "stats":
		return forEachLog(path, statsOne)
	case "dump":
		return dumpOne(path, *limit)
	case "verify":
		return forEachLog(path, verifyOne)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// forEachLog applies fn to the file, or to every .icr and .seg file in a
// directory.
func forEachLog(path string, fn func(string) error) error {
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
		if e.IsDir() {
			continue
		}
		if ext := filepath.Ext(e.Name()); ext != ".icr" && ext != ".seg" {
			continue
		}
		found = true
		if err := fn(filepath.Join(path, e.Name())); err != nil {
			return err
		}
	}
	if !found {
		return fmt.Errorf("no .icr or .seg files in %s", path)
	}
	return nil
}

// recSource is the read shape stats/dump/verify share: a record stream plus
// the salvage counters, satisfied by the framed-log reader and by an adapter
// over the out-of-core segment reader.
type recSource interface {
	Next() (record.Record, error) // io.EOF at clean end
	BadgeID() uint16
	Skipped() int
	Truncated() bool
}

// segSource streams a segment through its block iterator so even a dump of
// a multi-GiB segment holds only the cached blocks resident.
type segSource struct {
	rd *segment.Reader
	it record.Cursor
}

func (s *segSource) Next() (record.Record, error) {
	if !s.it.Next() {
		return record.Record{}, io.EOF
	}
	return s.it.Record(), nil
}

func (s *segSource) BadgeID() uint16 { return s.rd.BadgeID() }

// Skipped folds in blocks whose CRC failed at read time: like skipped log
// frames, they are damage the read path survived.
func (s *segSource) Skipped() int    { return s.rd.Skipped() + int(s.rd.CorruptBlocks()) }
func (s *segSource) Truncated() bool { return s.rd.Truncated() }

func openLog(path string) (recSource, func() error, error) {
	if filepath.Ext(path) == ".seg" {
		rd, err := segment.Open(path)
		if err != nil {
			return nil, nil, err
		}
		src := &segSource{rd: rd, it: rd.Iter(math.MinInt64, math.MaxInt64, 0)}
		return src, rd.Close, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	lr, err := record.NewLogReader(f)
	if err != nil {
		cerr := f.Close()
		if cerr != nil {
			return nil, nil, errors.Join(err, cerr)
		}
		return nil, nil, err
	}
	return lr, f.Close, nil
}

func statsOne(path string) (err error) {
	lr, closeFn, err := openLog(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeFn(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	counts := make(map[record.Kind]int)
	var first, last time.Duration
	n := 0
	for {
		rec, rerr := lr.Next()
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return rerr
		}
		if n == 0 || rec.Local < first {
			first = rec.Local
		}
		if rec.Local > last {
			last = rec.Local
		}
		counts[rec.Kind]++
		n++
	}
	fmt.Printf("%s: badge %d, %d records", filepath.Base(path), lr.BadgeID(), n)
	if lr.Skipped() > 0 {
		fmt.Printf(" (%d corrupt frames skipped)", lr.Skipped())
	}
	if lr.Truncated() {
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
	return nil
}

func dumpOne(path string, limit int) (err error) {
	lr, closeFn, err := openLog(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeFn(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	n := 0
	for {
		rec, rerr := lr.Next()
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return rerr
		}
		fmt.Println(formatRecord(rec))
		n++
		if limit > 0 && n >= limit {
			fmt.Printf("... (limited to %d; use -n 0 for all)\n", limit)
			break
		}
	}
	return nil
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

func verifyOne(path string) (err error) {
	lr, closeFn, err := openLog(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeFn(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	n := 0
	outOfOrder := 0
	var prev time.Duration
	for {
		rec, rerr := lr.Next()
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return rerr
		}
		if n > 0 && rec.Local < prev {
			outOfOrder++
		}
		prev = rec.Local
		n++
	}
	var problems []string
	if lr.Skipped() > 0 {
		problems = append(problems, fmt.Sprintf("%d corrupt frames", lr.Skipped()))
	}
	if lr.Truncated() {
		problems = append(problems, "truncated mid-frame")
	}
	status := "OK"
	if len(problems) > 0 {
		status = strings.Join(problems, ", ")
	}
	fmt.Printf("%s: %d records, %d out-of-order timestamps, %s\n",
		filepath.Base(path), n, outOfOrder, status)
	return nil
}
