package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/segment"
	"icares/internal/simtime"
)

// badgeRecords returns a time-ordered, mixed-kind record stream for one
// badge; badges differ in length so a swapped count would show.
func badgeRecords(id uint16) []record.Record {
	var recs []record.Record
	for i := 0; i < 150+20*int(id); i++ {
		at := time.Duration(i) * time.Second
		recs = append(recs, record.NewAccel(at, int16(i), -3, 980))
		if i%3 == 0 {
			recs = append(recs, record.NewMic(at, i%2 == 0, 50, 0, 0))
		}
		if i%5 == 0 {
			recs = append(recs, record.NewBeacon(at+time.Millisecond, id, -60))
		}
	}
	return recs
}

// writeSegment writes recs as badge id's segment, in blocks of 16 records,
// to dir/badge-NNN.seg and returns its path.
func writeSegment(t *testing.T, dir string, id uint16, recs []record.Record) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("badge-%03d.seg", id))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := segment.NewWriter(f, id, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := sw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeBadgeFiles writes badges 1..3 of badgeRecords as segments into dir.
func writeBadgeFiles(t *testing.T, dir string) {
	t.Helper()
	for id := uint16(1); id <= 3; id++ {
		writeSegment(t, dir, id, badgeRecords(id))
	}
}

// runCapture calls run with args and returns what it printed to stdout and
// the error it returned.
func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = stdout
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// runOut calls run with args, fails the test if it errs, and returns what
// it printed to stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	out, err := runCapture(t, args...)
	if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out
}

// stats must report, for every badge, the count, span and per-kind
// breakdown of the records the generator wrote.
func TestStatsMatchGenerator(t *testing.T) {
	dir := t.TempDir()
	writeBadgeFiles(t, dir)

	var want strings.Builder
	for id := uint16(1); id <= 3; id++ {
		recs := badgeRecords(id)
		counts := make(map[record.Kind]int)
		for _, r := range recs {
			counts[r.Kind]++
		}
		first, last := recs[0].Local, recs[len(recs)-1].Local
		fmt.Fprintf(&want, "badge-%03d.seg: badge %d, %d records\n", id, id, len(recs))
		fmt.Fprintf(&want, "  span: day %d %s .. day %d %s\n",
			simtime.DayOf(first), simtime.ClockString(first),
			simtime.DayOf(last), simtime.ClockString(last))
		for _, k := range []record.Kind{record.KindAccel, record.KindMic, record.KindBeacon} {
			fmt.Fprintf(&want, "  %-9s %9d\n", k, counts[k])
		}
	}
	if got := runOut(t, "stats", dir); got != want.String() {
		t.Errorf("stats:\n%s\nwant:\n%s", got, want.String())
	}
}

// An unlimited dump prints every generated record, in order.
func TestDumpPrintsEveryRecord(t *testing.T) {
	dir := t.TempDir()
	writeBadgeFiles(t, dir)

	var want strings.Builder
	for _, r := range badgeRecords(2) {
		want.WriteString(formatRecord(r) + "\n")
	}
	if got := runOut(t, "-n", "0", "dump", filepath.Join(dir, "badge-002.seg")); got != want.String() {
		t.Errorf("dump -n 0 printed %d lines, want %d",
			strings.Count(got, "\n"), strings.Count(want.String(), "\n"))
	}
}

// The limit note appears only when a record beyond the limit exists.
func TestDumpLimitNote(t *testing.T) {
	recs := badgeRecords(1)[:5]
	path := writeSegment(t, t.TempDir(), 1, recs)
	const note = "... (limited to"
	for _, tc := range []struct {
		limit, lines int
		note         bool
	}{
		{limit: 5, lines: 5, note: false},
		{limit: 4, lines: 4, note: true},
	} {
		out := runOut(t, "-n", fmt.Sprint(tc.limit), "dump", path)
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if got := strings.HasPrefix(lines[len(lines)-1], note); got != tc.note {
			t.Errorf("-n %d: limit note = %v, want %v:\n%s", tc.limit, got, tc.note, out)
		}
		if tc.note {
			lines = lines[:len(lines)-1]
		}
		if len(lines) != tc.lines {
			t.Errorf("-n %d: %d records printed, want %d", tc.limit, len(lines), tc.lines)
		}
		for i, line := range lines {
			if line != formatRecord(recs[i]) {
				t.Errorf("-n %d: line %d = %q, want %q", tc.limit, i, line, formatRecord(recs[i]))
			}
		}
	}
}

// Input that is not a segment, and arguments past the path, fail with an
// error that says what is wrong instead of a decode error.
func TestRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	seg := writeSegment(t, dir, 1, badgeRecords(1))
	notes := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(notes, []byte("not a segment\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"dump of a directory", []string{"dump", dir}, dir},
		{"stats of a non-.seg file", []string{"stats", notes}, notes},
		{"flag after the subcommand", []string{"dump", "-n", "5", seg}, "usage: badgectl"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runCapture(t, tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run %v: error %v, want one naming %q", tc.args, err, tc.want)
			}
			if out != "" {
				t.Errorf("run %v printed %q", tc.args, out)
			}
		})
	}
}

// Bit rot mid-segment and a segment cut short must be reported by verify
// and stats, for the damaged badge only, not fail the read.
func TestVerifyReportsSegmentDamage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
		verify string // in the damaged badge's verify line
		stats  string // in the damaged badge's stats line
	}{
		{
			name:   "flipped byte",
			damage: func(raw []byte) []byte { raw[len(raw)/2] ^= 0x40; return raw },
			verify: "1 corrupt frames",
			stats:  "(1 corrupt frames skipped)",
		},
		{
			name:   "cut to two thirds",
			damage: func(raw []byte) []byte { return raw[:len(raw)*2/3] },
			verify: "truncated mid-frame",
			stats:  "(truncated mid-frame; tail lost)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeBadgeFiles(t, dir)
			path := filepath.Join(dir, "badge-002.seg")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			out := runOut(t, "verify", dir)
			lines := strings.Split(strings.TrimSpace(out), "\n")
			if len(lines) != 3 {
				t.Fatalf("verify printed %d lines, want 3:\n%s", len(lines), out)
			}
			for _, line := range lines {
				damaged := strings.HasPrefix(line, "badge-002.seg:")
				if ok := strings.HasSuffix(line, ", OK"); ok == damaged {
					t.Errorf("verify line %q: damaged = %v", line, damaged)
				}
				if damaged && !strings.Contains(line, tc.verify) {
					t.Errorf("verify line %q does not report %q", line, tc.verify)
				}
			}

			for _, line := range strings.Split(runOut(t, "stats", dir), "\n") {
				if !strings.HasPrefix(line, "badge-") {
					continue
				}
				damaged := strings.HasPrefix(line, "badge-002.seg:")
				if got := strings.Contains(line, tc.stats); got != damaged {
					t.Errorf("stats line %q: reports %q = %v, damaged = %v", line, tc.stats, got, damaged)
				}
			}
		})
	}
}
