package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"icares/internal/record"
	"icares/internal/segment"
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

// writeBadgeFiles writes badges 1..3 as framed .icr logs into icrDir and as
// .seg segments, in blocks of 16 records, into segDir.
func writeBadgeFiles(t *testing.T, icrDir, segDir string) {
	t.Helper()
	for id := uint16(1); id <= 3; id++ {
		recs := badgeRecords(id)
		var icr, seg bytes.Buffer
		lw, err := record.NewLogWriter(&icr, id)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := segment.NewWriter(&seg, id, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := lw.Append(r); err != nil {
				t.Fatal(err)
			}
			if err := sw.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := lw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := sw.Finish(); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("badge-%03d", id)
		if err := os.WriteFile(filepath.Join(icrDir, name+".icr"), icr.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(segDir, name+".seg"), seg.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runOut calls run with args and returns what it printed to stdout.
func runOut(t *testing.T, args ...string) string {
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
	if runErr != nil {
		t.Fatalf("run %v: %v", args, runErr)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

var statsLine = regexp.MustCompile(`(?m)^badge-\d+\.(?:icr|seg): badge (\d+), (\d+) records$`)

// badgeCounts parses the per-badge record counts out of stats output.
func badgeCounts(t *testing.T, out string) map[string]string {
	t.Helper()
	counts := make(map[string]string)
	for _, m := range statsLine.FindAllStringSubmatch(out, -1) {
		counts[m[1]] = m[2]
	}
	if len(counts) != 3 {
		t.Fatalf("stats reported %d badges, want 3:\n%s", len(counts), out)
	}
	return counts
}

// The same records written as framed SD-card logs and as segments must
// read back identically: equal per-badge counts, spans and kind breakdowns.
func TestStatsAgreeAcrossFormats(t *testing.T) {
	icrDir, segDir := t.TempDir(), t.TempDir()
	writeBadgeFiles(t, icrDir, segDir)

	icrOut := runOut(t, "stats", icrDir)
	segOut := runOut(t, "stats", segDir)
	icrCounts, segCounts := badgeCounts(t, icrOut), badgeCounts(t, segOut)
	for id, n := range icrCounts {
		if segCounts[id] != n {
			t.Errorf("badge %s: .seg has %s records, .icr has %s", id, segCounts[id], n)
		}
	}
	if strings.ReplaceAll(icrOut, ".icr:", ".seg:") != segOut {
		t.Errorf("stats differ between formats:\n.icr:\n%s\n.seg:\n%s", icrOut, segOut)
	}
}

// Bit rot mid-segment must be reported by verify, not fail the read.
func TestVerifyReportsSegmentDamage(t *testing.T) {
	icrDir, segDir := t.TempDir(), t.TempDir()
	writeBadgeFiles(t, icrDir, segDir)
	path := filepath.Join(segDir, "badge-002.seg")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	out := runOut(t, "verify", segDir)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("verify printed %d lines, want 3:\n%s", len(lines), out)
	}
	for _, line := range lines {
		damaged := strings.HasPrefix(line, "badge-002.seg:")
		if ok := strings.HasSuffix(line, ", OK"); ok == damaged {
			t.Errorf("verify line %q: damaged = %v", line, damaged)
		}
		if damaged && !strings.Contains(line, "1 corrupt frames") {
			t.Errorf("verify line %q does not report the corrupt block", line)
		}
	}
}
