package record

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// writeLog returns the encoded log of recs for badge id.
func writeLog(t *testing.T, id uint16, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	lw, err := NewLogWriter(&buf, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := lw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll drains lr, stopping at io.EOF.
func readAll(lr *LogReader) ([]Record, error) {
	var out []Record
	for {
		rec, err := lr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func readLog(t *testing.T, raw []byte) (*LogReader, []Record) {
	t.Helper()
	lr, err := NewLogReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(lr)
	if err != nil {
		t.Fatal(err)
	}
	return lr, got
}

func TestLogReaderCleanEndNotTruncated(t *testing.T) {
	raw := writeLog(t, 3, sampleRecords())
	lr, got := readLog(t, raw)
	if lr.Truncated() {
		t.Error("clean log reported truncated")
	}
	if len(got) != len(sampleRecords()) {
		t.Errorf("read %d records", len(got))
	}
}

func TestLogReaderTruncatedFlagEveryCut(t *testing.T) {
	// Chopping the log anywhere inside the last frame must salvage all
	// earlier records and raise the truncation flag — the SD card pulled
	// mid-write.
	recs := sampleRecords()
	raw := writeLog(t, 3, recs)
	last, err := AppendFrame(nil, recs[len(recs)-1])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(last); cut++ {
		lr, got := readLog(t, raw[:len(raw)-cut])
		if !lr.Truncated() {
			t.Fatalf("cut %d: truncation not reported", cut)
		}
		if len(got) != len(recs)-1 {
			t.Fatalf("cut %d: salvaged %d records, want %d", cut, len(got), len(recs)-1)
		}
	}
}

func TestLogReaderTruncatedMidVarint(t *testing.T) {
	// A lone continuation byte after the last complete frame is a length
	// prefix cut mid-varint.
	raw := writeLog(t, 3, sampleRecords())
	raw = append(raw, 0x81)
	lr, got := readLog(t, raw)
	if !lr.Truncated() {
		t.Error("mid-varint tail not reported truncated")
	}
	if len(got) != len(sampleRecords()) {
		t.Errorf("salvaged %d records", len(got))
	}
}

func TestLogReaderGarbageLengthTruncates(t *testing.T) {
	// An impossible length prefix cannot be resynced past; the reader keeps
	// everything before it and flags the log.
	raw := writeLog(t, 3, sampleRecords())
	raw = appendUvarint(raw, MaxFrameSize+100)
	raw = append(raw, make([]byte, 16)...)
	lr, got := readLog(t, raw)
	if !lr.Truncated() {
		t.Error("garbage length not reported truncated")
	}
	if lr.Skipped() != 1 {
		t.Errorf("skipped = %d, want 1", lr.Skipped())
	}
	if len(got) != len(sampleRecords()) {
		t.Errorf("salvaged %d records", len(got))
	}
}

func TestLogReaderCorruptFrameNotTruncated(t *testing.T) {
	// A CRC-failing frame in the middle is skipped and resynced past; that
	// is bit rot, not truncation.
	recs := []Record{
		NewWear(time.Second, true),
		NewBattery(2*time.Second, 80),
		NewWear(3*time.Second, false),
	}
	raw := writeLog(t, 3, recs)
	first, err := AppendFrame(nil, recs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[7+len(first)+3] ^= 0x40
	lr, got := readLog(t, raw)
	if lr.Truncated() {
		t.Error("mid-log corruption reported as truncation")
	}
	if lr.Skipped() != 1 || len(got) != 2 {
		t.Errorf("skipped = %d, records = %d", lr.Skipped(), len(got))
	}
}
