package record

import (
	"testing"
	"time"
)

// TestTimeCursorEndsOnce pins the TimeCursor contract: batches come out in
// pull order, the stream ends at the first nil, pull is never called after
// it, and the zero cursor is an empty stream.
func TestTimeCursorEndsOnce(t *testing.T) {
	batches := [][]time.Duration{{1, 2}, {3}, nil, {4}}
	calls := 0
	c := PullTimeCursor(func() []time.Duration {
		calls++
		return batches[calls-1]
	})
	var got []time.Duration
	for b := c.NextBatch(); b != nil; b = c.NextBatch() {
		got = append(got, b...)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("drained %v, want [1 2 3]", got)
	}
	if c.NextBatch() != nil || calls != 3 {
		t.Fatalf("after the end: %d pulls, want 3", calls)
	}
	var zero TimeCursor
	if zero.NextBatch() != nil {
		t.Fatal("zero TimeCursor yielded a batch")
	}
}
