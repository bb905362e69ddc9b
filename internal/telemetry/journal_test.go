package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	j.Record(Event{Kind: "x"})
	j.Emit(0, SevInfo, "c", "k", "m")
	j.SetHabitat("h")
	if j.Len() != 0 || j.Dropped() != 0 {
		t.Error("nil journal reports state")
	}
	if ev := j.Events(); ev != nil {
		t.Errorf("nil journal events = %v", ev)
	}
	if ev := j.Select(EventQuery{MinSeverity: SevWarn}); ev != nil {
		t.Errorf("nil journal select = %v", ev)
	}
	if err := j.WriteJSON(&strings.Builder{}); err != nil {
		t.Errorf("nil journal dump: %v", err)
	}
}

func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(3)
	for i := 1; i <= 5; i++ {
		j.Emit(time.Duration(i)*time.Second, SevInfo, "test", "tick", "t")
	}
	if got := j.Len(); got != 3 {
		t.Fatalf("len = %d, want 3", got)
	}
	if got := j.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	ev := j.Events()
	// Oldest two evicted; sequence numbers survive eviction.
	wantSeq := []uint64{3, 4, 5}
	for i, e := range ev {
		if e.Seq != wantSeq[i] {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, wantSeq[i])
		}
		if e.At != time.Duration(wantSeq[i])*time.Second {
			t.Errorf("event %d at = %v", i, e.At)
		}
	}
}

func TestJournalSelect(t *testing.T) {
	j := NewJournal(16)
	j.Emit(1*time.Hour, SevDebug, "offload", "flush", "ok")
	j.Emit(2*time.Hour, SevWarn, "offload", "backoff-enter", "stalled")
	j.Emit(3*time.Hour, SevError, "fleet", "quarantine", "panic")
	j.Emit(4*time.Hour, SevInfo, "offload", "backoff-exit", "recovered")

	if got := len(j.Select(EventQuery{MinSeverity: SevWarn})); got != 2 {
		t.Errorf("min-severity warn matched %d, want 2", got)
	}
	if got := len(j.Select(EventQuery{Kind: "quarantine"})); got != 1 {
		t.Errorf("kind filter matched %d, want 1", got)
	}
	// Limit keeps the newest matches.
	tail := j.Select(EventQuery{Limit: 2})
	if len(tail) != 2 || tail[0].Kind != "quarantine" || tail[1].Kind != "backoff-exit" {
		t.Errorf("limit tail = %+v", tail)
	}
}

func TestJournalHabitatStamp(t *testing.T) {
	j := NewJournal(4)
	j.SetHabitat("hab-00")
	j.Emit(0, SevInfo, "c", "k", "m")
	j.Record(Event{Severity: SevInfo, Component: "c", Kind: "k", Habitat: "other"})
	ev := j.Events()
	if ev[0].Habitat != "hab-00" {
		t.Errorf("unstamped event habitat = %q", ev[0].Habitat)
	}
	if ev[1].Habitat != "other" {
		t.Errorf("pre-stamped event habitat overwritten: %q", ev[1].Habitat)
	}
}

// TestJournalJSONDeterminism: two dumps with no intervening records are
// byte-identical and one-line-per-event.
func TestJournalJSONDeterminism(t *testing.T) {
	j := NewJournal(8)
	j.SetHabitat("hab-01")
	j.Emit(90*time.Minute, SevWarn, "offload", "offload-refused", "held cap", F("badge", "3"), Fu("held", 64))
	j.Emit(2*time.Hour, SevError, "fleet", "quarantine", "ingest panic", F("cause", `step "x" failed`))

	var a, b strings.Builder
	if err := j.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("dumps differ:\n%s---\n%s", a.String(), b.String())
	}
	lines := strings.Split(strings.TrimSuffix(a.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want 2:\n%s", len(lines), a.String())
	}
	want0 := `{"seq":1,"at_ns":5400000000000,"at":"1h30m0s","severity":"warning","component":"offload","habitat":"hab-01","kind":"offload-refused","message":"held cap","fields":{"badge":"3","held":"64"}}`
	if lines[0] != want0 {
		t.Errorf("line 0:\ngot:  %s\nwant: %s", lines[0], want0)
	}
	if !strings.Contains(lines[1], `"cause":"step \"x\" failed"`) {
		t.Errorf("line 1 quoting: %s", lines[1])
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(128)
	const writers = 8
	const per = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = j.Select(EventQuery{MinSeverity: SevWarn, Limit: 10})
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				j.Emit(time.Duration(i)*time.Second, SevInfo, "test", "tick", "t", Fi("writer", w))
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := j.Len(); got != 128 {
		t.Errorf("len = %d, want 128", got)
	}
	if got := j.Dropped(); got != writers*per-128 {
		t.Errorf("dropped = %d, want %d", got, writers*per-128)
	}
	// Retained events carry the newest 128 sequence numbers, in order.
	ev := j.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq != ev[i-1].Seq+1 {
			t.Fatalf("seq gap at %d: %d -> %d", i, ev[i-1].Seq, ev[i].Seq)
		}
	}
	if ev[len(ev)-1].Seq != writers*per {
		t.Errorf("last seq = %d, want %d", ev[len(ev)-1].Seq, writers*per)
	}
}

func TestMergeEvents(t *testing.T) {
	a := []Event{
		{Seq: 1, At: 1 * time.Hour, Habitat: "hab-00", Kind: "x"},
		{Seq: 2, At: 3 * time.Hour, Habitat: "hab-00", Kind: "y"},
	}
	b := []Event{
		{Seq: 1, At: 2 * time.Hour, Habitat: "hab-01", Kind: "z"},
		{Seq: 2, At: 3 * time.Hour, Habitat: "hab-01", Kind: "w"},
	}
	got := MergeEvents(a, b)
	wantKinds := []string{"x", "z", "y", "w"}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Errorf("merged[%d] = %q, want %q", i, got[i].Kind, k)
		}
	}
}

func TestParseSeverity(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want EventSeverity
		ok   bool
	}{
		{"debug", SevDebug, true}, {"info", SevInfo, true},
		{"warning", SevWarn, true}, {"warn", SevWarn, true},
		{"error", SevError, true}, {"", 0, false}, {"fatal", 0, false},
	} {
		got, ok := ParseSeverity(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseSeverity(%q) = %v,%v want %v,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	// Round trip.
	for _, s := range []EventSeverity{SevDebug, SevInfo, SevWarn, SevError} {
		if got, ok := ParseSeverity(s.String()); !ok || got != s {
			t.Errorf("round trip %v failed", s)
		}
	}
}
