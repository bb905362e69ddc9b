package support

import (
	"strings"
	"testing"
	"time"
)

func slot(who string, startH int, label string, demanding bool) TaskSlot {
	return TaskSlot{
		Astronaut: who,
		Start:     time.Duration(startH) * time.Hour,
		Label:     label,
		Demanding: demanding,
	}
}

func TestFatiguedFrom(t *testing.T) {
	now := 10 * time.Hour
	alerts := []Alert{
		{At: 9 * time.Hour, Severity: Critical, Kind: "inactivity", Subject: "A"},
		{At: 9 * time.Hour, Severity: Warning, Kind: "battery", Subject: "B"},
		{At: 9*time.Hour + 30*time.Minute, Severity: Warning, Kind: "quiet-crew", Subject: "B"},
		{At: 9 * time.Hour, Severity: Warning, Kind: "battery", Subject: "C"},
		{At: 2 * time.Hour, Severity: Critical, Kind: "inactivity", Subject: "D"}, // outside window
		{At: 9 * time.Hour, Severity: Warning, Kind: "quiet-crew"},                // crew-wide, no subject
	}
	got := FatiguedFrom(alerts, now, 4*time.Hour)
	if !got["A"] {
		t.Error("A (critical) not fatigued")
	}
	if !got["B"] {
		t.Error("B (two warnings) not fatigued")
	}
	if got["C"] {
		t.Error("C (one warning) fatigued")
	}
	if got["D"] {
		t.Error("D (stale alert) fatigued")
	}
}

func TestSuggestRescheduleSwap(t *testing.T) {
	plan := []TaskSlot{
		slot("A", 14, "EVA rover test", true),
		slot("B", 14, "inventory", false),
		slot("A", 16, "paperwork", false),
	}
	sugs := SuggestReschedule(plan, map[string]bool{"A": true}, 13*time.Hour)
	if len(sugs) != 1 {
		t.Fatalf("suggestions = %v", sugs)
	}
	s := sugs[0]
	if s.Swap == nil {
		t.Fatalf("expected a swap: %v", s)
	}
	if s.Swap[0].Astronaut != "A" || s.Swap[1].Astronaut != "B" {
		t.Errorf("swap = %v", s)
	}
	if !strings.Contains(s.String(), "swap") {
		t.Errorf("render = %q", s.String())
	}
}

func TestSuggestRescheduleRestWhenNoPartner(t *testing.T) {
	plan := []TaskSlot{
		slot("A", 14, "EVA", true),
		slot("B", 14, "precision assay", true), // demanding: not a partner
	}
	sugs := SuggestReschedule(plan, map[string]bool{"A": true}, 0)
	if len(sugs) != 1 || sugs[0].Rest == nil {
		t.Fatalf("suggestions = %v", sugs)
	}
	if !strings.Contains(sugs[0].String(), "rest break") {
		t.Errorf("render = %q", sugs[0].String())
	}
}

func TestSuggestRescheduleIgnoresPastAndRested(t *testing.T) {
	plan := []TaskSlot{
		slot("A", 9, "past EVA", true),     // in the past
		slot("B", 14, "future EVA", true),  // B not fatigued
		slot("A", 14, "light task", false), // not demanding
	}
	if sugs := SuggestReschedule(plan, map[string]bool{"A": true}, 10*time.Hour); len(sugs) != 0 {
		t.Errorf("suggestions = %v", sugs)
	}
}

func TestSuggestReschedulePartnerNotReused(t *testing.T) {
	plan := []TaskSlot{
		slot("A", 14, "EVA-1", true),
		slot("B", 14, "EVA-2", true),
		slot("C", 14, "inventory", false),
	}
	fatigued := map[string]bool{"A": true, "B": true}
	sugs := SuggestReschedule(plan, fatigued, 0)
	if len(sugs) != 2 {
		t.Fatalf("suggestions = %d", len(sugs))
	}
	// Only one of the two can swap with C; the other must rest.
	swaps, rests := 0, 0
	for _, s := range sugs {
		if s.Swap != nil {
			swaps++
			if s.Swap[1].Astronaut != "C" {
				t.Errorf("swap partner = %v", s.Swap[1].Astronaut)
			}
		}
		if s.Rest != nil {
			rests++
		}
	}
	if swaps != 1 || rests != 1 {
		t.Errorf("swaps=%d rests=%d", swaps, rests)
	}
}
