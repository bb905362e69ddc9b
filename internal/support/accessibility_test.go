package support

import (
	"errors"
	"testing"
	"time"
)

func TestRendererModalitiesByAbility(t *testing.T) {
	r := NewRenderer([]AbilityProfile{
		{Name: "A", Sees: false, Hears: true, Touches: true}, // visually impaired
		FullAbility("B"),
	})

	// Info alert to the sighted member: text only.
	rb := r.Render(Alert{Severity: Info, Subject: "B", Message: "drink water"})
	if len(rb) != 1 {
		t.Fatalf("renderings = %d", len(rb))
	}
	if !hasModality(rb[0], VisualText) || hasModality(rb[0], AudioCue) {
		t.Errorf("B info modalities = %v", rb[0].Modalities)
	}

	// The same info alert to A must use audio, never text.
	ra := r.Render(Alert{Severity: Info, Subject: "A", Message: "drink water"})
	if hasModality(ra[0], VisualText) {
		t.Error("text rendered for a non-seeing recipient")
	}
	if !hasModality(ra[0], AudioCue) {
		t.Errorf("A info modalities = %v", ra[0].Modalities)
	}

	// Critical alerts escalate: B gets light + audio + haptics too.
	rc := r.Render(Alert{Severity: Critical, Subject: "B", Message: "fire"})
	for _, m := range []Modality{VisualText, LightCue, AudioCue, HapticCue} {
		if !hasModality(rc[0], m) {
			t.Errorf("critical to B missing %v", m)
		}
	}
}

func TestRendererCrewWideAlert(t *testing.T) {
	r := NewRenderer([]AbilityProfile{FullAbility("A"), FullAbility("B"), FullAbility("C")})
	out := r.Render(Alert{Severity: Warning, Message: "pressure drop in airlock"})
	if len(out) != 3 {
		t.Fatalf("crew-wide renderings = %d", len(out))
	}
	if out[0].Recipient != "A" || out[2].Recipient != "C" {
		t.Errorf("recipients = %v, %v, %v", out[0].Recipient, out[1].Recipient, out[2].Recipient)
	}
	if out[0].Text != "WARNING: pressure drop in airlock" {
		t.Errorf("text = %q", out[0].Text)
	}
}

func TestRendererNoPerceivableChannelEscalates(t *testing.T) {
	// During an EVA with gloves, dark, and suit noise, everything is
	// impaired — the renderer must still deliver on all channels rather
	// than drop the alert.
	r := NewRenderer([]AbilityProfile{{Name: "F"}})
	out := r.Render(Alert{Severity: Critical, Subject: "F", Message: "suit water leak"})
	if len(out[0].Modalities) != 4 {
		t.Errorf("deaf-blind-numb rendering = %v", out[0].Modalities)
	}
}

func TestRendererTemporaryImpairment(t *testing.T) {
	r := NewRenderer([]AbilityProfile{FullAbility("D")})
	// D dons an EVA suit: vision narrowed, gloves on.
	r.SetProfile(AbilityProfile{Name: "D", Sees: false, Hears: true, Touches: false})
	out := r.Render(Alert{Severity: Warning, Subject: "D", Message: "O2 margin low"})
	if hasModality(out[0], VisualText) || hasModality(out[0], HapticCue) {
		t.Errorf("suited modalities = %v", out[0].Modalities)
	}
	if !hasModality(out[0], AudioCue) {
		t.Error("suited member got no audio")
	}
	// Unknown members default to full ability.
	if p := r.Profile("Z"); !p.Sees || !p.Hears || !p.Touches {
		t.Errorf("default profile = %+v", p)
	}
}

func TestModalityString(t *testing.T) {
	if VisualText.String() != "visual-text" || HapticCue.String() != "haptic" {
		t.Error("modality names")
	}
	if Modality(9).String() != "modality(9)" {
		t.Error("unknown modality")
	}
}

func hasModality(r Rendering, m Modality) bool {
	for _, v := range r.Modalities {
		if v == m {
			return true
		}
	}
	return false
}

func TestLedgerConsumeAndFloor(t *testing.T) {
	l := NewLedger(map[Resource]Stock{
		Water: {Level: 100, ReservedMin: 20},
	})
	if err := l.Consume(time.Hour, Water, 30); err != nil {
		t.Fatal(err)
	}
	if lv := l.stocks[Water].Level; lv != 70 {
		t.Errorf("level = %v", lv)
	}
	// Floor enforcement.
	if err := l.Consume(2*time.Hour, Water, 60); err == nil {
		t.Error("overdraw accepted")
	}
	if err := l.Consume(2*time.Hour, Water, -1); err == nil {
		t.Error("negative consumption accepted")
	}
	if err := l.Consume(2*time.Hour, Oxygen, 1); !errors.Is(err, ErrUnknownResource) {
		t.Errorf("unknown resource: %v", err)
	}
	if err := l.Resupply(3*time.Hour, Water, 50); err != nil {
		t.Fatal(err)
	}
	if lv := l.stocks[Water].Level; lv != 120 {
		t.Errorf("after resupply = %v", lv)
	}
}

func TestLedgerRateAndForecast(t *testing.T) {
	l := NewLedger(map[Resource]Stock{
		Water: {Level: 100, ReservedMin: 10},
		Food:  {Level: 50, ReservedMin: 5},
	})
	// 10 units/day of water over 3 days; almost no food usage.
	for h := 1; h <= 72; h++ {
		if err := l.Consume(time.Duration(h)*time.Hour, Water, 10.0/24); err != nil {
			t.Fatal(err)
		}
	}
	rate := l.RatePerDay(Water, 48*time.Hour)
	if rate < 9 || rate > 11 {
		t.Errorf("water rate = %v", rate)
	}
	fc := l.Forecast(48 * time.Hour)
	if len(fc) != 2 {
		t.Fatalf("forecast = %v", fc)
	}
	// Water is the most urgent.
	if fc[0].Resource != Water {
		t.Errorf("most urgent = %v", fc[0].Resource)
	}
	// 100 - 30 consumed = 70; floor 10 -> 60 left at ~10/day = ~6 days.
	if fc[0].DaysLeft < 5 || fc[0].DaysLeft > 7 {
		t.Errorf("water days left = %v", fc[0].DaysLeft)
	}
}

func TestResourceWatchAlerts(t *testing.T) {
	l := NewLedger(map[Resource]Stock{
		Food: {Level: 20, ReservedMin: 2},
	})
	w := NewResourceWatch(l, 10*24*time.Hour) // 10-day horizon
	// Day 1-2: eat 3/day -> ~6 days left < 10-day horizon: warning...
	for h := 1; h <= 48; h++ {
		if err := l.Consume(time.Duration(h)*time.Hour, Food, 3.0/24); err != nil {
			t.Fatal(err)
		}
	}
	alerts := w.Check(48 * time.Hour)
	if len(alerts) != 1 || alerts[0].Severity != Critical && alerts[0].Severity != Warning {
		t.Fatalf("alerts = %v", alerts)
	}
	first := alerts[0].Severity
	// Same state: no duplicate alert.
	if again := w.Check(49 * time.Hour); len(again) != 0 {
		t.Errorf("duplicate alerts: %v", again)
	}
	// Consumption accelerates: escalation to critical (if not already).
	for h := 49; h <= 72; h++ {
		if err := l.Consume(time.Duration(h)*time.Hour, Food, 6.0/24); err != nil {
			t.Fatal(err)
		}
	}
	esc := w.Check(72 * time.Hour)
	if first == Warning && (len(esc) != 1 || esc[0].Severity != Critical) {
		t.Errorf("escalation = %v", esc)
	}
}

func TestResourceWatchRecovery(t *testing.T) {
	l := NewLedger(map[Resource]Stock{
		Power: {Level: 10, ReservedMin: 1},
	})
	w := NewResourceWatch(l, 5*24*time.Hour)
	for h := 1; h <= 24; h++ {
		if err := l.Consume(time.Duration(h)*time.Hour, Power, 2.0/24); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Check(24 * time.Hour); len(got) == 0 {
		t.Fatal("no alert before resupply")
	}
	// Big resupply: projection recovers, and a later shortage re-alerts.
	if err := l.Resupply(25*time.Hour, Power, 100); err != nil {
		t.Fatal(err)
	}
	if got := w.Check(26 * time.Hour); len(got) != 0 {
		t.Errorf("alert after recovery: %v", got)
	}
}
