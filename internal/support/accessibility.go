package support

import (
	"fmt"
	"slices"
	"strings"
)

// Ability-based design (the paper's Section VI-C-4, after Wobbrock et al.):
// "we recommend that the whole habitat technology provides accessibility
// support aimed at diverse human senses, with informative light signals
// complemented by sounds, buttons corresponding to voice commands and other
// solutions of this kind." During ICAres-1 the system's reliance on e-ink
// ID displays caused the visually impaired astronaut A to swap badges with
// B; the renderer here delivers every alert in the modalities its
// recipient can actually use.

// Modality is one way of delivering information to a crew member.
type Modality int

// Delivery modalities.
const (
	VisualText Modality = iota + 1 // screen or e-ink text
	LightCue                       // color-coded light signal
	AudioCue                       // spoken or tonal audio
	HapticCue                      // vibration pattern
)

// String returns the modality name.
func (m Modality) String() string {
	switch m {
	case VisualText:
		return "visual-text"
	case LightCue:
		return "light"
	case AudioCue:
		return "audio"
	case HapticCue:
		return "haptic"
	default:
		return fmt.Sprintf("modality(%d)", int(m))
	}
}

// AbilityProfile describes what a crew member can perceive. Abilities can
// degrade temporarily (EVA gloves, a dark module, suit noise), so the
// profile is a value that callers may adjust per situation.
type AbilityProfile struct {
	Name    string
	Sees    bool // can read text and see light cues
	Hears   bool
	Touches bool
}

// FullAbility returns an unimpaired profile.
func FullAbility(name string) AbilityProfile {
	return AbilityProfile{Name: name, Sees: true, Hears: true, Touches: true}
}

// Rendering is an alert mapped onto concrete deliveries for one recipient.
type Rendering struct {
	Recipient  string
	Modalities []Modality
	Text       string
}

// Renderer maps alerts onto per-recipient modalities.
type Renderer struct {
	profiles map[string]AbilityProfile
}

// NewRenderer builds a renderer over the crew's ability profiles.
func NewRenderer(profiles []AbilityProfile) *Renderer {
	r := &Renderer{profiles: make(map[string]AbilityProfile, len(profiles))}
	for _, p := range profiles {
		r.profiles[p.Name] = p
	}
	return r
}

// Profile returns the stored profile (full ability for unknown names, the
// safe default).
func (r *Renderer) Profile(name string) AbilityProfile {
	if p, ok := r.profiles[name]; ok {
		return p
	}
	return FullAbility(name)
}

// SetProfile updates a member's abilities (e.g. donning an EVA suit).
func (r *Renderer) SetProfile(p AbilityProfile) {
	r.profiles[p.Name] = p
}

// Render produces the deliveries for one alert: the subject (or, for
// crew-wide alerts, every profiled member) receives the message through
// every modality their profile supports, with severity escalation adding
// redundant channels.
func (r *Renderer) Render(a Alert) []Rendering {
	recipients := []string{a.Subject}
	if a.Subject == "" {
		recipients = recipients[:0]
		for name := range r.profiles {
			recipients = append(recipients, name)
		}
		slices.Sort(recipients)
	}
	out := make([]Rendering, 0, len(recipients))
	for _, name := range recipients {
		p := r.Profile(name)
		var ms []Modality
		if p.Sees {
			ms = append(ms, VisualText)
			if a.Severity >= Warning {
				ms = append(ms, LightCue)
			}
		}
		if p.Hears && (a.Severity >= Warning || !p.Sees) {
			ms = append(ms, AudioCue)
		}
		if p.Touches && (a.Severity >= Critical || (!p.Sees && !p.Hears)) {
			ms = append(ms, HapticCue)
		}
		if len(ms) == 0 {
			// Nothing perceivable: escalate through every channel anyway
			// rather than dropping a safety alert silently.
			ms = []Modality{VisualText, LightCue, AudioCue, HapticCue}
		}
		out = append(out, Rendering{
			Recipient:  name,
			Modalities: ms,
			Text:       renderText(a),
		})
	}
	return out
}

func renderText(a Alert) string {
	var b strings.Builder
	b.WriteString(strings.ToUpper(a.Severity.String()))
	b.WriteString(": ")
	b.WriteString(a.Message)
	return b.String()
}
