// Package beacon models the 27 fixed BLE beacons deployed in the habitat.
// Each beacon broadcasts an advertisement announcing its presence about
// three times per second; badges record these messages together with the
// received signal strength indicator, which later feeds the positioning
// algorithm (paper, Section IV).
//
// For simulation efficiency, reception is computed on demand when a badge
// scans: the fleet returns what a scan window at a given position would have
// captured. The room-shielding behaviour the paper reports (metal walls
// perfectly blocking other rooms' beacons) emerges from the radio channel's
// wall model; only candidate beacons that could plausibly be heard — same
// room, or an adjacent room through an open door — are evaluated, which is
// both faithful and fast.
package beacon

import (
	"errors"

	"icares/internal/geometry"
	"icares/internal/habitat"
	"icares/internal/radio"
)

// AdvertisementHz is the nominal advertisement rate of a beacon.
const AdvertisementHz = 3

// DefaultTxPowerDBm is the beacons' transmit power.
const DefaultTxPowerDBm = 0

// Obs is one beacon observation captured during a scan window.
type Obs struct {
	BeaconID int
	RSSI     float64
}

// ErrNilChannel is returned when constructing a fleet without a channel.
var ErrNilChannel = errors.New("beacon: nil channel")

// Fleet is the set of deployed beacons bound to a radio channel.
type Fleet struct {
	hab     *habitat.Habitat
	ch      *radio.Channel
	sites   []habitat.BeaconSite
	doors   []habitat.Door
	byRoom  map[habitat.RoomID][]habitat.BeaconSite
	txPower float64
}

// NewFleet deploys the habitat's beacon sites over the given BLE channel.
func NewFleet(hab *habitat.Habitat, ch *radio.Channel) (*Fleet, error) {
	if hab == nil {
		return nil, radio.ErrNoHabitat
	}
	if ch == nil {
		return nil, ErrNilChannel
	}
	f := &Fleet{
		hab:     hab,
		ch:      ch,
		sites:   hab.Beacons(),
		doors:   hab.Doors(),
		byRoom:  make(map[habitat.RoomID][]habitat.BeaconSite),
		txPower: DefaultTxPowerDBm,
	}
	for _, s := range f.sites {
		f.byRoom[s.Room] = append(f.byRoom[s.Room], s)
	}
	return f, nil
}

// Sites returns the deployed beacon sites (copy).
func (f *Fleet) Sites() []habitat.BeaconSite {
	out := make([]habitat.BeaconSite, len(f.sites))
	copy(out, f.sites)
	return out
}

// doorBleedRange is how close to a doorway a receiver must be for beacons
// of the adjacent room to become candidates — the "occasional beacon
// signals from another room slipped through open doors" that the paper's
// 10 s dwell filter exists to suppress.
const doorBleedRange = 2.0

// Scan returns the beacon advertisements a badge at pos captures during one
// scan window. Each candidate beacon is sampled once; per-packet shadowing
// comes from the channel.
func (f *Fleet) Scan(pos geometry.Point) []Obs {
	room := f.hab.RoomAt(pos)
	if room == habitat.NoRoom {
		return nil // e.g. EVA hangar: out of coverage
	}
	candidates := f.byRoom[room]

	// Near a doorway, the adjacent room's beacons can bleed through.
	var extra []habitat.BeaconSite
	for _, d := range f.doors {
		if d.A != room && d.B != room {
			continue
		}
		if pos.Dist(d.At) > doorBleedRange {
			continue
		}
		other := d.A
		if other == room {
			other = d.B
		}
		extra = append(extra, f.byRoom[other]...)
	}

	out := make([]Obs, 0, len(candidates)+len(extra))
	for _, s := range candidates {
		if tr := f.ch.Transmit(s.Pos, pos, f.txPower); tr.Received {
			out = append(out, Obs{BeaconID: s.ID, RSSI: tr.RSSI})
		}
	}
	for _, s := range extra {
		if tr := f.ch.Transmit(s.Pos, pos, f.txPower); tr.Received {
			out = append(out, Obs{BeaconID: s.ID, RSSI: tr.RSSI})
		}
	}
	return out
}

// Site returns the site of a beacon by ID.
func (f *Fleet) Site(id int) (habitat.BeaconSite, bool) {
	for _, s := range f.sites {
		if s.ID == id {
			return s, true
		}
	}
	return habitat.BeaconSite{}, false
}
