// Package habitat models the analog-habitat floor plan the mission runs in:
// rooms, walls with RF-relevant materials, doorways, and the fixed BLE
// beacon sites.
//
// The built-in Standard layout follows the Lunares habitat described in the
// paper: separate modules of distinct kinds (bedroom, kitchen, office,
// biological laboratory, equipment storage, gym, restroom, workshop) arranged
// around a central resting area (the "main room adjacent to all other rooms"
// excluded from Fig. 2), with the only exit leading through an airlock to the
// EVA hangar. Room walls are metal, which — as the paper reports — perfectly
// shields beacon signals between rooms and makes room-level localization
// exact.
package habitat

import (
	"errors"
	"fmt"

	"icares/internal/geometry"
	"icares/internal/stats"
)

// RoomID identifies a room in the habitat.
type RoomID int

// Rooms of the standard Lunares-like layout. Atrium is the central resting
// area connecting all modules.
const (
	Atrium RoomID = iota + 1
	Airlock
	Bedroom
	Biolab
	Gym
	Kitchen
	Office
	Restroom
	Storage
	Workshop
)

// roomNames maps RoomID to its display name.
var roomNames = map[RoomID]string{
	Atrium:   "atrium",
	Airlock:  "airlock",
	Bedroom:  "bedroom",
	Biolab:   "biolab",
	Gym:      "gym",
	Kitchen:  "kitchen",
	Office:   "office",
	Restroom: "restroom",
	Storage:  "storage",
	Workshop: "workshop",
}

// String returns the room's lowercase display name.
func (id RoomID) String() string {
	if n, ok := roomNames[id]; ok {
		return n
	}
	return fmt.Sprintf("room(%d)", int(id))
}

// NoRoom is the zero RoomID, meaning "outside every room" (e.g. during EVA).
const NoRoom RoomID = 0

// Material describes what a wall is made of, for RF attenuation.
type Material int

// Wall materials.
const (
	Metal Material = iota + 1 // habitat module walls: effectively RF-opaque
	Glass                     // interior partitions
	Soft                      // curtains, equipment racks
)

// AttenuationDB returns the one-crossing signal loss for the material at
// 2.4 GHz. The paper reports metal walls "perfectly shielded the signal from
// the beacons in the other rooms"; 60 dB effectively removes a beacon from
// the scan list at habitat scale.
func (m Material) AttenuationDB() float64 {
	switch m {
	case Metal:
		return 60
	case Glass:
		return 8
	case Soft:
		return 3
	default:
		return 0
	}
}

// Wall is a straight wall segment of a given material. Doorway gaps are not
// part of any wall segment.
type Wall struct {
	Seg      geometry.Segment
	Material Material
}

// Door is an opening between two rooms.
type Door struct {
	A, B RoomID         // the rooms the door connects
	At   geometry.Point // door midpoint (a movement waypoint)
}

// Room is one habitat module.
type Room struct {
	ID     RoomID
	Name   string
	Bounds geometry.Rect
}

// BeaconSite is a fixed BLE beacon placement.
type BeaconSite struct {
	ID   int
	Pos  geometry.Point
	Room RoomID
}

// Habitat is a complete floor plan.
type Habitat struct {
	rooms   []Room
	byID    map[RoomID]int
	walls   []Wall
	doors   []Door
	beacons []BeaconSite
	bounds  geometry.Rect

	// wallBoxes[i] is walls[i]'s bounding box padded by wallBoxPad, the
	// exact prefilter WallLossDB tests before Segment.Intersects.
	wallBoxes []geometry.Rect
}

// ErrUnknownRoom is returned for lookups of rooms not in the habitat.
var ErrUnknownRoom = errors.New("habitat: unknown room")

// Rooms returns the rooms in the habitat (copy).
func (h *Habitat) Rooms() []Room {
	out := make([]Room, len(h.rooms))
	copy(out, h.rooms)
	return out
}

// RoomIDs returns all room IDs in declaration order.
func (h *Habitat) RoomIDs() []RoomID {
	out := make([]RoomID, 0, len(h.rooms))
	for _, r := range h.rooms {
		out = append(out, r.ID)
	}
	return out
}

// Room returns the room with the given ID.
func (h *Habitat) Room(id RoomID) (Room, error) {
	i, ok := h.byID[id]
	if !ok {
		return Room{}, ErrUnknownRoom
	}
	return h.rooms[i], nil
}

// Walls returns the wall segments (copy).
func (h *Habitat) Walls() []Wall {
	out := make([]Wall, len(h.walls))
	copy(out, h.walls)
	return out
}

// Doors returns the doorways (copy).
func (h *Habitat) Doors() []Door {
	out := make([]Door, len(h.doors))
	copy(out, h.doors)
	return out
}

// Beacons returns the beacon sites (copy).
func (h *Habitat) Beacons() []BeaconSite {
	out := make([]BeaconSite, len(h.beacons))
	copy(out, h.beacons)
	return out
}

// Bounds returns the overall floor-plan bounding rectangle.
func (h *Habitat) Bounds() geometry.Rect { return h.bounds }

// RoomAt returns the room containing p, or NoRoom if p is outside every
// room. Points on shared boundaries resolve to the first room in declaration
// order.
func (h *Habitat) RoomAt(p geometry.Point) RoomID {
	for _, r := range h.rooms {
		if r.Bounds.Contains(p) {
			return r.ID
		}
	}
	return NoRoom
}

// DoorBetween returns the waypoint of a door directly connecting rooms a and
// b, if one exists.
func (h *Habitat) DoorBetween(a, b RoomID) (geometry.Point, bool) {
	for _, d := range h.doors {
		if (d.A == a && d.B == b) || (d.A == b && d.B == a) {
			return d.At, true
		}
	}
	return geometry.Point{}, false
}

// Adjacent reports whether rooms a and b share a door.
func (h *Habitat) Adjacent(a, b RoomID) bool {
	_, ok := h.DoorBetween(a, b)
	return ok
}

// Path returns movement waypoints from a point in room `from` to a point in
// room `to`, routing through doors (and the atrium when there is no direct
// door). The returned slice excludes the start and end points themselves.
func (h *Habitat) Path(from, to RoomID) ([]geometry.Point, error) {
	if from == to {
		return nil, nil
	}
	if _, ok := h.byID[from]; !ok {
		return nil, fmt.Errorf("path from: %w", ErrUnknownRoom)
	}
	if _, ok := h.byID[to]; !ok {
		return nil, fmt.Errorf("path to: %w", ErrUnknownRoom)
	}
	if at, ok := h.DoorBetween(from, to); ok {
		return []geometry.Point{at}, nil
	}
	// Route through the atrium hub.
	d1, ok1 := h.DoorBetween(from, Atrium)
	d2, ok2 := h.DoorBetween(to, Atrium)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("no route %v -> %v", from, to)
	}
	mid := d1.Lerp(d2, 0.5)
	return []geometry.Point{d1, mid, d2}, nil
}

// WallLossDB returns the total wall attenuation along the straight line from
// p to q, summing the material loss of every crossed wall segment. Doorway
// gaps contribute nothing, so line-of-sight through an open door is free.
//
// A wall whose padded box misses the ray's box is skipped without calling
// Segment.Intersects; the skip never changes an answer (see wallBoxPad), and
// the walls left are summed in wall order, so the loss is bit-identical to
// testing every wall.
func (h *Habitat) WallLossDB(p, q geometry.Point) float64 {
	ray := geometry.Segment{A: p, B: q}
	box := geometry.NewRect(p, q)
	var loss float64
	for i, b := range h.wallBoxes {
		if b.Min.X > box.Max.X || b.Max.X < box.Min.X || b.Min.Y > box.Max.Y || b.Max.Y < box.Min.Y {
			continue
		}
		if w := h.walls[i]; ray.Intersects(w.Seg) {
			loss += w.Material.AttenuationDB()
		}
	}
	return loss
}

// RandomPointIn returns a uniformly random point strictly inside the room,
// inset from the walls by margin meters.
func (h *Habitat) RandomPointIn(id RoomID, margin float64, rng *stats.RNG) (geometry.Point, error) {
	r, err := h.Room(id)
	if err != nil {
		return geometry.Point{}, err
	}
	in := r.Bounds.Inset(margin)
	return geometry.Point{
		X: rng.Range(in.Min.X, in.Max.X+1e-9),
		Y: rng.Range(in.Min.Y, in.Max.Y+1e-9),
	}, nil
}

// Center returns the center point of the room.
func (h *Habitat) Center(id RoomID) (geometry.Point, error) {
	r, err := h.Room(id)
	if err != nil {
		return geometry.Point{}, err
	}
	return r.Bounds.Center(), nil
}
