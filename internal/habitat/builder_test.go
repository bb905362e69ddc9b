package habitat

import (
	"errors"
	"testing"

	"icares/internal/geometry"
)

// twoRoomPlan builds a minimal two-module habitat with a door and beacons.
func twoRoomPlan(t *testing.T) *Habitat {
	t.Helper()
	h, err := NewBuilder().
		AddRoom(Kitchen, geometry.Point{X: 0, Y: 0}, geometry.Point{X: 6, Y: 6}).
		AddRoom(Office, geometry.Point{X: 6, Y: 0}, geometry.Point{X: 12, Y: 6}).
		AddDoor(Kitchen, Office).
		PlaceBeacon(1, Kitchen, geometry.Point{X: 2, Y: 3}).
		PlaceBeacon(2, Office, geometry.Point{X: 10, Y: 3}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuilderTwoRooms(t *testing.T) {
	h := twoRoomPlan(t)
	if got := len(h.rooms); got != 2 {
		t.Fatalf("rooms = %d", got)
	}
	if _, ok := h.DoorBetween(Kitchen, Office); !ok {
		t.Error("door missing")
	}
	door, _ := h.DoorBetween(Kitchen, Office)
	if door.X != 6 || door.Y != 3 {
		t.Errorf("door at %v", door)
	}
	if got := h.RoomAt(geometry.Point{X: 3, Y: 3}); got != Kitchen {
		t.Errorf("room at kitchen center = %v", got)
	}
	if got := len(h.Beacons()); got != 2 {
		t.Errorf("beacons = %d", got)
	}
	// The shared wall shields, except through the doorway.
	a := geometry.Point{X: 3, Y: 1}
	b := geometry.Point{X: 9, Y: 1}
	if loss := h.WallLossDB(a, b); loss < Metal.AttenuationDB() {
		t.Errorf("cross-room loss = %v", loss)
	}
	throughDoorA := geometry.Point{X: 5.7, Y: 3}
	throughDoorB := geometry.Point{X: 6.3, Y: 3}
	if loss := h.WallLossDB(throughDoorA, throughDoorB); loss != 0 {
		t.Errorf("through-door loss = %v", loss)
	}
	// Path routes directly through the door.
	wps, err := h.Path(Kitchen, Office)
	if err != nil || len(wps) != 1 {
		t.Errorf("path = %v, %v", wps, err)
	}
}

func TestBuilderValidation(t *testing.T) {
	// Duplicate room.
	_, err := NewBuilder().
		AddRoom(Kitchen, geometry.Point{}, geometry.Point{X: 2, Y: 2}).
		AddRoom(Kitchen, geometry.Point{X: 5, Y: 5}, geometry.Point{X: 7, Y: 7}).
		Build()
	if !errors.Is(err, ErrDuplicateRoom) {
		t.Errorf("duplicate room: %v", err)
	}
	// Overlapping rooms.
	_, err = NewBuilder().
		AddRoom(Kitchen, geometry.Point{}, geometry.Point{X: 4, Y: 4}).
		AddRoom(Office, geometry.Point{X: 3, Y: 3}, geometry.Point{X: 6, Y: 6}).
		Build()
	if !errors.Is(err, ErrRoomOverlap) {
		t.Errorf("overlap: %v", err)
	}
	// Door between disjoint rooms.
	_, err = NewBuilder().
		AddRoom(Kitchen, geometry.Point{}, geometry.Point{X: 2, Y: 2}).
		AddRoom(Office, geometry.Point{X: 5, Y: 5}, geometry.Point{X: 7, Y: 7}).
		AddDoor(Kitchen, Office).
		Build()
	if !errors.Is(err, ErrNoSharedWall) {
		t.Errorf("no shared wall: %v", err)
	}
	// Beacon outside its room.
	_, err = NewBuilder().
		AddRoom(Kitchen, geometry.Point{}, geometry.Point{X: 2, Y: 2}).
		PlaceBeacon(1, Kitchen, geometry.Point{X: 9, Y: 9}).
		Build()
	if !errors.Is(err, ErrBeaconPlacement) {
		t.Errorf("beacon placement: %v", err)
	}
	// Duplicate beacon.
	_, err = NewBuilder().
		AddRoom(Kitchen, geometry.Point{}, geometry.Point{X: 4, Y: 4}).
		PlaceBeacon(1, Kitchen, geometry.Point{X: 1, Y: 1}).
		PlaceBeacon(1, Kitchen, geometry.Point{X: 2, Y: 2}).
		Build()
	if !errors.Is(err, ErrDuplicateBeacon) {
		t.Errorf("duplicate beacon: %v", err)
	}
	// Empty plan.
	if _, err := NewBuilder().Build(); !errors.Is(err, ErrEmptyPlan) {
		t.Errorf("empty: %v", err)
	}
	// Unknown rooms in door/beacon.
	_, err = NewBuilder().
		AddRoom(Kitchen, geometry.Point{}, geometry.Point{X: 2, Y: 2}).
		AddDoor(Kitchen, Office).
		Build()
	if !errors.Is(err, ErrUnknownRoom) {
		t.Errorf("unknown door room: %v", err)
	}
	// Zero-area room.
	_, err = NewBuilder().
		AddRoom(Kitchen, geometry.Point{X: 1, Y: 1}, geometry.Point{X: 1, Y: 5}).
		Build()
	if err == nil {
		t.Error("zero-area room accepted")
	}
}

func TestBuilderVerticalDoor(t *testing.T) {
	h, err := NewBuilder().
		AddRoom(Kitchen, geometry.Point{X: 0, Y: 0}, geometry.Point{X: 6, Y: 4}).
		AddRoom(Bedroom, geometry.Point{X: 0, Y: 4}, geometry.Point{X: 6, Y: 8}).
		AddDoor(Kitchen, Bedroom).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	door, ok := h.DoorBetween(Kitchen, Bedroom)
	if !ok || door.Y != 4 || door.X != 3 {
		t.Errorf("door = %v, %v", door, ok)
	}
}

func TestBuilderBounds(t *testing.T) {
	h := twoRoomPlan(t)
	b := h.Bounds()
	if b.Min != (geometry.Point{X: 0, Y: 0}) || b.Max != (geometry.Point{X: 12, Y: 6}) {
		t.Errorf("bounds = %+v", b)
	}
}
