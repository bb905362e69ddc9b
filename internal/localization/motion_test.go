package localization

import (
	"math"
	"testing"
	"time"

	"icares/internal/geometry"
	"icares/internal/habitat"
)

func fixAt(sec int, room habitat.RoomID, x, y float64) Fix {
	return Fix{
		At:   time.Duration(sec) * time.Second,
		Room: room,
		Pos:  geometry.Point{X: x, Y: y},
	}
}

func TestSpeedsBasic(t *testing.T) {
	fixes := []Fix{
		fixAt(0, habitat.Atrium, 0, 0),
		fixAt(10, habitat.Atrium, 10, 0), // 1 m/s
		fixAt(20, habitat.Atrium, 10, 5), // 0.5 m/s
	}
	got := Speeds(fixes, time.Minute)
	if len(got) != 2 {
		t.Fatalf("speeds = %v", got)
	}
	if math.Abs(got[0].Speed-1) > 1e-9 || math.Abs(got[1].Speed-0.5) > 1e-9 {
		t.Errorf("speeds = %v, %v", got[0].Speed, got[1].Speed)
	}
}

func TestSpeedsSkipsGapsAndRoomChanges(t *testing.T) {
	fixes := []Fix{
		fixAt(0, habitat.Atrium, 0, 0),
		fixAt(600, habitat.Atrium, 10, 0),  // 10-minute gap: skipped
		fixAt(610, habitat.Kitchen, 8, 11), // room change: skipped
		fixAt(620, habitat.Kitchen, 9, 11),
	}
	got := Speeds(fixes, time.Minute)
	if len(got) != 1 {
		t.Fatalf("speeds = %v", got)
	}
	if math.Abs(got[0].Speed-0.1) > 1e-9 {
		t.Errorf("speed = %v", got[0].Speed)
	}
}

func TestSpeedsEmpty(t *testing.T) {
	if got := Speeds(nil, 0); len(got) != 0 {
		t.Errorf("speeds of nothing = %v", got)
	}
	if got := Speeds([]Fix{fixAt(0, habitat.Atrium, 0, 0)}, 0); len(got) != 0 {
		t.Errorf("speeds of one fix = %v", got)
	}
}

func TestLocationChangeRate(t *testing.T) {
	mk := func(room habitat.RoomID, fromMin, toMin int) Interval {
		return Interval{
			Room: room,
			From: time.Duration(fromMin) * time.Minute,
			To:   time.Duration(toMin) * time.Minute,
		}
	}
	ivs := []Interval{
		mk(habitat.Office, 0, 30),
		mk(habitat.Kitchen, 30, 40),
		mk(habitat.Office, 40, 60),
	}
	// 2 changes over 1 h of tracked time.
	if got := LocationChangeRate(ivs); math.Abs(got-2) > 1e-9 {
		t.Errorf("rate = %v", got)
	}
	if LocationChangeRate(nil) != 0 {
		t.Error("rate of nothing nonzero")
	}
}
