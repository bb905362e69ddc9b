package uplink

import (
	"errors"
	"testing"
	"time"
)

func TestSendReceiveDelay(t *testing.T) {
	l := NewLink(20 * time.Minute)
	msg, err := l.Send(0, Message{From: Habitat, Kind: Report, Topic: "status", Bytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	if msg.ArrivesAt != 20*time.Minute {
		t.Errorf("arrives at %v", msg.ArrivesAt)
	}
	// Not yet arrived.
	if got := l.Receive(MissionControl, 19*time.Minute); len(got) != 0 {
		t.Errorf("early delivery: %v", got)
	}
	if n := len(l.inFlight[MissionControl]); n != 1 {
		t.Errorf("pending = %d", n)
	}
	got := l.Receive(MissionControl, 20*time.Minute)
	if len(got) != 1 || got[0].Topic != "status" {
		t.Fatalf("delivery = %v", got)
	}
	// Consumed.
	if got := l.Receive(MissionControl, time.Hour); len(got) != 0 {
		t.Errorf("double delivery: %v", got)
	}
}

func TestReceiveOrdering(t *testing.T) {
	l := NewLink(10 * time.Minute)
	for i, topic := range []string{"a", "b", "c"} {
		if _, err := l.Send(time.Duration(i)*time.Minute, Message{From: MissionControl, Kind: Command, Topic: topic}); err != nil {
			t.Fatal(err)
		}
	}
	got := l.Receive(Habitat, time.Hour)
	if len(got) != 3 {
		t.Fatalf("deliveries = %d", len(got))
	}
	if got[0].Topic != "a" || got[2].Topic != "c" {
		t.Errorf("order = %v, %v, %v", got[0].Topic, got[1].Topic, got[2].Topic)
	}
}

func TestDefaultDelayApplied(t *testing.T) {
	l := NewLink(0)
	if l.Delay() != DefaultDelay {
		t.Errorf("delay = %v", l.Delay())
	}
}

func TestBadEndpoint(t *testing.T) {
	l := NewLink(time.Minute)
	if _, err := l.Send(0, Message{From: Endpoint(9)}); !errors.Is(err, ErrBadEndpoint) {
		t.Errorf("bad endpoint: %v", err)
	}
}

func TestTopicStateConflict(t *testing.T) {
	ts := NewTopicState()
	// Mission control composes a command against version 0.
	cmd := Message{Kind: Command, Topic: "task-plan", BasisVersion: ts.Version("task-plan")}
	// Meanwhile the crew acts: version advances.
	if v := ts.Advance("task-plan"); v != 1 {
		t.Fatalf("version = %d", v)
	}
	// The delayed command arrives: stale.
	c := ts.Check(cmd)
	if c == nil {
		t.Fatal("stale command not flagged")
	}
	if c.CurrentVersion != 1 {
		t.Errorf("current version = %d", c.CurrentVersion)
	}
	// A fresh command passes.
	fresh := Message{Kind: Command, Topic: "task-plan", BasisVersion: 1}
	if ts.Check(fresh) != nil {
		t.Error("fresh command flagged")
	}
	// Reports never conflict.
	rep := Message{Kind: Report, Topic: "task-plan", BasisVersion: 0}
	if ts.Check(rep) != nil {
		t.Error("report flagged")
	}
}

func TestDay12IncidentEndToEnd(t *testing.T) {
	// Reconstruction of the paper's day-12 event: the crew reports state,
	// mission control replies with an instruction based on that state, but
	// by the time it arrives (40 min round trip) the crew has already
	// taken a different course of action.
	l := NewLink(20 * time.Minute)
	crew := NewTopicState()

	// t=0: crew sends a status report (topic version 0).
	if _, err := l.Send(0, Message{
		From: Habitat, Kind: Report, Topic: "experiment-7",
		BasisVersion: crew.Version("experiment-7"),
	}); err != nil {
		t.Fatal(err)
	}

	// t=20m: MC receives, composes a command against version 0.
	inbox := l.Receive(MissionControl, 20*time.Minute)
	if len(inbox) != 1 {
		t.Fatal("report not delivered")
	}
	if _, err := l.Send(20*time.Minute, Message{
		From: MissionControl, Kind: Command, Topic: "experiment-7",
		BasisVersion: inbox[0].BasisVersion,
		Body:         "abort procedure and restart with protocol B",
	}); err != nil {
		t.Fatal(err)
	}

	// t=25m: the crew, unable to wait, proceeds with protocol A.
	crew.Advance("experiment-7")

	// t=40m: the command arrives — and must be flagged as conflicting.
	cmds := l.Receive(Habitat, 40*time.Minute)
	if len(cmds) != 1 {
		t.Fatal("command not delivered")
	}
	if c := crew.Check(cmds[0]); c == nil {
		t.Fatal("day-12 conflict not detected")
	}
}

func TestEndpointAndKindStrings(t *testing.T) {
	if Habitat.String() != "habitat" || MissionControl.String() != "mission control" {
		t.Error("endpoint names")
	}
	if Endpoint(9).String() != "unknown endpoint" {
		t.Error("unknown endpoint name")
	}
	if Report.String() != "report" || Command.String() != "command" || Ack.String() != "ack" {
		t.Error("kind names")
	}
	if Kind(9).String() != "unknown kind" {
		t.Error("unknown kind name")
	}
}

func TestBlackoutQueuesInsteadOfDropping(t *testing.T) {
	l := NewLink(20 * time.Minute)
	l.AddBlackout(time.Hour, 2*time.Hour)
	// Sent mid-blackout: queued, transmission starts when the window
	// lifts, so arrival is blackout end + propagation delay.
	msg, err := l.Send(90*time.Minute, Message{From: Habitat, Kind: Report, Topic: "status"})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*time.Hour + 20*time.Minute; msg.ArrivesAt != want {
		t.Errorf("arrives at %v, want %v", msg.ArrivesAt, want)
	}
	if got := l.Receive(MissionControl, 2*time.Hour+19*time.Minute); len(got) != 0 {
		t.Errorf("delivery during propagation: %v", got)
	}
	if got := l.Receive(MissionControl, 2*time.Hour+20*time.Minute); len(got) != 1 {
		t.Errorf("queued message never delivered: %v", got)
	}
}

func TestBlackoutCascadesAcrossWindows(t *testing.T) {
	l := NewLink(time.Minute)
	// Back-to-back windows: the transmission start must clear both.
	l.AddBlackout(time.Hour, 2*time.Hour)
	l.AddBlackout(2*time.Hour, 3*time.Hour)
	msg, err := l.Send(90*time.Minute, Message{From: MissionControl, Kind: Report, Topic: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*time.Hour + time.Minute; msg.ArrivesAt != want {
		t.Errorf("arrives at %v, want %v", msg.ArrivesAt, want)
	}
}

func TestStaleCommandAfterBlackoutStillConflicts(t *testing.T) {
	// The day-12 failure mode, aggravated by a blackout: mission control
	// composes a command against version 1, the blackout delays it, and by
	// arrival the crew has advanced the topic — conflict detection must
	// still fire on the late arrival.
	l := NewLink(20 * time.Minute)
	l.AddBlackout(time.Hour, 3*time.Hour)
	habitat := NewTopicState()
	habitat.Advance("task-plan") // version 1, known to both sides

	msg, err := l.Send(time.Hour, Message{
		From: MissionControl, Kind: Command, Topic: "task-plan", BasisVersion: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if msg.ArrivesAt <= 3*time.Hour {
		t.Fatalf("blackout did not delay the command: arrives %v", msg.ArrivesAt)
	}
	// During the blackout the crew acts on its own (autonomy).
	habitat.Advance("task-plan") // version 2
	arrived := l.Receive(Habitat, msg.ArrivesAt)
	if len(arrived) != 1 {
		t.Fatalf("arrivals = %d", len(arrived))
	}
	c := habitat.Check(arrived[0])
	if c == nil {
		t.Fatal("stale command arriving after blackout not flagged")
	}
	if c.CurrentVersion != 2 {
		t.Errorf("conflict current version = %d, want 2", c.CurrentVersion)
	}
}
