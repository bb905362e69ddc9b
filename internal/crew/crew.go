// Package crew simulates the astronauts: schedule-driven movement through
// the habitat, workstation anchoring, hydration side-trips, conversation
// turn-taking, and per-person behavioural traits (energy, talkativeness,
// voice fundamental, corner-shyness). It is the ground-truth generator that
// replaces the ICAres-1 field deployment; the sensing pipeline's job is to
// recover what this engine did from badge records alone.
//
// The engine is deliberately decoupled from the mission script: a Planner
// (implemented by internal/mission for ICAres-1) tells each member what they
// should be doing at any instant, and the engine turns that into continuous
// positions, headings, and speech.
package crew

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"icares/internal/geometry"
	"icares/internal/habitat"
	"icares/internal/stats"
)

// ActivityKind classifies what a schedule slot asks a member to do.
type ActivityKind int

// Activity kinds.
const (
	// Sleep: night rest; badges dock at the charging station.
	Sleep ActivityKind = iota + 1
	// Work: task work at a workstation in the slot's room.
	Work
	// Meal: communal eating in the kitchen.
	Meal
	// Briefing: whole-crew meeting.
	Briefing
	// Break: free social time.
	Break
	// Gym: physical exercise (badge not worn).
	Gym
	// Restroom: short visit (badge not worn).
	Restroom
	// EVA: extravehicular activity outside the habitat (badge docked).
	EVA
	// Gathering: unplanned whole-crew meeting (e.g. the day-4 consolation).
	Gathering
	// Dead: the member has left the mission (astronaut C after day 4).
	Dead
)

// String returns the activity name.
func (k ActivityKind) String() string {
	switch k {
	case Sleep:
		return "sleep"
	case Work:
		return "work"
	case Meal:
		return "meal"
	case Briefing:
		return "briefing"
	case Break:
		return "break"
	case Gym:
		return "gym"
	case Restroom:
		return "restroom"
	case EVA:
		return "eva"
	case Gathering:
		return "gathering"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("activity(%d)", int(k))
	}
}

// Objective is the planner's instruction for one member at one instant.
type Objective struct {
	Kind ActivityKind
	// Room the activity happens in (ignored for EVA/Dead).
	Room habitat.RoomID
	// TalkScale multiplies speech propensity: the planner folds in both
	// the context (meals are chatty, work is quiet) and mission-level
	// trends (the crew talked less toward the end; days 11-12 were nearly
	// silent).
	TalkScale float64
	// LoudnessOffset shifts speech level in dB (negative for the sombre
	// day-4 consolation gathering).
	LoudnessOffset float64
	// Wearable reports whether the badge may be worn during the activity
	// (false for EVA, gym, restroom, sleep).
	Wearable bool
	// Anchored pins the member to a per-room workstation instead of
	// roaming.
	Anchored bool
	// SideTripRoom, when set, lets the member make short excursions (the
	// office→kitchen hydration runs behind Fig. 2's dominant transition).
	SideTripRoom habitat.RoomID
	// SideTripProb is the per-second probability of starting a side trip.
	SideTripProb float64
}

// Planner supplies objectives; internal/mission implements the ICAres-1
// script.
type Planner interface {
	Objective(name string, now time.Duration) Objective
}

// Traits are a member's stable behavioural parameters.
type Traits struct {
	// Energy in [0,1] scales in-room wandering and general mobility
	// (astronauts D and F were "energetic"; E "reserved").
	Energy float64
	// Talkativeness in [0,1] weights conversation turn-taking (astronaut
	// C "an energetic conversationalist").
	Talkativeness float64
	// F0Hz is the voice fundamental frequency used for speaker
	// attribution downstream.
	F0Hz float64
	// LoudnessDB is the typical speech level at the speaker.
	LoudnessDB float64
	// CornerShy keeps the member near room centers (the visually
	// impaired astronaut A "tended to stay in the middle of a room,
	// usually did not approach corners").
	CornerShy bool
	// WalkSpeed in m/s.
	WalkSpeed float64
	// SelfTalk is the probability-scale of audible speech when alone
	// (astronaut A used a computer program reading out texts, which the
	// conversation analyses initially mistook for dialogue).
	SelfTalk float64
}

// State is a member's observable ground truth at a tick.
type State struct {
	Present    bool // inside the habitat
	Pos        geometry.Point
	Room       habitat.RoomID
	Heading    float64
	Walking    bool
	Speaking   bool
	LoudnessDB float64 // at the speaker, when Speaking
	F0Hz       float64
	Wearable   bool
	Activity   ActivityKind
}

// member is the runtime state of one astronaut.
type member struct {
	name   string
	traits Traits

	obj        Objective
	pos        geometry.Point
	heading    float64
	waypoints  []geometry.Point
	walking    bool
	speaking   bool
	loudness   float64
	anchors    map[habitat.RoomID]geometry.Point
	targetRoom habitat.RoomID

	sideTripUntil time.Duration
	onSideTrip    bool
	prevKind      ActivityKind

	present bool
}

// Engine advances all members through virtual time.
type Engine struct {
	hab      *habitat.Habitat
	planner  Planner
	members  []*member
	byName   map[string]*member
	affinity map[[2]string]float64
	rng      *stats.RNG
}

// Errors of the engine constructor.
var (
	ErrNoMembers  = errors.New("crew: no members")
	ErrNilPlanner = errors.New("crew: nil planner")
	ErrDuplicate  = errors.New("crew: duplicate member name")
)

// Roster entry: a named member with traits.
type Roster struct {
	Name   string
	Traits Traits
}

// NewEngine builds an engine. Affinity maps unordered name pairs to a
// conversation multiplier (>1 for close pairs such as A-F during ICAres-1);
// missing pairs default to 1.
func NewEngine(hab *habitat.Habitat, planner Planner, roster []Roster, affinity map[[2]string]float64, rng *stats.RNG) (*Engine, error) {
	if hab == nil {
		return nil, habitat.ErrUnknownRoom
	}
	if planner == nil {
		return nil, ErrNilPlanner
	}
	if len(roster) == 0 {
		return nil, ErrNoMembers
	}
	e := &Engine{
		hab:      hab,
		planner:  planner,
		byName:   make(map[string]*member, len(roster)),
		affinity: make(map[[2]string]float64, len(affinity)),
		rng:      rng,
	}
	for k, v := range affinity {
		e.affinity[normPair(k[0], k[1])] = v
	}
	start, err := hab.Center(habitat.Atrium)
	if err != nil {
		return nil, fmt.Errorf("crew: %w", err)
	}
	for _, r := range roster {
		if _, dup := e.byName[r.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicate, r.Name)
		}
		m := &member{
			name:    r.Name,
			traits:  withTraitDefaults(r.Traits),
			pos:     start,
			anchors: make(map[habitat.RoomID]geometry.Point),
			present: true,
		}
		e.members = append(e.members, m)
		e.byName[r.Name] = m
	}
	return e, nil
}

func withTraitDefaults(t Traits) Traits {
	if t.WalkSpeed <= 0 {
		t.WalkSpeed = 1.1
	}
	if t.F0Hz <= 0 {
		t.F0Hz = 150
	}
	if t.LoudnessDB <= 0 {
		t.LoudnessDB = 72
	}
	return t
}

func normPair(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// State returns the current ground-truth state of a member.
func (e *Engine) State(name string) (State, bool) {
	m, ok := e.byName[name]
	if !ok {
		return State{}, false
	}
	return State{
		Present:    m.present,
		Pos:        m.pos,
		Room:       e.roomOf(m),
		Heading:    m.heading,
		Walking:    m.walking,
		Speaking:   m.speaking,
		LoudnessDB: m.loudness,
		F0Hz:       m.traits.F0Hz,
		Wearable:   m.obj.Wearable && m.present,
		Activity:   m.obj.Kind,
	}, true
}

func (e *Engine) roomOf(m *member) habitat.RoomID {
	if !m.present {
		return habitat.NoRoom
	}
	return e.hab.RoomAt(m.pos)
}

// AudibleAt returns the loudest speech audible at a position: the speaker's
// level attenuated by distance, provided speaker and listener share a room
// (metal walls block voice much like RF). ok is false when nothing audible.
func (e *Engine) AudibleAt(pos geometry.Point) (loudDB, f0 float64, ok bool) {
	room := e.hab.RoomAt(pos)
	if room == habitat.NoRoom {
		return 0, 0, false
	}
	best := math.Inf(-1)
	for _, m := range e.members {
		if !m.present || !m.speaking {
			continue
		}
		if e.roomOf(m) != room {
			continue
		}
		d := m.pos.Dist(pos)
		l := attenuate(m.loudness, d)
		if l > best {
			best = l
			f0 = m.traits.F0Hz
		}
	}
	if math.IsInf(best, -1) {
		return 0, 0, false
	}
	return best, f0, true
}

// attenuate applies simple spherical spreading from a 0.5 m reference.
func attenuate(srcDB, dist float64) float64 {
	if dist < 0.3 {
		dist = 0.3
	}
	return srcDB - 20*math.Log10(dist/0.5)
}

// Tick advances the engine by dt at virtual time now. It must be called
// with monotonically non-decreasing now.
func (e *Engine) Tick(now, dt time.Duration) {
	for _, m := range e.members {
		e.tickObjective(m, now)
		e.tickMovement(m, now, dt)
	}
	e.tickSpeech(now, dt)
}

// tickObjective refreshes the member's objective and routes them.
func (e *Engine) tickObjective(m *member, now time.Duration) {
	m.obj = e.planner.Objective(m.name, now)
	switch m.obj.Kind {
	case Dead:
		m.present = false
		return
	case EVA:
		m.present = false
		return
	}
	if !m.present { // re-entering the habitat (post-EVA) via the airlock
		if c, err := e.hab.Center(habitat.Airlock); err == nil {
			m.pos = c
		}
		m.present = true
		m.waypoints = nil
		m.targetRoom = habitat.Airlock
	}

	target := m.obj.Room
	if m.onSideTrip {
		if now >= m.sideTripUntil {
			m.onSideTrip = false
		} else {
			target = m.obj.SideTripRoom
		}
	}
	if target != m.targetRoom || m.obj.Kind != m.prevKind {
		e.route(m, target)
	}
	m.prevKind = m.obj.Kind
}

// route plans waypoints from the member's current room to the target room.
func (e *Engine) route(m *member, target habitat.RoomID) {
	cur := e.roomOf(m)
	if cur == habitat.NoRoom {
		cur = habitat.Atrium
	}
	wps, err := e.hab.Path(cur, target)
	if err != nil {
		return // unreachable room: stay put
	}
	dest := e.pickPoint(m, target)
	m.waypoints = append(append([]geometry.Point{}, wps...), dest)
	m.targetRoom = target
}

// pickPoint chooses where in the room the member will settle: the sticky
// per-room workstation when anchored, a fresh random point otherwise.
// Corner-shy members keep a wide margin from the walls.
func (e *Engine) pickPoint(m *member, room habitat.RoomID) geometry.Point {
	margin := 0.6
	if m.traits.CornerShy {
		margin = 2.0
	}
	// Social activities cluster the group around a common table near the
	// room center, so conversations stay within mic/IR range (~2.5 m).
	switch m.obj.Kind {
	case Meal, Briefing, Break, Gathering:
		if c, err := e.hab.Center(room); err == nil {
			ang := e.rng.Range(0, 2*math.Pi)
			rad := e.rng.Range(0.4, 1.2)
			return c.Add(geometry.Point{X: rad * math.Cos(ang), Y: rad * math.Sin(ang)})
		}
	}
	if m.obj.Anchored && !m.onSideTrip {
		if p, ok := m.anchors[room]; ok {
			return p
		}
		p, err := e.hab.RandomPointIn(room, margin, e.rng)
		if err != nil {
			return m.pos
		}
		m.anchors[room] = p
		return p
	}
	p, err := e.hab.RandomPointIn(room, margin, e.rng)
	if err != nil {
		return m.pos
	}
	return p
}

// tickMovement advances the member along waypoints or wanders in place.
func (e *Engine) tickMovement(m *member, now, dt time.Duration) {
	if !m.present {
		m.walking = false
		return
	}
	if len(m.waypoints) > 0 {
		e.walkAlong(m, dt)
		return
	}
	m.walking = false

	// Side-trip departure.
	if !m.onSideTrip && m.obj.SideTripRoom != habitat.NoRoom && m.obj.SideTripProb > 0 {
		p := m.obj.SideTripProb * dt.Seconds()
		if e.rng.Bool(p) {
			m.onSideTrip = true
			m.sideTripUntil = now + time.Duration(60+e.rng.Intn(90))*time.Second
			e.route(m, m.obj.SideTripRoom)
			return
		}
	}

	// In-room wandering scaled by energy; corner-shy members wander less
	// and keep away from walls.
	wanderP := 0.02 * m.traits.Energy * dt.Seconds()
	if m.traits.CornerShy {
		wanderP *= 0.4
	}
	if e.rng.Bool(wanderP) {
		room := e.roomOf(m)
		if room != habitat.NoRoom {
			margin := 0.6
			if m.traits.CornerShy {
				margin = 2.0
			}
			if p, err := e.hab.RandomPointIn(room, margin, e.rng); err == nil {
				m.waypoints = []geometry.Point{p}
			}
		}
	}
}

// walkAlong moves the member toward the next waypoint at walking speed.
// The member counts as walking for the whole tick in which any distance was
// covered, so short in-room wanders register in the mobility ground truth.
func (e *Engine) walkAlong(m *member, dt time.Duration) {
	start := m.pos
	budget := m.traits.WalkSpeed * dt.Seconds()
	for budget > 0 && len(m.waypoints) > 0 {
		next := m.waypoints[0]
		d := m.pos.Dist(next)
		if d <= budget {
			m.pos = next
			budget -= d
			m.waypoints = m.waypoints[1:]
			continue
		}
		dir := next.Sub(m.pos).Unit()
		m.pos = m.pos.Add(dir.Scale(budget))
		m.heading = dir.Angle()
		budget = 0
	}
	m.walking = len(m.waypoints) > 0 || m.pos.Dist(start) > 0.3
}

// tickSpeech runs the conversation model: group members by room, pick at
// most one speaker per room per tick, weighted by talkativeness and the
// planner's context scale.
func (e *Engine) tickSpeech(now, dt time.Duration) {
	groups := make(map[habitat.RoomID][]*member)
	var order []habitat.RoomID
	for _, m := range e.members {
		m.speaking = false
		if !m.present || m.walking {
			continue
		}
		room := e.roomOf(m)
		if room == habitat.NoRoom {
			continue
		}
		if len(groups[room]) == 0 {
			order = append(order, room)
		}
		groups[room] = append(groups[room], m)
	}
	// Deterministic room order keeps the shared RNG stream stable.
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, room := range order {
		e.converse(groups[room], dt)
	}
}

// converse decides speech within one room for this tick.
func (e *Engine) converse(group []*member, dt time.Duration) {
	if len(group) == 1 {
		m := group[0]
		// Solo speech: astronaut A's screen reader, humming, phone-style
		// logs. Scaled by the context TalkScale so silent days stay silent.
		p := m.traits.SelfTalk * m.obj.TalkScale * 0.12 * dt.Seconds()
		if p > 0 && e.rng.Bool(math.Min(p, 0.9)) {
			m.speaking = true
			m.loudness = m.traits.LoudnessDB - 4 + e.rng.Range(-2, 2)
		}
		return
	}

	// Conversation intensity: mean context scale times the group's mean
	// talkativeness; dyads get their affinity multiplier.
	var scale, talk float64
	for _, m := range group {
		scale += m.obj.TalkScale
		talk += m.traits.Talkativeness
	}
	scale /= float64(len(group))
	talk /= float64(len(group))
	if len(group) == 2 {
		if mult, ok := e.affinity[normPair(group[0].name, group[1].name)]; ok {
			scale *= mult
		}
	}
	// Probability someone speaks during this tick.
	p := math.Min(0.95, (0.10+0.75*scale*talk)*dt.Seconds()/5)
	if !e.rng.Bool(p) {
		return
	}
	weights := make([]float64, len(group))
	for i, m := range group {
		weights[i] = m.traits.Talkativeness * m.obj.TalkScale
	}
	spk := group[e.rng.Choice(weights)]
	spk.speaking = true
	spk.loudness = spk.traits.LoudnessDB + spk.obj.LoudnessOffset + e.rng.Range(-2, 2)

	// Conversation partners face each other, enabling IR contacts.
	for _, m := range group {
		if m == spk {
			continue
		}
		m.heading = spk.pos.Sub(m.pos).Angle()
	}
	if len(group) > 1 {
		other := group[0]
		if other == spk {
			other = group[1]
		}
		spk.heading = other.pos.Sub(spk.pos).Angle()
	}
}
