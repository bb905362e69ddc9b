package badge

import (
	"math"
	"testing"
	"time"

	"icares/internal/beacon"
	"icares/internal/geometry"
	"icares/internal/habitat"
	"icares/internal/radio"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/stats"
	"icares/internal/store"
)

func newBadge(id uint16, seed uint64) *Badge {
	return New(id, simtime.NewOscillator(0, 0), DefaultSampling(), &store.Series{}, stats.NewRNG(seed))
}

// seriesOf returns the series a test badge (newBadge) records into.
func seriesOf(b *Badge) *store.Series { return b.log.(*store.Series) }

func tickFor(b *Badge, from, dur time.Duration, in Input, fleet *beacon.Fleet) time.Duration {
	const dt = 5 * time.Second
	for at := from; at < from+dur; at += dt {
		b.Tick(at, in, fleet)
	}
	return from + dur
}

func wornInput(pos geometry.Point) Input {
	return Input{
		Pos: pos, Worn: true,
		TempC: 22, PressHPa: 1005, LightLux: 300,
	}
}

func TestBadgeRecordsWearTransitions(t *testing.T) {
	b := newBadge(1, 1)
	pos := geometry.Point{X: 12, Y: 4}
	end := tickFor(b, 0, time.Minute, wornInput(pos), nil)
	in := wornInput(pos)
	in.Worn = false
	tickFor(b, end, time.Minute, in, nil)
	wears := seriesOf(b).Kind(record.KindWear)
	if len(wears) != 2 {
		t.Fatalf("wear records = %d, want 2", len(wears))
	}
	if !wears[0].Worn() || wears[1].Worn() {
		t.Errorf("wear sequence = %v, %v", wears[0].Worn(), wears[1].Worn())
	}
}

func TestAccelEnergyByMotionState(t *testing.T) {
	sigmaOf := func(walking, worn bool) float64 {
		b := newBadge(1, 7)
		in := wornInput(geometry.Point{X: 12, Y: 4})
		in.Worn = worn
		in.WearerWalking = walking
		tickFor(b, 0, time.Hour, in, nil)
		accels := seriesOf(b).Kind(record.KindAccel)
		if len(accels) < 100 {
			t.Fatalf("accel records = %d", len(accels))
		}
		var sum, sq float64
		for _, r := range accels {
			ax, _, _ := r.Accel()
			x := float64(ax)
			sum += x
			sq += x * x
		}
		n := float64(len(accels))
		return math.Sqrt(sq/n - (sum/n)*(sum/n))
	}
	walk := sigmaOf(true, true)
	idle := sigmaOf(false, true)
	off := sigmaOf(false, false)
	if !(walk > idle && idle > off) {
		t.Errorf("accel sigma walk=%v idle=%v off=%v; want walk > idle > off", walk, idle, off)
	}
	if walk < 150 {
		t.Errorf("walking sigma = %v, want > 150", walk)
	}
}

func TestMicFrameCadenceAndFeatures(t *testing.T) {
	b := newBadge(1, 3)
	in := wornInput(geometry.Point{X: 12, Y: 4})
	in.SpeechOK = true
	in.SpeechLoudDB = 68
	in.SpeechF0 = 210
	tickFor(b, 0, 10*time.Minute, in, nil)
	mics := seriesOf(b).Kind(record.KindMic)
	// 10 min / 15 s = 40 windows; the last may still be accumulating.
	if len(mics) < 38 || len(mics) > 40 {
		t.Fatalf("mic frames = %d, want ~39", len(mics))
	}
	for _, m := range mics {
		speech, loud, f0, frac := m.Mic()
		if !speech {
			t.Fatal("speech not detected in saturated frame")
		}
		if frac != 1 {
			t.Fatalf("fraction = %v, want 1", frac)
		}
		if math.Abs(float64(loud)-68) > 1 {
			t.Fatalf("loudness = %v", loud)
		}
		if math.Abs(float64(f0)-210) > 10 {
			t.Fatalf("f0 = %v", f0)
		}
	}
	// Frames must be 15 s apart.
	for i := 1; i < len(mics); i++ {
		if d := mics[i].Local - mics[i-1].Local; d != 15*time.Second {
			t.Fatalf("frame spacing = %v", d)
		}
	}
}

func TestMicSilentFrameHasAmbientOnly(t *testing.T) {
	b := newBadge(1, 4)
	in := wornInput(geometry.Point{X: 12, Y: 4})
	tickFor(b, 0, 5*time.Minute, in, nil)
	for _, m := range seriesOf(b).Kind(record.KindMic) {
		speech, loud, f0, frac := m.Mic()
		if speech {
			t.Fatal("speech detected in silence")
		}
		if loud < 25 || loud > 50 {
			t.Fatalf("ambient loudness = %v", loud)
		}
		if f0 != 0 || frac != 0 {
			t.Fatalf("silent frame features: f0=%v frac=%v", f0, frac)
		}
	}
}

func TestMicQuietSpeechBelowVADIgnored(t *testing.T) {
	b := newBadge(1, 5)
	in := wornInput(geometry.Point{X: 12, Y: 4})
	in.SpeechOK = true
	in.SpeechLoudDB = SpeechThresholdDB - 5
	tickFor(b, 0, 5*time.Minute, in, nil)
	for _, m := range seriesOf(b).Kind(record.KindMic) {
		if speech, _, _, _ := m.Mic(); speech {
			t.Fatal("sub-threshold speech detected")
		}
	}
}

func TestBeaconScansRecorded(t *testing.T) {
	hab := habitat.Standard()
	rng := stats.NewRNG(6)
	ch, err := radio.NewChannel(hab, radio.BLE24, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := beacon.NewFleet(hab, ch)
	if err != nil {
		t.Fatal(err)
	}
	b := newBadge(1, 6)
	kitchen, err := hab.Center(habitat.Kitchen)
	if err != nil {
		t.Fatal(err)
	}
	tickFor(b, 0, 10*time.Minute, wornInput(kitchen), fleet)
	obs := seriesOf(b).Kind(record.KindBeacon)
	if len(obs) < 20 {
		t.Fatalf("beacon obs = %d", len(obs))
	}
	kitchenBeacons := make(map[uint16]bool)
	for _, s := range hab.Beacons() {
		if s.Room == habitat.Kitchen {
			kitchenBeacons[uint16(s.ID)] = true
		}
	}
	for _, o := range obs {
		if !kitchenBeacons[o.PeerID] {
			t.Errorf("heard non-kitchen beacon %d from kitchen center", o.PeerID)
		}
	}
}

func TestBatteryDrainsAndCharges(t *testing.T) {
	b := newBadge(1, 8)
	in := wornInput(geometry.Point{X: 12, Y: 4})
	tickFor(b, 0, 10*time.Hour, in, nil)
	afterDuty := b.battery
	if afterDuty >= 100 || afterDuty < 100-DrainPerHour*10-1 {
		t.Errorf("battery after 10 h = %v", afterDuty)
	}
	in.Worn = false
	in.Docked = true
	tickFor(b, 10*time.Hour, 8*time.Hour, in, nil)
	if b.battery < 99 {
		t.Errorf("battery after overnight charge = %v", b.battery)
	}
}

func TestBatteryDeathKillsBadge(t *testing.T) {
	b := newBadge(1, 9)
	in := wornInput(geometry.Point{X: 12, Y: 4})
	// Never charged: ~19 h of drain kills it.
	tickFor(b, 0, 30*time.Hour, in, nil)
	if !b.Failed() {
		t.Fatal("badge survived 30 h unpowered")
	}
	countBefore := seriesOf(b).Len()
	b.Tick(31*time.Hour, in, nil)
	if seriesOf(b).Len() != countBefore {
		t.Error("failed badge kept recording")
	}
	b.RecordSync(31*time.Hour, 31*time.Hour)
	if n := len(seriesOf(b).Kind(record.KindSync)); n != 0 {
		t.Errorf("dead badge appended %d sync records", n)
	}
}

func TestLocalClockSkewAppearsInRecords(t *testing.T) {
	osc := simtime.NewOscillator(2*time.Second, 50)
	b := New(1, osc, DefaultSampling(), &store.Series{}, stats.NewRNG(10))
	in := wornInput(geometry.Point{X: 12, Y: 4})
	b.Tick(time.Hour, in, nil)
	recs := seriesOf(b).All()
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	// All local stamps should be offset by ~2 s from true time.
	for _, r := range recs {
		shift := r.Local - time.Hour
		if shift < 1900*time.Millisecond || shift > 2300*time.Millisecond {
			t.Errorf("record shift = %v", shift)
		}
	}
}

func TestRecordSync(t *testing.T) {
	b := newBadge(1, 11)
	b.RecordSync(time.Hour, time.Hour-time.Second)
	syncs := seriesOf(b).Kind(record.KindSync)
	if len(syncs) != 1 {
		t.Fatalf("sync records = %d", len(syncs))
	}
	if ref := syncs[0].RefTime(); ref != time.Hour-time.Second {
		t.Errorf("ref time = %v", ref)
	}
}

func TestNetworkNeighborObservations(t *testing.T) {
	hab := habitat.Standard()
	rng := stats.NewRNG(12)
	net, err := NewNetwork(hab, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := newBadge(1, 13)
	b := newBadge(2, 14)
	net.Add(a)
	net.Add(b)
	kitchen, err := hab.Center(habitat.Kitchen)
	if err != nil {
		t.Fatal(err)
	}
	inA := wornInput(kitchen)
	inB := wornInput(kitchen.Add(geometry.Point{X: 1.5, Y: 0}))
	for at := time.Duration(0); at <= 10*time.Minute; at += 5 * time.Second {
		a.Tick(at, inA, nil)
		b.Tick(at, inB, nil)
		net.Tick(at)
	}
	na := seriesOf(a).Kind(record.KindNeighbor)
	nb := seriesOf(b).Kind(record.KindNeighbor)
	if len(na) < 10 || len(nb) < 10 {
		t.Fatalf("neighbor obs = %d/%d", len(na), len(nb))
	}
	for _, o := range na {
		if o.PeerID != 2 {
			t.Errorf("a heard peer %d", o.PeerID)
		}
		if rssi := o.RSSI(); rssi < -80 || rssi > -20 {
			t.Errorf("close-range neighbor RSSI = %v", rssi)
		}
	}
}

func TestNetworkIRRequiresFacingAndWear(t *testing.T) {
	hab := habitat.Standard()
	rng := stats.NewRNG(15)
	net, err := NewNetwork(hab, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := newBadge(1, 16)
	b := newBadge(2, 17)
	net.Add(a)
	net.Add(b)
	kitchen, err := hab.Center(habitat.Kitchen)
	if err != nil {
		t.Fatal(err)
	}
	inA := wornInput(kitchen)
	inB := wornInput(kitchen.Add(geometry.Point{X: 1.5, Y: 0}))
	inA.Heading = 0       // facing +x, toward B
	inB.Heading = math.Pi // facing -x, toward A
	for at := time.Duration(0); at <= 5*time.Minute; at += 5 * time.Second {
		a.Tick(at, inA, nil)
		b.Tick(at, inB, nil)
		net.Tick(at)
	}
	if got := len(seriesOf(a).Kind(record.KindIR)); got < 5 {
		t.Fatalf("face-to-face IR contacts = %d", got)
	}

	// Turn B away: no further contacts.
	before := len(seriesOf(a).Kind(record.KindIR))
	inB.Heading = 0
	for at := 5 * time.Minute; at <= 10*time.Minute; at += 5 * time.Second {
		a.Tick(at, inA, nil)
		b.Tick(at, inB, nil)
		net.Tick(at)
	}
	if got := len(seriesOf(a).Kind(record.KindIR)); got != before {
		t.Errorf("IR contacts while facing away: %d new", got-before)
	}

	// Unworn badges never register IR.
	inB.Heading = math.Pi
	inA.Worn = false
	before = len(seriesOf(b).Kind(record.KindIR))
	for at := 10 * time.Minute; at <= 15*time.Minute; at += 5 * time.Second {
		a.Tick(at, inA, nil)
		b.Tick(at, inB, nil)
		net.Tick(at)
	}
	if got := len(seriesOf(b).Kind(record.KindIR)); got != before {
		t.Errorf("IR contacts with unworn badge: %d new", got-before)
	}
}

func TestNetworkSkipsFailedBadges(t *testing.T) {
	hab := habitat.Standard()
	net, err := NewNetwork(hab, stats.NewRNG(18))
	if err != nil {
		t.Fatal(err)
	}
	a := newBadge(1, 19)
	b := newBadge(2, 20)
	net.Add(a)
	net.Add(b)
	b.Fail()
	kitchen, err := hab.Center(habitat.Kitchen)
	if err != nil {
		t.Fatal(err)
	}
	in := wornInput(kitchen)
	for at := time.Duration(0); at <= 5*time.Minute; at += 5 * time.Second {
		a.Tick(at, in, nil)
		net.Tick(at)
	}
	if got := len(seriesOf(a).Kind(record.KindNeighbor)); got != 0 {
		t.Errorf("heard %d announcements from a failed badge", got)
	}
}

func TestEnvAndBatteryRecords(t *testing.T) {
	b := newBadge(1, 21)
	in := wornInput(geometry.Point{X: 12, Y: 4})
	tickFor(b, 0, time.Hour, in, nil)
	envs := seriesOf(b).Kind(record.KindEnv)
	if len(envs) < 25 || len(envs) > 35 {
		t.Errorf("env records in 1 h = %d, want ~30", len(envs))
	}
	for _, e := range envs {
		if temp, _, _ := e.Env(); temp < 20 || temp > 24 {
			t.Errorf("temp = %v", temp)
		}
	}
	bats := seriesOf(b).Kind(record.KindBattery)
	if len(bats) < 5 || len(bats) > 7 {
		t.Errorf("battery records in 1 h = %d, want ~6", len(bats))
	}
}
