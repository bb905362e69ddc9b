// Package badge models the wearable sociometric badge at the firmware
// level: sensor sampling schedules, the microphone feature extractor, the
// battery, the imperfect local clock, wear-state tracking, and the SD-card
// record log. It also provides the Network coordinator for the badge-to-
// badge channels (868 MHz neighbour announcements and infrared face-to-face
// contacts) and the reference badge's opportunistic time-sync service.
//
// The badge records *raw features*, never raw audio — matching the
// deployment's privacy constraints — and it keeps recording while "active
// but not worn" (on a table or charging), which is how the paper can report
// both a 63% worn fraction and an 84% active fraction of daytime.
package badge

import (
	"math"
	"time"

	"icares/internal/beacon"
	"icares/internal/geometry"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/stats"
)

// Sampling holds the per-sensor sampling intervals. The real badges sampled
// far faster; the simulator defaults keep full-mission datasets tractable
// while preserving every analysis (the mic interval is exactly the paper's
// 15 s speech-analysis window).
type Sampling struct {
	Accel      time.Duration
	Mic        time.Duration // feature-frame length AND flush interval
	BeaconScan time.Duration
	Env        time.Duration
	Battery    time.Duration
}

// DefaultSampling returns the simulator defaults.
func DefaultSampling() Sampling {
	return Sampling{
		Accel:      10 * time.Second,
		Mic:        15 * time.Second,
		BeaconScan: 15 * time.Second,
		Env:        2 * time.Minute,
		Battery:    10 * time.Minute,
	}
}

// Battery parameters.
const (
	// DrainPerHour is the battery percentage consumed per undocked hour.
	// A full day on duty (~14 h) costs ~75%, so a badge that misses its
	// overnight charge dies the following afternoon.
	DrainPerHour = 5.4
	// ChargePerHour is the percentage restored per docked hour.
	ChargePerHour = 18.0
)

// SpeechThresholdDB is the minimum ambient voice level the badge's
// voice-activity detector reacts to (weaker than the 60 dB analysis
// threshold, so the analysis has raw material to threshold).
const SpeechThresholdDB = 45

// Input is the physical situation of the badge during one simulation tick,
// supplied by the mission glue.
type Input struct {
	// Pos is the device position (the wearer's position when worn, the
	// resting place otherwise).
	Pos geometry.Point
	// Worn reports whether the badge hangs on an astronaut's neck.
	Worn bool
	// Docked reports whether the badge sits at the charging station.
	Docked bool
	// Heading is the wearer's facing direction (radians), meaningful when
	// worn.
	Heading float64
	// WearerWalking reports locomotion, which drives accelerometer energy.
	WearerWalking bool
	// WearerEnergy in [0,1] scales gesture noise while stationary.
	WearerEnergy float64
	// SpeechLoudDB/SpeechF0 describe the loudest audible speech at the
	// badge (ambient), valid when SpeechOK.
	SpeechLoudDB float64
	SpeechF0     float64
	SpeechOK     bool
	// Environment at the badge.
	TempC    float64
	PressHPa float64
	LightLux float64
}

// Log is the badge's SD card: every record the badge produces is appended
// to it, in production order. A mission run gives each badge its
// *store.Series.
type Log interface {
	Append(record.Record)
}

// Badge is one simulated device.
type Badge struct {
	id  uint16
	osc *simtime.Oscillator
	log Log
	cfg Sampling
	rng *stats.RNG

	battery float64
	failed  bool
	worn    bool
	wornSet bool // first Tick must emit the initial wear record
	pos     geometry.Point
	heading float64

	lastAccel, lastScan, lastEnv, lastBattery time.Duration
	lastTick                                  time.Duration

	// Mic accumulation window.
	micStart    time.Duration
	micTicks    int
	micVoiced   int
	micMaxLoud  float64
	micF0       float64
	micAmbient  float64
	micHasAccum bool
}

// New creates a badge with the given identity, clock, sampling config, and
// noise stream, recording into log.
func New(id uint16, osc *simtime.Oscillator, cfg Sampling, log Log, rng *stats.RNG) *Badge {
	return &Badge{
		id:      id,
		osc:     osc,
		log:     log,
		cfg:     cfg,
		rng:     rng,
		battery: 100,
	}
}

// ID returns the badge identity.
func (b *Badge) ID() uint16 { return b.id }

// Failed reports whether the badge is dead (fault injection or flat
// battery).
func (b *Badge) Failed() bool { return b.failed }

// Fail kills the badge permanently (fault injection).
func (b *Badge) Fail() { b.failed = true }

// Revive reboots a failed badge (fault-injection death/reboot windows).
// Battery level, clock, and the record log persist across the reboot —
// they live in the battery gauge, the oscillator, and flash/SD — so a
// revived badge resumes sampling where it left off.
func (b *Badge) Revive() { b.failed = false }

// Pos returns the last known device position.
func (b *Badge) Pos() geometry.Point { return b.pos }

// Worn reports the current wear state.
func (b *Badge) Worn() bool { return b.worn }

// Heading returns the wearer's last heading (radians).
func (b *Badge) Heading() float64 { return b.heading }

// local converts true time to this badge's clock reading.
func (b *Badge) local(now time.Duration) time.Duration {
	if b.osc == nil {
		return now
	}
	return b.osc.Read(now)
}

// Tick runs one simulation step: battery accounting, wear transitions, and
// all due sensor samples. fleet may be nil (no beacon coverage, e.g. unit
// tests).
func (b *Badge) Tick(now time.Duration, in Input, fleet *beacon.Fleet) {
	if b.failed {
		return
	}
	dt := now - b.lastTick
	if b.lastTick == 0 && dt == now {
		dt = 0 // first tick: no elapsed time
	}
	b.lastTick = now

	// Battery.
	hours := dt.Hours()
	if in.Docked {
		b.battery = math.Min(100, b.battery+ChargePerHour*hours)
	} else {
		b.battery -= DrainPerHour * hours
		if b.battery <= 0 {
			b.battery = 0
			b.failed = true
			return
		}
	}

	b.pos = in.Pos
	b.heading = in.Heading

	// Wear transitions.
	if !b.wornSet || in.Worn != b.worn {
		b.worn = in.Worn
		b.wornSet = true
		b.log.Append(record.NewWear(b.local(now), b.worn))
	}

	// Accelerometer.
	if now-b.lastAccel >= b.cfg.Accel {
		b.lastAccel = now
		b.sampleAccel(now, in)
	}

	// Microphone: accumulate every tick, flush per window.
	b.accumulateMic(now, in)

	// Beacon scan.
	if fleet != nil && now-b.lastScan >= b.cfg.BeaconScan {
		b.lastScan = now
		for _, o := range fleet.Scan(in.Pos) {
			b.log.Append(record.NewBeacon(b.local(now), uint16(o.BeaconID), float32(o.RSSI)))
		}
	}

	// Environment.
	if now-b.lastEnv >= b.cfg.Env {
		b.lastEnv = now
		b.log.Append(record.NewEnv(b.local(now),
			float32(in.TempC+b.rng.Norm(0, 0.1)),
			float32(in.PressHPa+b.rng.Norm(0, 0.3)),
			float32(math.Max(0, in.LightLux+b.rng.Norm(0, 5)))))
	}

	// Battery log.
	if now-b.lastBattery >= b.cfg.Battery {
		b.lastBattery = now
		b.log.Append(record.NewBattery(b.local(now), float32(b.battery)))
	}
}

// AccelBurstLen is the number of closely spaced samples recorded per accel
// sampling event. Real badges sample tens of hertz; the simulator records a
// short burst whose within-burst variance carries the same walking
// signature at a tractable data rate.
const AccelBurstLen = 3

// sampleAccel synthesizes a burst of 3-axis samples from the wearer's
// motion state. Walking produces large oscillations; stationary wear
// produces small gesture noise scaled by the wearer's energy; an unworn
// badge lies still.
func (b *Badge) sampleAccel(now time.Duration, in Input) {
	var sigma float64
	switch {
	case !in.Worn:
		sigma = 2
	case in.WearerWalking:
		sigma = 260
	default:
		sigma = 18 + 45*in.WearerEnergy
	}
	for i := 0; i < AccelBurstLen; i++ {
		b.log.Append(record.NewAccel(b.local(now)+time.Duration(i)*50*time.Millisecond,
			clampI16(b.rng.Norm(0, sigma)),
			clampI16(b.rng.Norm(0, sigma)),
			clampI16(1000+b.rng.Norm(0, sigma))))
	}
}

func clampI16(v float64) int16 {
	if v > math.MaxInt16 {
		return math.MaxInt16
	}
	if v < math.MinInt16 {
		return math.MinInt16
	}
	return int16(v)
}

// accumulateMic integrates the ambient sound field into the current mic
// window and flushes a feature frame when the window ends.
func (b *Badge) accumulateMic(now time.Duration, in Input) {
	if b.micHasAccum && now-b.micStart >= b.cfg.Mic {
		b.flushMic()
	}
	if !b.micHasAccum {
		b.micStart = now
		b.micHasAccum = true
		b.micMaxLoud = 0
		b.micVoiced = 0
		b.micTicks = 0
		b.micF0 = 0
		b.micAmbient = 0
	}
	b.micTicks++
	ambient := 32 + b.rng.Range(0, 6)
	if in.WearerWalking {
		ambient += 6
	}
	b.micAmbient = math.Max(b.micAmbient, ambient)
	if in.SpeechOK && in.SpeechLoudDB >= SpeechThresholdDB {
		b.micVoiced++
		if in.SpeechLoudDB > b.micMaxLoud {
			b.micMaxLoud = in.SpeechLoudDB
			b.micF0 = in.SpeechF0
		}
	}
}

// flushMic emits the accumulated mic window as one feature frame. The frame
// is stamped with the local clock at the window start.
func (b *Badge) flushMic() {
	local := b.local(b.micStart)
	if b.micVoiced > 0 {
		b.log.Append(record.NewMic(local, true, float32(b.micMaxLoud),
			float32(b.micF0+b.rng.Norm(0, 2)), float32(b.micVoiced)/float32(b.micTicks)))
	} else {
		b.log.Append(record.NewMic(local, false, float32(b.micAmbient), 0, 0))
	}
	b.micHasAccum = false
}

// RecordSync appends a time-sync exchange: the badge's local clock paired
// with the reference clock, both with small exchange jitter.
func (b *Badge) RecordSync(now time.Duration, refClock time.Duration) {
	if b.failed {
		return
	}
	jitter := time.Duration(b.rng.Norm(0, 1e6)) // ~1 ms
	b.log.Append(record.NewSync(b.local(now)+jitter, refClock))
}

// RecordNeighbor appends an 868 MHz neighbour observation.
func (b *Badge) RecordNeighbor(now time.Duration, peer uint16, rssi float64) {
	if b.failed {
		return
	}
	b.log.Append(record.NewNeighbor(b.local(now), peer, float32(rssi)))
}

// RecordIR appends an infrared face-to-face contact.
func (b *Badge) RecordIR(now time.Duration, peer uint16) {
	if b.failed {
		return
	}
	b.log.Append(record.NewIR(b.local(now), peer))
}
