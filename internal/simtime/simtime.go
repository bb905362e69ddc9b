// Package simtime provides the virtual-time substrate for the icares
// simulator: imperfect per-device oscillator models that convert true
// simulation time into locally observed device time (the source of the
// clock shifts the paper's reference badge corrects), and the mission-day
// helpers. The simulator's tick loop lives in the mission package.
//
// The entire simulation runs on virtual time, expressed as time.Duration
// offsets from mission start (T0); nothing in this module touches the wall
// clock, so runs are deterministic and arbitrarily faster than real time.
package simtime
