//go:build race

package main

// raceEnabled reports a race-detector build: CPU profile samples taken in
// the race runtime's C code carry no Go caller, so profile attribution
// tests cannot hold there.
const raceEnabled = true
