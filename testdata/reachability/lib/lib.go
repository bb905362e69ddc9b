// Package lib is a reachability-scan fixture; it is never built.
package lib

// Used is called from app.
func Used() int { return helper() }

// OnlyTested is called from lib_test.go alone.
func OnlyTested() int { return 1 }

// Recursive calls itself and nothing else calls it.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Allowed has no caller but is on the allowlist.
func Allowed() {}

func helper() int { return 2 }

// Live is used from app.
type Live struct{}

// Name is called on a Live from app.
func (Live) Name() string { return "live" }

// Dead is never used.
type Dead struct{}

// Name has no caller, but shares its name with Live.Name.
func (*Dead) Name() string { return "dead" }

// Loop is never used.
type Loop struct{}

// Again calls itself through its receiver and nothing else calls it.
func (l Loop) Again(n int) int {
	if n == 0 {
		return 0
	}
	return l.Again(n - 1)
}

// Shape is implemented by Square.
type Shape interface{ Area() float64 }

// Square is used from app as a Shape.
type Square struct{}

// Area is called only through Shape.
func (Square) Area() float64 { return 1 }

// Box is a generic type that app instantiates.
type Box[T any] struct{ v T }

// Get is called on a Box[int] from app.
func (b Box[T]) Get() T { return b.v }

// Config has one field that app writes, one that app only reads and
// lib_test.go writes, one that only its own WithDefaults fills, and one
// that the pointer method Reset sets.
type Config struct {
	Size    int
	Debug   bool
	Level   int
	Retries int
}

// WithDefaults fills Level in its receiver's copy.
func (c Config) WithDefaults() Config {
	if c.Level == 0 {
		c.Level = 3
	}
	return c
}

// Reset sets Retries through its pointer receiver.
func (c *Config) Reset() { c.Retries = 0 }
