// Package app is a reachability-scan fixture; it is never built.
package app

import "example.com/fixture/lib"

func main() {
	_ = lib.Used()
	_ = lib.Live{}.Name()
	_ = lib.Box[int]{}.Get()
	var s lib.Shape = lib.Square{}
	_ = s.Area()
	c := lib.Config{Size: 1}.WithDefaults()
	c.Reset()
	_ = c.Debug
}
