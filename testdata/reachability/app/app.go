// Package app is a reachability-scan fixture; it is never built.
package app

import "example.com/fixture/lib"

func main() {
	_ = lib.Used()
	_ = lib.Live{}.Name()
}
