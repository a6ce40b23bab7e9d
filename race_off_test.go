//go:build !race

package iswitch

// raceEnabled reports whether the race detector is active: under it
// sync.Pool drops items at random, so pooled-header counts vary.
const raceEnabled = false
