//go:build race

package engine

// raceEnabled reports whether the race detector is active (sync.Pool
// drops items at random under -race, so pool-backed alloc tests skip).
const raceEnabled = true
