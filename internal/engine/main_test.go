package engine

import (
	"os"
	"testing"

	"iswitch/internal/protocol"
)

// TestMain poisons released payloads for the whole package: an engine
// or a test driver that reads a frame after letting go of it reads NaN
// and fails its assertions instead of passing by luck.
func TestMain(m *testing.M) {
	protocol.PoisonOnRelease(true)
	os.Exit(m.Run())
}
