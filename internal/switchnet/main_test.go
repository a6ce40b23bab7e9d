package switchnet

import (
	"os"
	"testing"

	"iswitch/internal/protocol"
)

// TestMain poisons released payloads for the whole package: a switch or
// a test worker that reads a frame after letting go of it reads NaN /
// math.MinInt32 and fails its assertions instead of passing by luck.
func TestMain(m *testing.M) {
	protocol.PoisonOnRelease(true)
	os.Exit(m.Run())
}
