package transport

import (
	"os"
	"testing"

	"iswitch/internal/protocol"
)

// TestMain poisons released payloads for the whole package: the UDP
// driver releases every emission after writing it, so a frame encoded
// after its last release would carry NaN onto the wire and fail the
// exact-sum assertions instead of passing by luck.
func TestMain(m *testing.M) {
	protocol.PoisonOnRelease(true)
	os.Exit(m.Run())
}
