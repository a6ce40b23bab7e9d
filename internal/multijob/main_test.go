package multijob

import (
	"os"
	"testing"

	"iswitch/internal/protocol"
)

// TestMain poisons released payloads for the whole package, so the
// preempted ≡ uninterrupted and single-job equivalence properties also
// prove that no tenant reads a frame it has let go of.
func TestMain(m *testing.M) {
	protocol.PoisonOnRelease(true)
	os.Exit(m.Run())
}
