package core

import (
	"os"
	"testing"

	"iswitch/internal/protocol"
)

// TestMain runs the whole package with released payloads poisoned: a
// frame's payload is overwritten with NaN / math.MinInt32 the moment its
// last reference is released. The bit-identity properties (lossy ≡ clean,
// crash-rejoin, failover, on star, tree and fat-tree, fp32 and
// int32block) then also prove that nothing on the frame path, from the
// accelerator's loan to the assembler's copy, reads a payload it no
// longer holds.
func TestMain(m *testing.M) {
	protocol.PoisonOnRelease(true)
	os.Exit(m.Run())
}
