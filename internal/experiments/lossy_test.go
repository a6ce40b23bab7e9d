package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestRenderLossy pins the report layout without running the sweep.
func TestRenderLossy(t *testing.T) {
	d := LossyData{Cells: []LossyCell{
		{Topology: "star", Mode: "sync", Loss: 0, Workers: 8, Iterations: 40,
			MeanIter: 1111 * time.Microsecond, MaxIter: 1111 * time.Microsecond,
			Goodput: 899.0, Overhead: 1.0},
		{Topology: "fattree", Mode: "sync", Fault: "failover", Workers: 8,
			Iterations: 40, MeanIter: 2388 * time.Microsecond,
			MaxIter: 49730 * time.Microsecond, Goodput: 419.9, Overhead: 2.14,
			HelpsSent: 222, Failovers: 8},
	}}
	text := renderLossy(d).Text
	for _, want := range []string{"star", "fattree", "failover", "2.14x", "49.73", "Recovery is exact"} {
		if !strings.Contains(text, want) {
			t.Fatalf("lossy report missing %q:\n%s", want, text)
		}
	}
}

// TestLossyFaultsExercised holds the absolute half of the old
// reliability gate over the sweep the golden checked: every fault cell
// still exercises its machinery (Rejoins is not in the report, so the
// golden alone would not notice), and a clean cell sends no Help.
func TestLossyFaultsExercised(t *testing.T) {
	for _, c := range lossyData().Cells {
		key := fmt.Sprintf("%s/%s/%s/%.3f", c.Topology, c.Mode, c.Fault, c.Loss)
		switch c.Fault {
		case "crash-rejoin":
			if c.Rejoins == 0 {
				t.Errorf("%s: crash-rejoin cell completed without a rejoin", key)
			}
		case "crash-evict":
			if c.Evicted == 0 {
				t.Errorf("%s: crash-evict cell completed without an eviction", key)
			}
		case "failover":
			if c.Failovers == 0 {
				t.Errorf("%s: failover cell completed without any worker failing over", key)
			}
		}
		if c.Fault == "" && c.Loss == 0 && c.HelpsSent != 0 {
			t.Errorf("%s: %d spurious Helps at zero loss (timeout miscalibrated)", key, c.HelpsSent)
		}
	}
}
