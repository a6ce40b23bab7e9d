package experiments

import (
	"strings"
	"testing"
	"time"

	"iswitch/internal/protocol"
	"iswitch/internal/rl"
)

// TestRenderQuant pins the report layout without running the sweep.
func TestRenderQuant(t *testing.T) {
	d := QuantData{
		Cells: []QuantCell{
			{Scheme: "none", Workers: 16, Iterations: 8, MeanIter: 7190 * time.Microsecond,
				AccessBytes: 1694_000_000, Speedup: 1.0, ByteRatio: 1.0},
			{Scheme: "int32block", Workers: 16, Iterations: 8, MeanIter: 4630 * time.Microsecond,
				AccessBytes: 876_000_000, Speedup: 1.55, ByteRatio: 1.93},
		},
		Ablation: []QuantAblationRow{
			{Workload: "A2C", Scheme: "int32block", RelErr: 2.7e-4, UploadBytes: 19600, ParamDrift: 3.2e-3},
		},
	}
	text := renderQuant(d).Text
	for _, want := range []string{"int32block", "1.55x", "1.93x", "A2C", "fat-tree", "order-invariance"} {
		if !strings.Contains(text, want) {
			t.Fatalf("quant report missing %q:\n%s", want, text)
		}
	}
}

// TestQuantConvergenceGate is the tier-1 convergence regression gate:
// every paper workload trained through every lossy scheme must stay
// within fixed accuracy envelopes. fp16 and int32block are
// near-lossless (the int32block grid adapts within the first rounds);
// top-k is biased by design but must still carry a usable fraction of
// the gradient (relative error strictly below 1.0 — the error of
// sending nothing — with headroom). Bounds are generous multiples of
// the observed values so the gate trips on regressions, not noise.
// TestReportGolden pins these rows exactly on every kernel backend
// with a recording; on the others these bounds are their only check.
// Both read the same run.
func TestQuantConvergenceGate(t *testing.T) {
	bounds := map[string]struct{ maxErr, maxDrift float64 }{
		protocol.CompFP16.String():       {5e-3, 1e-2},
		protocol.CompInt32Block.String(): {1e-2, 5e-2},
		protocol.CompTopK.String():       {0.8, 0.5},
	}
	for _, name := range rl.Workloads() {
		t.Run(name, func(t *testing.T) {
			checked := 0
			for _, r := range quantAccuracy() {
				b, ok := bounds[r.Scheme]
				if r.Workload != name || !ok {
					continue
				}
				checked++
				if r.RelErr > b.maxErr {
					t.Errorf("%s: final-round aggregate error %.3e exceeds %.1e", r.Scheme, r.RelErr, b.maxErr)
				}
				if r.ParamDrift > b.maxDrift {
					t.Errorf("%s: param drift %.3e exceeds %.1e", r.Scheme, r.ParamDrift, b.maxDrift)
				}
			}
			if checked != len(bounds) {
				t.Errorf("ablation has %d lossy-scheme rows for %s, want %d", checked, name, len(bounds))
			}
		})
	}
}

// TestQuantInt32BlockFloors holds the compression acceptance floors
// over the DES sweep the golden checked: int32block keeps >= 1.5x round
// speedup and >= 1.9x access-link byte cut over raw float32.
func TestQuantInt32BlockFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("the 6.4 MB fat-tree sweep takes minutes under -race; covered by non-race legs")
	}
	for _, c := range quantCells() {
		if c.Scheme != protocol.CompInt32Block.String() {
			continue
		}
		if c.Speedup < 1.5 {
			t.Errorf("int32block speedup %.2fx below the 1.5x acceptance floor", c.Speedup)
		}
		if c.ByteRatio < 1.9 {
			t.Errorf("int32block byte ratio %.2fx below the 1.9x acceptance floor", c.ByteRatio)
		}
		return
	}
	t.Fatal("int32block cell missing from sweep")
}
