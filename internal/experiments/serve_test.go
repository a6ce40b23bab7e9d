package experiments

import (
	"strings"
	"testing"
	"time"

	"iswitch/internal/serve"
)

// TestRenderServe pins the report layout without running the cells.
func TestRenderServe(t *testing.T) {
	mk := func(p50, p99, max time.Duration) serve.Metrics {
		return serve.Metrics{Offered: 150_000, Achieved: 149_000,
			Sent: 600, Done: 600, P50: p50, P99: p99, Max: max,
			Occupancy: 0.42, MaxBatch: 3}
	}
	d := ServeData{
		Curve: []serve.SweepPoint{
			{Rate: 50_000, M: mk(22*time.Microsecond, 35*time.Microsecond, 60*time.Microsecond)},
			{Rate: 100_000, M: mk(25*time.Microsecond, 1646*time.Microsecond, 3*time.Millisecond),
				Saturated: true, Reason: "p99"},
		},
		CoRes: serve.CoResResult{
			Cfg: serve.CoResConfig{Rate: 150_000, TrainFloats: 20_000,
				UplinkBps: 2.5e9},
			Off: serve.CoResCell{Label: "off",
				Serve: mk(24*time.Microsecond, 59*time.Microsecond, 100*time.Microsecond)},
			FIFO: serve.CoResCell{Label: "fifo", TrainRound: 924 * time.Microsecond,
				Serve: mk(30*time.Microsecond, 244*time.Microsecond, 400*time.Microsecond)},
			Fair: serve.CoResCell{Label: "fair", TrainRound: 5774 * time.Microsecond,
				TrainPoliced: 429,
				Serve:        mk(26*time.Microsecond, 94*time.Microsecond, 200*time.Microsecond)},
		},
	}
	text := renderServe(d).Text
	for _, want := range []string{
		"saturated (p99)", "off", "fifo", "fair", "429",
		"4.1x", "1.6x", "price of latency isolation",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("serve report missing %q:\n%s", want, text)
		}
	}
}

// TestServeIsolation restates the isolation claim over the cells the
// golden checked: under weighted-fair + policing the compliant
// inference tenant's p99 stays within serveFairP99Cap of the unimpeded
// cell while FIFO shows at least serveFIFOP99Floor of inflation, zero
// inference frames are policed or lost anywhere, and the fair cell
// actually policed the training tenant.
func TestServeIsolation(t *testing.T) {
	cr := serveData().CoRes
	for _, c := range []serve.CoResCell{cr.Off, cr.FIFO, cr.Fair} {
		if c.Serve.Lost != 0 {
			t.Errorf("cell %s lost %d inference requests", c.Label, c.Serve.Lost)
		}
		if c.ServePoliced != 0 {
			t.Errorf("cell %s policed %d compliant inference frames", c.Label, c.ServePoliced)
		}
	}
	if r := ratio(cr.FIFO.Serve.P99, cr.Off.Serve.P99); r < serveFIFOP99Floor {
		t.Errorf("fifo p99 only %.2fx the unimpeded cell (< %.1fx): no contention to isolate",
			r, serveFIFOP99Floor)
	}
	if r := ratio(cr.Fair.Serve.P99, cr.Off.Serve.P99); r > serveFairP99Cap {
		t.Errorf("fair p99 %.2fx the unimpeded cell exceeds the %.1fx isolation gate",
			r, serveFairP99Cap)
	}
	if cr.Fair.Serve.P99 >= cr.FIFO.Serve.P99 {
		t.Errorf("fair p99 %v not below fifo %v", cr.Fair.Serve.P99, cr.FIFO.Serve.P99)
	}
	if cr.Fair.TrainPoliced == 0 {
		t.Error("fair cell never policed the training tenant (policer not engaged)")
	}
}
