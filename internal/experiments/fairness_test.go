package experiments

import (
	"math"
	"testing"
)

// The isolation claim, gated: with the adversary flooding, weighted-fair
// admission plus egress policing holds every compliant tenant inside
// fixed floors — Jain fairness, round-time inflation, and egress share
// all bounded regardless of what the adversary offers. The raw cell
// proves the adversary actually bites without enforcement, so the fair
// cell's floors are not vacuously met.
func TestFairnessIsolationGates(t *testing.T) {
	cells := fairCells()
	off, raw, fair := cells[0], cells[1], cells[2]

	// The adversary must genuinely hurt without enforcement, or the
	// isolation gates below test nothing.
	if raw.RoundMs["c"] < 2*off.RoundMs["c"] {
		t.Errorf("raw cell: adversary barely hurts (c round %.3f ms vs %.3f ms unimpeded)",
			raw.RoundMs["c"], off.RoundMs["c"])
	}

	// Floor 1: compliant Jain fairness with the adversary active.
	if fair.CompliantJain < fairJainMin {
		t.Errorf("fair cell: compliant Jain = %.3f, want >= %.2f",
			fair.CompliantJain, fairJainMin)
	}

	// Floor 2: compliant round time within a fixed factor of the
	// unimpeded baseline.
	if fair.RoundMs["c"] > fairRoundCap*off.RoundMs["c"] {
		t.Errorf("fair cell: c round %.3f ms exceeds %.1fx the unimpeded %.3f ms",
			fair.RoundMs["c"], fairRoundCap, off.RoundMs["c"])
	}

	// Floor 3: egress shares track weights. The two identical rack-0
	// tenants split their uplink evenly, and the adversary's uplink
	// throughput is clamped to its weight share of the line (half of
	// the rack-1 uplink, both tenants weight 1) plus its amortized
	// bucket burst — within the share tolerance.
	if math.Abs(fair.Rack0Share-0.5) > fairShareTol {
		t.Errorf("fair cell: rack-0 share a:b = %.3f, want 0.5 +/- %.2f",
			fair.Rack0Share, fairShareTol)
	}
	advRes := fair.Results[len(fair.Results)-1]
	if !advRes.Adversary {
		t.Fatal("fair cell: last result is not the adversary")
	}
	window := (advRes.Finished - advRes.Started).Seconds()
	if window <= 0 {
		t.Fatal("fair cell: adversary has no active window")
	}
	burstBits := float64(2*fairFloats*4) * 8
	advCap := 0.5*fairUplinkBps*(1+fairShareTol) + burstBits/window
	if got := fair.UplinkTputBps["adv"]; got > advCap {
		t.Errorf("fair cell: adversary uplink %.3f Gb/s exceeds entitlement cap %.3f Gb/s",
			got/1e9, advCap/1e9)
	}

	// Floor 4: enforcement never taxes a compliant tenant — the
	// policers drop adversary frames only.
	if fair.CompliantPoliced != 0 {
		t.Errorf("fair cell: %d compliant frames policed, want 0", fair.CompliantPoliced)
	}
	if fair.AdvPoliced == 0 {
		t.Error("fair cell: adversary never policed — enforcement inactive")
	}

	// Compliant tenants keep (at least most of) their unimpeded
	// throughput: the adversary cannot push c's achieved uplink rate
	// below 90% of the off cell's.
	if got, want := fair.UplinkTputBps["c"], off.UplinkTputBps["c"]; got < 0.9*want {
		t.Errorf("fair cell: c uplink %.3f Gb/s, want >= 90%% of unimpeded %.3f Gb/s",
			got/1e9, want/1e9)
	}
}
