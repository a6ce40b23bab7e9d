package experiments

import (
	"strings"
	"testing"
)

// TestJobSweepContentionRegression pins the multi-tenant sweep's shape:
// a lone job sets the contention-free baseline; co-tenants on the same
// rack uplink push per-job round time up (never down); fabric-wide
// aggregated throughput climbs with J and then saturates; and past the
// SRAM budget admission control starts queueing jobs.
func TestJobSweepContentionRegression(t *testing.T) {
	rows := jobRows()
	counts := jobSweepCounts()
	if len(rows) != len(counts) {
		t.Fatalf("got %d rows for %d counts", len(rows), len(counts))
	}

	base := rows[0]
	if base.Jobs != 1 || base.Summary.Queued != 0 || base.Summary.Rejected != 0 {
		t.Fatalf("J=1 row malformed: %+v", base.Summary)
	}
	if base.Summary.Fairness != 1 {
		t.Fatalf("a lone job must have fairness 1, got %v", base.Summary.Fairness)
	}

	// Job 0 (the first DQN job) exists at every J: its round time is the
	// cross-J contention probe and must never improve as tenants arrive.
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1].PerJobRound[0], rows[i].PerJobRound[0]
		if cur < prev-prev/100 {
			t.Fatalf("job 0 round time improved with more tenants: J=%d %v -> J=%d %v",
				rows[i-1].Jobs, prev, rows[i].Jobs, cur)
		}
	}
	if shared := rows[1].PerJobRound[0]; shared <= base.PerJobRound[0] {
		t.Fatalf("rack-uplink contention should slow job 0: alone %v, shared %v",
			base.PerJobRound[0], shared)
	}

	// Aggregate throughput: strict gain from multi-tenancy at first,
	// then at worst a saturation plateau (admission-control tails may
	// cost a little, never a collapse).
	thr := func(i int) float64 { return rows[i].Summary.AggThroughputBps }
	if thr(1) <= thr(0) {
		t.Fatalf("two tenants should out-aggregate one: %v vs %v", thr(1), thr(0))
	}
	for i := 2; i < len(rows); i++ {
		if thr(i) < 0.85*thr(i-1) {
			t.Fatalf("throughput collapsed J=%d→J=%d: %v -> %v",
				rows[i-1].Jobs, rows[i].Jobs, thr(i-1), thr(i))
		}
	}
	if thr(len(rows)-1) <= thr(0) {
		t.Fatal("saturated fabric should still beat the single-tenant baseline")
	}

	// SRAM admission pressure: the cycled contexts exceed the root's
	// 16 MiB pool by the sixth job, and the FIFO defers more at J=8.
	byJ := map[int]int{}
	for _, row := range rows {
		byJ[row.Jobs] = row.Summary.Queued
	}
	if byJ[4] != 0 {
		t.Fatalf("J=4 fits the SRAM pool, yet %d jobs queued", byJ[4])
	}
	if byJ[6] == 0 {
		t.Fatal("J=6 exceeds the SRAM pool; expected queued jobs")
	}
	if byJ[8] <= byJ[6] {
		t.Fatalf("queueing should grow with J: J=6 %d, J=8 %d", byJ[6], byJ[8])
	}

	// Makespan never shrinks as jobs are added.
	for i := 1; i < len(rows); i++ {
		if rows[i].Summary.Makespan < rows[i-1].Summary.Makespan {
			t.Fatalf("makespan shrank J=%d→J=%d", rows[i-1].Jobs, rows[i].Jobs)
		}
	}

	text := report("job-sweep").Text
	for _, want := range []string{"fairness", "DQN/0", "queued"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered sweep missing %q:\n%s", want, text)
		}
	}
}
