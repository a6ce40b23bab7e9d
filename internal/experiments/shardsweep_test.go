package experiments

import (
	"strings"
	"testing"
)

// The sweep's headline claim: partitioning the async PS across more
// shards strictly reduces the per-update round time for both the
// largest (DQN) and smallest (PPO) paper model — the regression guard
// for the sharded baseline's cost model.
func TestShardSweepAsyncStrictlyDecreasing(t *testing.T) {
	if raceEnabled {
		// The DQN async cells alone run minutes under the race detector;
		// monotonicity is a deterministic cost-model property, not a race
		// property, and the non-race CI legs run this test at full
		// strength (the sharded runtime itself is raced in internal/core).
		t.Skip("sweep generators too slow under -race; covered by non-race legs")
	}
	for _, row := range shardRows() {
		for i := 1; i < len(row.Shards); i++ {
			prev, cur := row.Shards[i-1], row.Shards[i]
			if row.AsyncPerIter[cur] >= row.AsyncPerIter[prev] {
				t.Errorf("%s: async round time not strictly decreasing: S=%d %v vs S=%d %v",
					row.Workload.Name, cur, row.AsyncPerIter[cur], prev, row.AsyncPerIter[prev])
			}
			if row.SyncPerIter[cur] >= row.SyncPerIter[prev] {
				t.Errorf("%s: sync per-iteration not strictly decreasing: S=%d %v vs S=%d %v",
					row.Workload.Name, cur, row.SyncPerIter[cur], prev, row.SyncPerIter[prev])
			}
		}
		// Sharding must not break the staleness bound used by the sweep.
		for _, s := range row.Shards {
			if row.AsyncStaleness[s] > 3 {
				t.Errorf("%s S=%d: mean staleness %v exceeds bound 3",
					row.Workload.Name, s, row.AsyncStaleness[s])
			}
		}
	}
}

func TestShardSweepRendersAllColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("sweep generators too slow under -race; covered by non-race legs")
	}
	rows := shardRows()
	if len(rows) != 2 {
		t.Fatalf("sweep has %d rows, want 2 (DQN, PPO)", len(rows))
	}
	text := report("shard-sweep").Text
	for _, want := range []string{"S=1", "S=2", "S=4", "S=8", "DQN", "PPO", "sync", "async"} {
		if !strings.Contains(text, want) {
			t.Fatalf("shard-sweep missing %q:\n%s", want, text)
		}
	}
}
