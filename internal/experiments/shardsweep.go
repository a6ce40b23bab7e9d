package experiments

import (
	"fmt"
	"strings"
	"time"

	"iswitch/internal/core"
	"iswitch/internal/perfmodel"
)

// Shard-count sweep for the parameter-server baseline: how far does
// partitioning the model across S server hosts close the gap to
// in-switch aggregation? S=1 is the single-server baseline, so the
// first column doubles as a cross-check against Table 4/5.

// shardSweepCounts is the sweep grid.
func shardSweepCounts() []int { return []int{1, 2, 4, 8} }

// shardSweepWorkloads picks the extremes: DQN (largest model, sync
// bottleneck dominated by the server link) and PPO (smallest model,
// dominated by per-message software cost).
func shardSweepWorkloads() []perfmodel.Workload {
	var out []perfmodel.Workload
	for _, w := range perfmodel.Workloads() {
		if w.Name == "DQN" || w.Name == "PPO" {
			out = append(out, w)
		}
	}
	return out
}

// ShardSweepRow is one workload's shard-count sweep.
type ShardSweepRow struct {
	Workload perfmodel.Workload
	Shards   []int
	// SyncPerIter and AsyncPerIter map shard count -> per-iteration /
	// per-update round time.
	SyncPerIter  map[int]time.Duration
	AsyncPerIter map[int]time.Duration
	// AsyncStaleness maps shard count -> mean committed staleness.
	AsyncStaleness map[int]float64
}

// shardSweepRows runs the sweep grid (4 workers; async: 40 updates at
// staleness bound 3), one pooled cell per workload × shard count ×
// mode. The experiment text and the monotonicity regression test both
// consume these rows.
func shardSweepRows() []ShardSweepRow {
	ws := shardSweepWorkloads()
	counts := shardSweepCounts()
	type cell struct {
		sync  *core.RunStats
		async *core.AsyncStats
	}
	cells := parMap(len(ws)*len(counts), func(i int) cell {
		w := ws[i/len(counts)]
		spec := func(async bool) core.ClusterSpec {
			sp := strategySpec(w, StratPS, 4, 0, async)
			sp.Shards = counts[i%len(counts)]
			return sp
		}
		return cell{
			sync:  simSyncSpec(w, spec(false), 2),
			async: simSpec(w, spec(true), core.Job{Updates: 40, StalenessBound: 3}),
		}
	})
	var rows []ShardSweepRow
	for wi, w := range ws {
		row := ShardSweepRow{Workload: w, Shards: counts,
			SyncPerIter:    map[int]time.Duration{},
			AsyncPerIter:   map[int]time.Duration{},
			AsyncStaleness: map[int]float64{}}
		for si, s := range counts {
			c := cells[wi*len(counts)+si]
			row.SyncPerIter[s] = c.sync.MeanIter()
			row.AsyncPerIter[s] = asyncPerIter(c.async)
			row.AsyncStaleness[s] = c.async.MeanStaleness()
		}
		rows = append(rows, row)
	}
	return rows
}

// ShardSweep runs and renders the sharded-PS shard-count sweep table.
func ShardSweep() Result { return renderShardSweep(shardSweepRows()) }

// renderShardSweep formats sweep rows (split from the runs so tests can
// render the same rows they assert on without a second sweep).
func renderShardSweep(rows []ShardSweepRow) Result {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded parameter server, 4 workers, 10GbE star (ms/iteration).\n")
	fmt.Fprintf(&b, "S=1 is the single-server PS baseline (bit-identical by construction).\n\n")
	fmt.Fprintf(&b, "%-9s %-7s", "Workload", "Mode")
	for _, s := range shardSweepCounts() {
		fmt.Fprintf(&b, " %9s", fmt.Sprintf("S=%d", s))
	}
	b.WriteString("\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-9s %-7s", row.Workload.Name, "sync")
		for _, s := range row.Shards {
			fmt.Fprintf(&b, " %9s", ms(row.SyncPerIter[s]))
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-9s %-7s", "", "async")
		for _, s := range row.Shards {
			fmt.Fprintf(&b, " %9s", ms(row.AsyncPerIter[s]))
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-9s %-7s", "", "stale")
		for _, s := range row.Shards {
			fmt.Fprintf(&b, " %9.2f", row.AsyncStaleness[s])
		}
		b.WriteString("\n")
	}
	return Result{ID: "shard-sweep",
		Title: "Sharded parameter-server shard-count sweep", Text: b.String()}
}
