package experiments

import (
	"fmt"
	"strings"
	"time"

	"iswitch/internal/core"
	"iswitch/internal/perfmodel"
)

// stageBreakdown converts a simulated iteration into the Figure 4 /
// Figure 12 stage percentages.
type stageBreakdown struct {
	names  []string
	shares []float64 // fractions of the iteration
	total  time.Duration
}

func breakdownFor(w perfmodel.Workload, compute, agg, update, total time.Duration) stageBreakdown {
	cs := w.ComputeShares
	frac := func(share float64) float64 {
		return share * float64(compute) / float64(total)
	}
	return stageBreakdown{
		names: perfmodel.StageNames(),
		shares: []float64{
			frac(cs.AgentAction), frac(cs.EnvReact), frac(cs.BufferSampling),
			frac(cs.MemAlloc), frac(cs.ForwardPass), frac(cs.BackwardPass),
			frac(cs.GPUCopy),
			float64(update) / float64(total),
			float64(agg) / float64(total),
			frac(cs.Others),
		},
		total: total,
	}
}

func (sb stageBreakdown) aggPercent() float64 { return sb.shares[8] * 100 }

func (sb stageBreakdown) render(b *strings.Builder, label string) {
	fmt.Fprintf(b, "  %-8s total %8s ms |", label, ms(sb.total))
	for i, name := range sb.names {
		fmt.Fprintf(b, " %s %4.1f%%", abbrevStage(name), sb.shares[i]*100)
	}
	b.WriteByte('\n')
}

func abbrevStage(name string) string {
	switch name {
	case "Agent Action":
		return "Act"
	case "Environ React":
		return "Env"
	case "Buffer Sampling":
		return "Buf"
	case "Memory Alloc":
		return "Mem"
	case "Forward Pass":
		return "Fwd"
	case "Backward Pass":
		return "Bwd"
	case "GPU Copy":
		return "Cpy"
	case "Weight Update":
		return "Upd"
	case "Grad Aggregation":
		return "Agg"
	case "Others":
		return "Oth"
	}
	return name
}

// Figure4 reproduces the per-iteration breakdown of PS and AllReduce
// training: gradient aggregation must occupy roughly 49.9–83.2% of each
// iteration across the four benchmarks.
func Figure4() Result { return figure4(syncCells()) }

// figure4 renders Figure 4 from a synchronous grid.
func figure4(cells map[string][]*core.RunStats) Result {
	var b strings.Builder
	lo, hi := 100.0, 0.0
	for _, strategy := range []string{StratPS, StratAR} {
		fmt.Fprintf(&b, "(%s)\n", strategy)
		for wi, w := range perfmodel.Workloads() {
			stats := cells[strategy][wi]
			sb := breakdownFor(w, w.LocalCompute, stats.MeanAgg(), w.WeightUpdate, stats.MeanIter())
			sb.render(&b, w.Name)
			if p := sb.aggPercent(); p < lo {
				lo = p
			} else if p > hi {
				hi = p
			}
			if p := sb.aggPercent(); p > hi {
				hi = p
			}
		}
	}
	fmt.Fprintf(&b, "gradient aggregation share: %.1f%% – %.1f%% (paper: 49.9%% – 83.2%%)\n", lo, hi)
	return Result{ID: "figure4", Title: "Performance breakdown of each iteration (PS, AllReduce)", Text: b.String()}
}

// Figure12 reproduces the synchronous per-iteration comparison with
// breakdown: for each benchmark, PS/AR/iSW per-iteration times
// normalized to PS.
func Figure12() Result { return figure12(syncCells()) }

// figure12 renders Figure 12 from a synchronous grid.
func figure12(cells map[string][]*core.RunStats) Result {
	var b strings.Builder
	for wi, w := range perfmodel.Workloads() {
		fmt.Fprintf(&b, "%s:\n", w.Name)
		var psIter time.Duration
		for _, strategy := range SyncStrategies() {
			stats := cells[strategy][wi]
			if strategy == StratPS {
				psIter = stats.MeanIter()
			}
			sb := breakdownFor(w, w.LocalCompute, stats.MeanAgg(), w.WeightUpdate, stats.MeanIter())
			norm := float64(stats.MeanIter()) / float64(psIter)
			fmt.Fprintf(&b, "  %-4s norm %.2f |", strategy, norm)
			fmt.Fprintf(&b, " iter %8s ms, agg %8s ms (%4.1f%%)\n",
				ms(stats.MeanIter()), ms(stats.MeanAgg()), sb.aggPercent())
		}
	}
	b.WriteString("(normalized against PS per benchmark, as in the paper's Figure 12)\n")
	return Result{ID: "figure12", Title: "Per-iteration time of synchronous approaches with breakdown", Text: b.String()}
}
