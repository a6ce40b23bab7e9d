package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"iswitch/internal/core"
	"iswitch/internal/perfmodel"
)

// SyncRow is one benchmark's synchronous comparison (Table 4).
type SyncRow struct {
	Workload  perfmodel.Workload
	PerIter   map[string]time.Duration // strategy -> simulated per-iteration
	EndToEndH map[string]float64       // strategy -> derived hours
}

// cellGrid runs every workload under every strategy, each cell an
// isolated kernel on the worker pool, and returns the results as
// grid[strategy][workload index].
func cellGrid[T any](strats []string, run func(perfmodel.Workload, string) T) map[string][]T {
	ws := perfmodel.Workloads()
	flat := parMap(len(ws)*len(strats), func(i int) T {
		return run(ws[i/len(strats)], strats[i%len(strats)])
	})
	grid := map[string][]T{}
	for i, v := range flat {
		s := strats[i%len(strats)]
		grid[s] = append(grid[s], v)
	}
	return grid
}

// runSyncCells simulates the synchronous grid (4 workers, 3
// iterations) afresh.
func runSyncCells() map[string][]*core.RunStats {
	return cellGrid(SyncStrategies(), func(w perfmodel.Workload, s string) *core.RunStats {
		return simSync(w, s, 4, 0, 3)
	})
}

// syncCells is the synchronous grid, run once per process: Figures 4
// and 12 and Tables 3 and 4 all read it.
var syncCells = sync.OnceValue(runSyncCells)

// asyncCells is the asynchronous grid (4 workers, S=3), run once per
// process: Tables 3 and 5 read it.
var asyncCells = sync.OnceValue(func() map[string][]*core.AsyncStats {
	return cellGrid([]string{StratPS, StratISW}, func(w perfmodel.Workload, s string) *core.AsyncStats {
		return simAsync(w, s, 4, 0, 60, 3)
	})
})

// syncRows derives Table 4's rows from the synchronous grid.
func syncRows() []SyncRow {
	cells := syncCells()
	var rows []SyncRow
	for wi, w := range perfmodel.Workloads() {
		row := SyncRow{Workload: w,
			PerIter:   map[string]time.Duration{},
			EndToEndH: map[string]float64{}}
		for _, s := range SyncStrategies() {
			mi := cells[s][wi].MeanIter()
			row.PerIter[s] = mi
			row.EndToEndH[s] = hours(w.SyncIters, mi)
		}
		rows = append(rows, row)
	}
	return rows
}

// AsyncRow is one benchmark's asynchronous comparison (Table 5).
type AsyncRow struct {
	Workload  perfmodel.Workload
	PerIter   map[string]time.Duration
	EndToEndH map[string]float64
	Staleness map[string]float64
}

// asyncRows derives Table 5's rows from the asynchronous grid.
func asyncRows() []AsyncRow {
	cells := asyncCells()
	var rows []AsyncRow
	for wi, w := range perfmodel.Workloads() {
		row := AsyncRow{Workload: w,
			PerIter:   map[string]time.Duration{},
			EndToEndH: map[string]float64{},
			Staleness: map[string]float64{}}
		for _, s := range []string{StratPS, StratISW} {
			stats := cells[s][wi]
			row.PerIter[s] = asyncPerIter(stats)
			row.Staleness[s] = stats.MeanStaleness()
			iters := w.AsyncItersPS
			if s == StratISW {
				iters = w.AsyncItersISW
			}
			row.EndToEndH[s] = hours(iters, row.PerIter[s])
		}
		rows = append(rows, row)
	}
	return rows
}

// Table4 reproduces the synchronous comparison: iterations, end-to-end
// training time, and final average reward per strategy.
//
// Iteration counts are the paper's (all three strategies are
// mathematically equivalent, so they share one count — verified by the
// core package's equivalence tests). Per-iteration times are simulated;
// end-to-end time is their product. Rewards shown are the paper's
// (trained on Atari/MuJoCo); the stand-in environments' achievable
// rewards are reported by the training-curve experiments instead.
func Table4() Result {
	var b strings.Builder
	rows := syncRows()
	fmt.Fprintf(&b, "%-6s %-12s | %-10s %-10s %-10s | %-28s\n",
		"Bench", "Iterations", "PS", "AR", "iSW", "paper end-to-end (PS/AR/iSW)")
	for _, r := range rows {
		w := r.Workload
		fmt.Fprintf(&b, "%-6s %-12.2e | %7.2f h  %7.2f h  %7.2f h | %.2f / %.2f / %.2f h\n",
			w.Name, float64(w.SyncIters),
			r.EndToEndH[StratPS], r.EndToEndH[StratAR], r.EndToEndH[StratISW],
			hours(w.SyncIters, w.PaperSyncPerIterPS),
			hours(w.SyncIters, w.PaperSyncPerIterAR),
			hours(w.SyncIters, w.PaperSyncPerIterISW))
	}
	b.WriteString("\nper-iteration (simulated vs paper, ms):\n")
	for _, r := range rows {
		w := r.Workload
		fmt.Fprintf(&b, "%-6s PS %8s (%6s)  AR %8s (%6s)  iSW %8s (%6s)\n", w.Name,
			ms(r.PerIter[StratPS]), ms(w.PaperSyncPerIterPS),
			ms(r.PerIter[StratAR]), ms(w.PaperSyncPerIterAR),
			ms(r.PerIter[StratISW]), ms(w.PaperSyncPerIterISW))
	}
	fmt.Fprintf(&b, "\nfinal average reward (paper, identical across sync strategies): ")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %.2f  ", r.Workload.Name, r.Workload.FinalReward)
	}
	b.WriteByte('\n')
	return Result{ID: "table4", Title: "Performance comparison of synchronous distributed training", Text: b.String()}
}

// Table5 reproduces the asynchronous comparison (4 workers, S=3):
// iterations (paper), per-iteration time (simulated), end-to-end time,
// plus the measured gradient staleness explaining the iteration gap.
func Table5() Result {
	var b strings.Builder
	rows := asyncRows()
	fmt.Fprintf(&b, "%-6s | %-22s | %-26s | %-22s | %-18s\n",
		"Bench", "Iterations (PS/iSW)", "Per-iter ms sim (paper)", "End-to-end h (paper)", "mean staleness")
	for _, r := range rows {
		w := r.Workload
		fmt.Fprintf(&b, "%-6s | %9.2e/%9.2e | PS %6s(%6s) iSW %6s(%6s) | %6.2f/%6.2f (%5.2f/%5.2f) | PS %.2f iSW %.2f\n",
			w.Name, float64(w.AsyncItersPS), float64(w.AsyncItersISW),
			ms(r.PerIter[StratPS]), ms(w.PaperAsyncPerIterPS),
			ms(r.PerIter[StratISW]), ms(w.PaperAsyncPerIterISW),
			r.EndToEndH[StratPS], r.EndToEndH[StratISW],
			hours(w.AsyncItersPS, w.PaperAsyncPerIterPS),
			hours(w.AsyncItersISW, w.PaperAsyncPerIterISW),
			r.Staleness[StratPS], r.Staleness[StratISW])
	}
	b.WriteString("(iteration counts from the paper; iSwitch's lower staleness is what cuts them — see figure14)\n")
	return Result{ID: "table5", Title: "Performance comparison of asynchronous distributed training", Text: b.String()}
}

// Table3 reproduces the headline speedup summary: end-to-end speedup
// over the PS baseline for each benchmark, sync and async.
func Table3() Result {
	var b strings.Builder
	syncR := syncRows()
	asyncR := asyncRows()
	fmt.Fprintf(&b, "%-28s %-8s %-8s %-8s %-8s\n", "Speedup vs PS baseline", "DQN", "A2C", "PPO", "DDPG")

	line := func(label string, f func(i int) float64, paper []float64) {
		fmt.Fprintf(&b, "%-28s", label)
		for i := range syncR {
			fmt.Fprintf(&b, " %-8.2f", f(i))
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-28s", "  (paper)")
		for _, p := range paper {
			fmt.Fprintf(&b, " %-8.2f", p)
		}
		b.WriteString("\n")
	}
	line("Sync  AR", func(i int) float64 {
		return syncR[i].EndToEndH[StratPS] / syncR[i].EndToEndH[StratAR]
	}, []float64{1.97, 1.62, 0.91, 0.90})
	line("Sync  iSW", func(i int) float64 {
		return syncR[i].EndToEndH[StratPS] / syncR[i].EndToEndH[StratISW]
	}, []float64{3.66, 2.55, 1.72, 1.83})
	line("Async iSW", func(i int) float64 {
		return asyncR[i].EndToEndH[StratPS] / asyncR[i].EndToEndH[StratISW]
	}, []float64{3.71, 3.14, 1.92, 1.56})
	return Result{ID: "table3", Title: "Summary of performance speedups in end-to-end training time", Text: b.String()}
}
