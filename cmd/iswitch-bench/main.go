// Command iswitch-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	iswitch-bench                 # every cheap experiment
//	iswitch-bench -exp table4     # one experiment
//	iswitch-bench -all            # everything, including functional
//	                              # training curves (minutes)
//	iswitch-bench -all -quick     # everything, shortened training
//	iswitch-bench -parallel 4     # worker-pool width (default GOMAXPROCS)
//	iswitch-bench -list           # list experiment ids
//	iswitch-bench -exp lossy      # reliability sweep: loss × topology ×
//	                              # mode plus crash and failover cells
//	iswitch-bench -exp quant      # quantized/sparse aggregation sweep:
//	                              # scheme × round time × wire bytes
//	iswitch-bench -exp serve      # inference fleet: latency-vs-load to
//	                              # saturation + training co-residency
//
// Experiments run on a bounded worker pool (-parallel); every
// simulation cell is an isolated kernel with fixed seeds and results
// are printed in paper order, so stdout is byte-identical at any
// parallelism level. Timing lines go to stderr. That stdout is the
// repository's virtual-time gate: internal/experiments/testdata/golden
// holds it per experiment (TestReportGolden), regenerated with
//
//	iswitch-bench -exp <id> -parallel 1 > internal/experiments/testdata/golden/<id>.txt
//
// Wall-clock numbers (kernels, event queue, data plane) live in
// benchmark/ instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"iswitch/internal/experiments"
	"iswitch/internal/parallel"
	"iswitch/internal/tensor/kernels"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id to run (empty: all cheap ones)")
		all     = flag.Bool("all", false, "include expensive functional-training experiments")
		quick   = flag.Bool("quick", false, "shorten functional training runs")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		workers = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulation workers (<1: GOMAXPROCS)")
	)
	flag.Parse()

	// Every results run records which gradient datapath produced it.
	fmt.Fprintf(os.Stderr, "float32 kernel backend: %s\n", kernels.Backend())

	experiments.SetParallelism(*workers)
	nWorkers := experiments.Parallelism()

	opts := experiments.DefaultCurveOpts()
	if *quick {
		opts = experiments.QuickCurveOpts()
	}
	specs := experiments.Specs(opts)

	if *list {
		for _, s := range specs {
			tag := ""
			if s.Expensive {
				tag = "  (expensive: functional training)"
			}
			fmt.Printf("%-22s %s%s\n", s.ID, s.Title, tag)
		}
		return
	}

	if *exp != "" {
		s, ok := experiments.ByID(*exp, opts)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *exp)
			os.Exit(1)
		}
		specs = []experiments.Spec{s}
	} else if !*all {
		// Keep skipped experiments in the list so their skip notice
		// prints at the paper-order position.
		for i := range specs {
			if specs[i].Expensive {
				specs[i].Run = nil
			}
		}
	}

	type outcome struct {
		res experiments.Result
		dur time.Duration
	}
	var cumulative time.Duration
	start := time.Now()
	// Run specs concurrently; emit fires in submission order, so stdout
	// carries only deterministic Result text in paper order.
	err := parallel.MapOrdered(nWorkers, len(specs),
		func(i int) outcome {
			if specs[i].Run == nil {
				return outcome{}
			}
			t0 := time.Now()
			return outcome{res: specs[i].Run(), dur: time.Since(t0)}
		},
		func(i int, o outcome) {
			if specs[i].Run == nil {
				fmt.Printf("=== %s: %s === (skipped; run with -all)\n\n", specs[i].ID, specs[i].Title)
				return
			}
			cumulative += o.dur
			fmt.Println(o.res.String())
			fmt.Println()
			fmt.Fprintf(os.Stderr, "(%s generated in %v)\n", specs[i].ID, o.dur.Round(time.Millisecond))
		})
	wall := time.Since(start)

	if err != nil {
		fmt.Fprintf(os.Stderr, "experiment worker panicked:\n%v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "total wall-clock %v, cumulative experiment time %v",
		wall.Round(time.Millisecond), cumulative.Round(time.Millisecond))
	if nWorkers > 1 && wall > 0 {
		fmt.Fprintf(os.Stderr, " (%.2fx speedup at -parallel %d)",
			cumulative.Seconds()/wall.Seconds(), nWorkers)
	}
	fmt.Fprintln(os.Stderr)
}
