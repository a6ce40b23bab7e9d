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
//	iswitch-bench -kernels        # report float32 kernel backends and
//	                              # a scalar-vs-SIMD throughput smoke
//	iswitch-bench -simcore        # benchmark the calendar-queue event
//	                              # scheduler against the reference heap
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
// parallelism level. Timing lines go to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"iswitch/internal/experiments"
	"iswitch/internal/parallel"
	"iswitch/internal/tensor/kernels"
)

// kernelReport prints the available float32 kernel backends and a quick
// Add/Dot throughput smoke for each — enough for CI logs to prove which
// datapath the numbers below were produced on.
func kernelReport(w io.Writer) {
	fmt.Fprintf(w, "float32 kernel backends: %v (selected: %s)\n", kernels.Backends(), kernels.Backend())
	orig := kernels.Backend()
	defer kernels.SetBackend(orig)
	const n = 16384 // 64 KiB of float32s
	dst := make([]float32, n)
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i%7) * 0.25
	}
	for _, b := range kernels.Backends() {
		if err := kernels.SetBackend(b); err != nil {
			fmt.Fprintf(w, "  %-8s unavailable: %v\n", b, err)
			continue
		}
		for _, k := range []struct {
			name string
			fn   func()
		}{
			{"Add", func() { kernels.Add(dst, src) }},
			{"Dot", func() { kernels.Dot(dst, src) }},
		} {
			iters := 1
			var el time.Duration
			for {
				t0 := time.Now()
				for i := 0; i < iters; i++ {
					k.fn()
				}
				el = time.Since(t0)
				if el > 10*time.Millisecond {
					break
				}
				iters *= 4
			}
			gbps := float64(4*n) * float64(iters) / float64(el.Nanoseconds())
			fmt.Fprintf(w, "  %-8s %-4s %6.1f GB/s (64 KiB)\n", b, k.name, gbps)
		}
	}
}

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id to run (empty: all cheap ones)")
		all     = flag.Bool("all", false, "include expensive functional-training experiments")
		quick   = flag.Bool("quick", false, "shorten functional training runs")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		kern    = flag.Bool("kernels", false, "report float32 kernel backends and exit")
		simcore = flag.Bool("simcore", false, "benchmark the event scheduler (calendar vs heap) and exit")
		workers = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulation workers (<1: GOMAXPROCS)")
	)
	flag.Parse()

	if *kern {
		kernelReport(os.Stdout)
		return
	}
	if *simcore {
		// Wall-clock numbers, so it lives outside the deterministic
		// experiment registry, like -kernels.
		fmt.Println(experiments.SimCore().String())
		return
	}
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
