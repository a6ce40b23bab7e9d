package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"iswitch/internal/perfmodel"
	"iswitch/internal/rl"
	"iswitch/internal/tensor/kernels"
)

// AblationFP16 quantifies the paper's raw-float32 wire format choice
// (§3.2: "all gradient data are transmitted and computed in a raw
// float-point format"): what would half-precision transport save in
// aggregation latency, and what would it cost in gradient fidelity?
//
// Latency: an fp16 payload halves the wire bytes, so the simulation is
// re-run with half-sized vectors (the accelerator's burst count and the
// links' serialization both scale with bytes). Fidelity: real A2C
// gradients from four workers are quantized through fp16, summed, and
// compared with the float32 aggregate.
func AblationFP16() Result {
	var b strings.Builder

	// Latency side, per workload: the full- and half-width runs of every
	// workload are independent cells for the worker pool.
	fmt.Fprintf(&b, "%-6s %-16s %-16s %-8s\n", "Bench", "fp32 agg ms", "fp16 agg ms", "saving")
	ws := perfmodel.Workloads()
	aggs := parMap(2*len(ws), func(i int) time.Duration {
		w := ws[i/2]
		if i%2 == 1 {
			w.ModelBytes = w.ModelBytes / 2
		}
		return simSync(w, StratISW, 4, 0, 2).MeanAgg()
	})
	for wi, w := range ws {
		full, half := aggs[2*wi], aggs[2*wi+1]
		fmt.Fprintf(&b, "%-6s %-16s %-16s %6.2fx\n",
			w.Name, ms(full), ms(half), float64(full)/float64(half))
	}

	// Fidelity side, real gradients.
	const workers = 4
	agents := make([]rl.Agent, workers)
	for i := range agents {
		a, err := rl.NewWorkloadAgent(rl.WorkloadA2C, 42, int64(900+i))
		if err != nil {
			panic(err)
		}
		agents[i] = a
	}
	n := agents[0].GradLen()
	exact := make([]float64, n)
	quant := make([]float32, n)
	g := make([]float32, n)
	// One wire buffer and one decode buffer, reused across workers: the
	// pack/unpack round trip is the thing being modeled, and the
	// zero-alloc F16AppendPack/F16UnpackInto forms keep the loop
	// allocation-free after setup.
	q := make([]float32, n)
	wire := make([]byte, 0, 2*n)
	for _, a := range agents {
		a.ComputeGradient(g)
		for i, v := range g {
			exact[i] += float64(v)
		}
		wire = kernels.F16AppendPack(wire[:0], g)
		kernels.F16UnpackInto(q, wire)
		for i, v := range q {
			quant[i] += v
		}
	}
	var errNorm, refNorm float64
	for i := range exact {
		d := float64(quant[i]) - exact[i]
		errNorm += d * d
		refNorm += exact[i] * exact[i]
	}
	rel := math.Sqrt(errNorm) / (math.Sqrt(refNorm) + 1e-30)
	fmt.Fprintf(&b, "\nfp16 aggregate relative error on real A2C gradients: %.2e\n", rel)
	fmt.Fprintf(&b, "(the paper keeps fp32: the FPGA adders are native float32 and the\n")
	fmt.Fprintf(&b, " latency win only matters for the largest models, where accuracy is\n")
	fmt.Fprintf(&b, " also most sensitive to quantized aggregation)\n")
	return Result{ID: "ablation-fp16", Title: "Half-precision wire format (design-choice ablation)", Text: b.String()}
}
