// Command benchmark is the repository's one benchmark for both clocks:
// simulated time (what the paper reports) and host time (how fast this
// code runs). It measures every layer from outside, through public
// functions, injected agents, port trace hooks and public counters.
// README.md explains the workloads, the metrics and how to read them.
//
//	bash benchmark/run.sh --workload star-dqn --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -all -out benchmark/BASELINE.json
//	bash benchmark/run.sh -check benchmark/BASELINE.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// sizes are the fixed operation counts of one repeat of each workload.
// Counts, never time limits, bound a repeat, so simulated results
// repeat exactly; the time budget only decides how many repeats run.
type sizes struct {
	starFloats, starRounds int

	ftK, ftHostsPerEdge, ftJobs, ftWorkers, ftFloats, ftIters int

	lossyFloats, lossyRounds int

	matrixDiv, matrixIters int // model sizes are divided by matrixDiv
	matrixUpdates          int64

	udpFloats, udpRounds, ladderRounds int

	driverOps int // operations per layer-driver batch
}

// fullSizes give repeats of roughly a second each on a 2-core box.
var fullSizes = sizes{
	starFloats: 1_602_500, starRounds: 10,
	ftK: 8, ftHostsPerEdge: 32, ftJobs: 64, ftWorkers: 16, ftFloats: 400, ftIters: 100,
	lossyFloats: 400_000, lossyRounds: 3,
	matrixDiv: 1, matrixIters: 3, matrixUpdates: 24,
	udpFloats: 10_005, udpRounds: 2000, ladderRounds: 300,
	driverOps: 20_000,
}

// tinySizes keep the smoke test under a few seconds.
var tinySizes = sizes{
	starFloats: 2000, starRounds: 2,
	ftK: 4, ftHostsPerEdge: 2, ftJobs: 2, ftWorkers: 8, ftFloats: 400, ftIters: 2,
	lossyFloats: 4000, lossyRounds: 2,
	matrixDiv: 400, matrixIters: 2, matrixUpdates: 4,
	udpFloats: 1000, udpRounds: 20, ladderRounds: 10,
	driverOps: 200,
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
	// corrupt flips one expected value, which must fail the run.
	corrupt bool
	// traceFile is where a traced run leaves its spans.
	traceFile string
}

// A workload is one named input of the benchmark; later issues cite
// the names.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// repeat runs the workload's fixed operation count once.
	repeat func(o *options, tr *tracer, parent int) (*repeat, error)
	// extra, when set, is a further phase only the traced run measures.
	extra func(o *options) values
}

var workloads = []workload{
	{"star-dqn", "paper testbed (4 workers, DQN, fp32): per-packet work in protocol, accel, switchnet and netsim dominates", starDQN, nil},
	{"fattree1024", "1024 procs, 64 tiny-model jobs: sim hand-off, calendar queue and multijob admission dominate; bypasses the data plane", fatTree1024, nil},
	{"fattree16-int32-lossy", "int32block codec, shadow slots, Help and retransmit over 3 switch levels: the integer and recovery paths", fatTreeLossy, nil},
	{"strategy-matrix", "Tables 3-5: PS incast, ring all-reduce and the async pipeline, which run without the switch engine", strategyMatrix, nil},
	{"udp-loopback", "real UDP sockets on 127.0.0.1: transport, wire codec and the OS stack; closed loop, 2 clients", udpLoopback, udpLadder},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Spreads holds the quartiles of the metrics that are medians over
	// repeats; -out records them.
	Spreads map[string]spread `json:"-"`
	// Notes is a line for the human reader (the raw-clock values).
	Notes string `json:"-"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pinProcs pins GOMAXPROCS to min(nproc, 2) so host times do not
// depend on how many cores the box happens to have.
func pinProcs() {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	runtime.GOMAXPROCS(n)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "seed of the gradient generator and the fault plan")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	all := fs.Bool("all", false, "run every workload, both passes, and print every metric")
	out := fs.String("out", "", "with -all: write the measurements and the environment to this file")
	check := fs.String("check", "", "run like -all and compare with the measurements in this file")
	spec := fs.Bool("spec", false, "print BENCHMARK.json")
	list := fs.Bool("list", false, "list the workloads")
	tiny := fs.Bool("tiny", false, "self-test: use the smoke test's operation counts")
	corrupt := fs.Bool("corrupt", false, "self-test: flip one expected value, so the run must fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pinProcs()
	o := &options{seed: *seed, seconds: *seconds, trace: *trace != 0, sz: fullSizes,
		corrupt: *corrupt, traceFile: "benchmark/out/trace.json"}
	if *tiny {
		o.sz = tinySizes
	}
	switch {
	case *spec:
		return printSpec(stdout)
	case *list:
		for _, w := range workloads {
			fmt.Fprintf(stdout, "%-24s %s\n", w.Name, w.Why)
		}
		return 0
	case *all || *check != "":
		return runAll(o, *out, *check, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (try -list)\n", *name)
		return 2
	}
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printMetrics(stdout, w.Name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics prints every metric by name with its unit.
func printMetrics(w io.Writer, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s: %d attempted, %d failed, correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
	if res.Notes != "" {
		fmt.Fprintf(w, "# %s\n", res.Notes)
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []specLayer `json:"per_layer"`
}

// specLayer is a per-layer metric as BENCHMARK.json lists it: without
// a bound.
type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 20

func currentSpec() benchmarkSpec {
	s := benchmarkSpec{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"},
		RunSeconds: runSeconds, Workloads: workloads, EndToEnd: endToEnd}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, specLayer{m.Name, m.Unit, m.Better})
	}
	return s
}

func printSpec(w io.Writer) int {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(currentSpec()); err != nil {
		return 1
	}
	return 0
}
