package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"iswitch/internal/tensor/kernels"
)

// A baseline is what -out writes and -check compares against: every
// metric of every workload, with the environment it was measured in.
type baseline struct {
	Env       environment                    `json:"environment"`
	Workloads map[string]map[string]recorded `json:"workloads"`
}

type environment struct {
	GoArch      string  `json:"goarch"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	Kernels     string  `json:"kernels_backend"`
	RmemDefault string  `json:"rmem_default"`
	RmemMax     string  `json:"rmem_max"`
	Network     string  `json:"network"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Commit      string  `json:"commit"`
}

// recorded is one metric of one workload. Q1, Q3 and Repeats are set
// for metrics that are medians over repeats.
type recorded struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	Repeats int     `json:"repeats,omitempty"`
}

func currentEnv(o *options) environment {
	def, max := rmem()
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{GoArch: runtime.GOARCH, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Kernels: kernels.Backend(), RmemDefault: def, RmemMax: max,
		Network: "udp-loopback traffic crossed the loopback interface only", Seed: o.seed,
		Seconds: o.seconds, Commit: commit}
}

// measureAll runs every workload twice, tracing off then on, and
// returns every metric by name.
func measureAll(o *options, stdout, stderr io.Writer) (map[string]map[string]recorded, bool) {
	all, correct := map[string]map[string]recorded{}, true
	for i := range workloads {
		w := &workloads[i]
		all[w.Name] = map[string]recorded{}
		for _, trace := range []bool{false, true} {
			oo := *o
			oo.trace = trace
			res, err := runWorkload(w, &oo)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				return nil, false
			}
			printMetrics(stdout, w.Name, res)
			correct = correct && res.Correct
			for name, m := range res.Metrics {
				sp := res.Spreads[name]
				all[w.Name][name] = recorded{m.Value, m.Unit, sp.Q1, sp.Q3, sp.Repeats}
			}
		}
	}
	return all, correct
}

// exact reports whether a metric must not differ at all between two
// runs of the same code with the same seed.
func exact(name string) bool {
	return strings.HasPrefix(name, "sim_") || name == "sim.events_per_round" || name == "clean_segs_max"
}

// runAll is -all (measure, print, optionally write a baseline) and
// -check (measure and compare with a baseline): the tool for "two sets
// of runs agree" and for parent-against-change runs.
func runAll(o *options, out, check string, stdout, stderr io.Writer) int {
	var old baseline
	if check != "" {
		raw, err := os.ReadFile(check)
		if err == nil {
			err = json.Unmarshal(raw, &old)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		o.seed, o.seconds = old.Env.Seed, old.Env.Seconds
	}
	env := currentEnv(o)
	fmt.Fprintf(stdout, "# environment: %+v\n", env)
	all, correct := measureAll(o, stdout, stderr)
	if all == nil {
		return 1
	}
	status := 0
	if !correct {
		fmt.Fprintln(stderr, "benchmark: a workload's outputs were wrong")
		status = 1
	}
	if check != "" && !compare(old.Workloads, all, stdout) {
		status = 1
	}
	if out != "" {
		raw, err := json.MarshalIndent(baseline{env, all}, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}

// compare prints old, new and bound for every end-to-end and every
// exact metric of every workload, and reports whether all agree.
func compare(old, now map[string]map[string]recorded, stdout io.Writer) bool {
	ok := true
	fmt.Fprintf(stdout, "\n%-22s %-24s %14s %14s %8s %8s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	row := func(w string, m metricDef, bound float64) {
		a, b := old[w][m.Name], now[w][m.Name]
		if a.Value == 0 && b.Value == 0 {
			return // the metric does not apply to this workload
		}
		change := 0.0
		if a.Value != 0 {
			change = (b.Value - a.Value) / a.Value
		}
		worse := change
		if m.Better == higher {
			worse = -change
		}
		verdict := "ok"
		if (bound == 0 && a.Value != b.Value) || (bound > 0 && worse > bound) {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(stdout, "%-22s %-24s %14.6g %14.6g %+7.1f%% %7.0f%%  %s\n",
			w, m.Name, a.Value, b.Value, 100*change, 100*bound, verdict)
	}
	for _, w := range workloads {
		for _, m := range endToEnd {
			row(w.Name, m, m.Bound)
		}
		for _, m := range perLayer {
			if exact(m.Name) {
				row(w.Name, m, 0)
			}
		}
	}
	return ok
}
