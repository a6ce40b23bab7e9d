package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func tinyOptions(t *testing.T, trace bool) *options {
	pinProcs()
	return &options{seed: 1, trace: trace, sz: tinySizes,
		traceFile: filepath.Join(t.TempDir(), "trace.json")}
}

// TestSpecMatchesFile holds BENCHMARK.json equal to the tables in
// metrics.go and inside the limits the benchmark contract sets.
func TestSpecMatchesFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file, code any
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printSpec(&buf)
	if err := json.Unmarshal(buf.Bytes(), &code); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, code) {
		t.Fatal("BENCHMARK.json differs from `benchmark -spec`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metricDef) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("metric %q (unit %q) breaks the naming rules", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %q has no direction", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m)
	}
	if !seen["setup_s"] || len(perLayer) > 128 {
		t.Error("setup_s must be an end-to-end metric and per_layer at most 128 long")
	}
	for _, w := range workloads {
		check(metricDef{Name: w.Name, Unit: "x", Better: lower})
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestWorkloadsEmitTheSpec runs every workload, untraced and traced
// (which runs every layer driver), at tiny counts: outputs must check
// out, and the emitted names must be exactly the specified ones.
func TestWorkloadsEmitTheSpec(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, trace)
			res, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %q missing or with unit %q", w.Name, trace, m.Name, got.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %q is %v, must be positive", w.Name, m.Name, got.Value)
				}
			}
			if trace {
				checkTraceFile(t, o.traceFile)
			}
		}
	}
}

// checkTraceFile loads the trace the way a Chrome/Perfetto viewer does.
func checkTraceFile(t *testing.T, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file holds no events")
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" || ev.Dur < 0 {
			t.Fatalf("malformed trace event %+v", ev)
		}
	}
}

// TestWrongSumFailsTheCommand flips one expected value and wants a
// non-zero exit and correct=false; the same command without the flip
// must pass.
func TestWrongSumFailsTheCommand(t *testing.T) {
	args := []string{"-workload", "star-dqn", "-tiny", "-seconds", "0"}
	var out, errs bytes.Buffer
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("clean run exited %d: %s", code, errs.String())
	}
	out.Reset()
	if code := run(append(args, "-corrupt"), &out, &errs); code == 0 {
		t.Fatal("a wrong expected sum did not fail the command")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted run reported correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestLadderAbandonsABadRung makes every round of the ladder's first
// rung count as not clean: the rung must be abandoned after 1 % of its
// calls, a worker left waiting must give up after its receive
// timeouts, and no later rung may run.
func TestLadderAbandonsABadRung(t *testing.T) {
	o := tinyOptions(t, false)
	o.corrupt = true
	o.sz.ladderRounds = 200
	start := time.Now()
	s, err := runSession(o, o.sz.udpFloats, o.sz.ladderRounds, ladderTimeout, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.completed > 10 {
		t.Errorf("rung ran %d of %d rounds after going bad", s.completed, o.sz.ladderRounds)
	}
	v := udpLadder(o)
	if v["clean_segs_max"] != 0 || len(v) != 2 {
		t.Errorf("ladder went past its first bad rung: %v", v)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("abandoning took %v", d)
	}
}
