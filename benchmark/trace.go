package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// A span is one interval of the traced run. Host spans are timed on
// the wall clock (microseconds since the tracer was made); virtual
// spans on a kernel's simulated clock. Inside a running kernel only
// round boundaries get host times: simulated processes are
// cooperative, so the wall time a blocked process spans is someone
// else's work. Everything finer is virtual time plus counts.
type span struct {
	Name    string
	ID      int
	Parent  int // 0: none
	Round   int // -1: not part of a round
	Virtual bool
	Kernel  int // which kernel's clock a virtual span is on
	Lane    int // worker or port the span belongs to
	From    time.Duration
	To      time.Duration
}

// maxPortSpans caps the per-frame port events kept per kernel: a DQN
// round is ~35 000 frames, and counts and queue waits are kept for all
// of them anyway.
const maxPortSpans = 4000

// tracer collects spans and port-level samples in memory; write puts
// them on disk once, when the benchmark ends.
type tracer struct {
	epoch   time.Time
	spans   []span
	kernels int
	// waits are virtual microseconds each transmitted frame queued
	// behind earlier frames on its port.
	waits []float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a host-clock span; end closes it.
func (t *tracer) begin(name string, parent int) int {
	return t.add(span{Name: name, Parent: parent, Round: -1, From: time.Since(t.epoch)})
}

func (t *tracer) end(id int) { t.spans[id-1].To = time.Since(t.epoch) }

// hostSpan records a host-clock span whose ends were taken earlier.
func (t *tracer) hostSpan(name string, parent, round, lane int, from, to time.Time) int {
	return t.add(span{Name: name, Parent: parent, Round: round, Lane: lane, From: from.Sub(t.epoch), To: to.Sub(t.epoch)})
}

// virtualSpan records a span on kernel kid's simulated clock.
func (t *tracer) virtualSpan(name string, parent, round, kid, lane int, from, to time.Duration) int {
	return t.add(span{Name: name, Parent: parent, Round: round, Virtual: true, Kernel: kid, Lane: lane, From: from, To: to})
}

// newKernel hands out the next virtual-clock identifier.
func (t *tracer) newKernel() int {
	t.kernels++
	return t.kernels
}

// hookPorts observes every transmission on ports: the time each frame
// waited for the wire, and (for the first maxPortSpans frames) one
// virtual span per frame, attached to the round in progress.
func (t *tracer) hookPorts(k *sim.Kernel, kid int, ports []*netsim.Port, round func() int) {
	kept := 0
	for lane, port := range ports {
		lane, port := lane, port
		port.Trace = func(at sim.Time, kind string, pkt *protocol.Packet) {
			if kind != "tx" {
				return
			}
			t.waits = append(t.waits, float64(at-k.Now())/1e3)
			if kept < maxPortSpans {
				kept++
				t.virtualSpan("tx "+port.Name(), 0, round(), kid, 1000+lane,
					at, at+port.Config().SerializationTime(pkt.WireLen()))
			}
		}
	}
}

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev): a complete ("X") event with
// microsecond timestamps.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores the spans as a Chrome trace. Process 0 is the host
// clock; process N is kernel N's virtual clock.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	_, _ = w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for i, s := range t.spans {
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		ev := chromeEvent{Name: s.Name, Cat: "host", Ph: "X",
			Ts: float64(s.From) / 1e3, Dur: float64(s.To-s.From) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "round": s.Round}}
		ev.Tid = s.Lane
		if s.Virtual {
			ev.Cat, ev.Pid = "virtual", s.Kernel
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	_, _ = w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
