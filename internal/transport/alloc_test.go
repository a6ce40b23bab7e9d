package transport

import (
	"runtime"
	"testing"
)

// loopbackFloats is the udp-loopback benchmark workload's gradient:
// 28 segments, so a round is 56 datagrams into the switch and 56 out.
const loopbackFloats = 10_005

// loopback is a 2-client session over 127.0.0.1. The switch serves on
// its own goroutine and the second client on another, so a round costs
// what a training step costs the real-UDP path, switch included.
type loopback struct {
	sw      *Switch
	served  chan struct{}
	clients [2]*Client
	grads   [2][]float32
	want    []float32
	sums    [2][]float32
	errs    [2]error
	// start asks the second client for one Aggregate; done says it
	// returned.
	start, done chan struct{}
}

func newLoopback(tb testing.TB, floats int) *loopback {
	tb.Helper()
	sw, err := ListenSwitch("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	l := &loopback{sw: sw, served: make(chan struct{}), want: make([]float32, floats),
		start: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.served)
		_ = sw.Serve()
	}()
	for i := range l.clients {
		c, err := Dial(sw.Addr(), floats)
		if err != nil {
			tb.Fatal(err)
		}
		l.clients[i] = c
		if err := c.Join(); err != nil {
			tb.Fatal(err)
		}
		// 2^-8-grid values: every partial sum is exact in float32.
		l.grads[i] = make([]float32, floats)
		for j := range l.grads[i] {
			l.grads[i][j] = float32((i+1)*(j%97)) / 256
			l.want[j] += l.grads[i][j]
		}
	}
	go func() {
		for range l.start {
			l.sums[1], l.errs[1] = l.clients[1].Aggregate(l.grads[1])
			l.done <- struct{}{}
		}
	}()
	tb.Cleanup(func() {
		close(l.start)
		for _, c := range l.clients {
			if c != nil {
				c.Close()
			}
		}
		sw.Close()
		<-l.served
	})
	return l
}

// round runs one Aggregate on each client and returns the first error.
func (l *loopback) round() error {
	l.start <- struct{}{}
	l.sums[0], l.errs[0] = l.clients[0].Aggregate(l.grads[0])
	<-l.done
	if l.errs[0] != nil {
		return l.errs[0]
	}
	return l.errs[1]
}

// rounds runs n rounds, stopping at the first error.
func (l *loopback) rounds(n int) error {
	for i := 0; i < n; i++ {
		if err := l.round(); err != nil {
			return err
		}
	}
	return nil
}

// exact reports whether both clients hold the exact sum.
func (l *loopback) exact() bool {
	for _, sum := range l.sums {
		if len(sum) != len(l.want) {
			return false
		}
		for j, v := range sum {
			if v != l.want[j] {
				return false
			}
		}
	}
	return true
}

// TestUDPSteadyStateAllocFree pins the real-UDP datapath's memory: once
// the frame pools have filled, a round of a 2-client session (segment,
// encode, switch decode, ingest, broadcast, client decode, assemble)
// allocates nothing, the switch's goroutine included. A frame some
// branch forgets to release shows up here as a pool miss per round.
func TestUDPSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	l := newLoopback(t, loopbackFloats)
	if err := l.rounds(20); err != nil { // the pools fill here
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		if e := l.round(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !l.exact() {
		t.Fatal("the last round's sums are not exact")
	}
	if allocs > 2 {
		t.Fatalf("%.1f allocations per steady-state round, want at most 2", allocs)
	}
}

// BenchmarkLoopbackRound measures one round of a 2-client loopback
// session: what the round allocates (every goroutine counted) and how
// many frames the switch takes in and sends out per second.
func BenchmarkLoopbackRound(b *testing.B) {
	l := newLoopback(b, loopbackFloats)
	if err := l.rounds(20); err != nil {
		b.Fatal(err)
	}
	in0, out0, _ := l.sw.Counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	if err := l.rounds(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	in1, out1, _ := l.sw.Counters()
	if !l.exact() {
		b.Fatal("the last round's sums are not exact")
	}
	n := float64(b.N)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/round")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B/round")
	b.ReportMetric(float64(in1-in0+uint64(len(l.clients))*(out1-out0))/b.Elapsed().Seconds(), "frames/s")
}
