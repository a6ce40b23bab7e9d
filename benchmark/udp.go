package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iswitch/internal/transport"
)

// udp-loopback: an in-process transport.Switch and two closed-loop
// transport.Clients (one goroutine each) over real UDP sockets on
// 127.0.0.1. The traffic crosses the loopback interface and nothing
// else: no NIC, no wire.

const udpWorkers = 2

// session is one switch-plus-clients lifetime.
type session struct {
	setup, run time.Duration
	alloc      uint64
	gcs        uint32
	heapMB     float64
	// completed is the number of rounds every worker finished.
	completed int
	// starts and lats are every Aggregate call's start and duration,
	// per worker.
	starts [udpWorkers][]time.Time
	lats   [udpWorkers][]time.Duration
	// clean counts calls that returned the exact sum without an error
	// and without waiting out a receive timeout.
	clean, failed             int
	helps, dataIn, broadcasts uint64
	timeouts                  int
	first                     time.Time
}

// runSession sets up a switch and udpWorkers joined clients for
// floats-long gradients and aggregates rounds of them. With abandon set
// the session stops as soon as more than 1 % of its calls were not
// clean (the burst ladder's per-rung rule); a worker left waiting for a
// peer that stopped gives up after two receive timeouts.
func runSession(o *options, floats, rounds int, timeout time.Duration, abandon bool) (*session, error) {
	s := &session{}
	allowed := int64(rounds * udpWorkers / 100)
	t0 := time.Now()
	sw, err := transport.ListenSwitch("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = sw.ServeN(1) // returns nil once the socket closes
	}()
	stop := func() {
		_ = sw.Close()
		<-served
	}
	var clients [udpWorkers]*transport.Client
	defer func() {
		for _, c := range clients {
			if c != nil {
				_ = c.Close()
			}
		}
		stop()
	}()
	for i := range clients {
		c, err := transport.Dial(sw.Addr(), floats)
		if err != nil {
			return nil, err
		}
		clients[i] = c
		c.Timeout = timeout
		if err := c.Join(); err != nil {
			return nil, err
		}
	}
	g := newGradients(o.seed*1000003+int64(floats), udpWorkers, floats)
	if o.corrupt {
		g.sum[0] += gridStep
	}
	_, _, joins := sw.Counters()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	s.first = time.Now()
	s.setup = s.first.Sub(t0)

	var dirty atomic.Int64
	var wg sync.WaitGroup
	done := [udpWorkers]int{}
	stats := [udpWorkers]struct{ clean, failed, timeouts int }{}
	for w := range clients {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			grad := make([]float32, floats)
			st := &stats[w]
			for r := 0; r < rounds; r++ {
				if abandon && dirty.Load() > allowed {
					return
				}
				g.fill(grad, w, r)
				start := time.Now()
				sum, err := clients[w].Aggregate(grad)
				lat := time.Since(start)
				s.starts[w] = append(s.starts[w], start)
				s.lats[w] = append(s.lats[w], lat)
				waited := lat >= timeout
				if waited {
					st.timeouts++
				}
				switch {
				case err != nil || !g.matches(sum, g.sum, r, 1, 0):
					st.failed++
					dirty.Add(1)
					if err != nil {
						return // the peer is gone or the round is lost for good
					}
				case waited:
					dirty.Add(1)
				default:
					st.clean++
				}
				done[w] = r + 1
			}
		}()
	}
	wg.Wait()
	s.run = time.Since(s.first)
	runtime.ReadMemStats(&mem1)
	s.alloc, s.gcs, s.heapMB = mem1.TotalAlloc-mem0.TotalAlloc, mem1.NumGC-mem0.NumGC, float64(mem1.HeapInuse)/1e6
	var control uint64
	s.dataIn, s.broadcasts, control = sw.Counters()
	s.helps = control - joins
	s.completed = rounds
	for w := range stats {
		s.clean += stats[w].clean
		s.failed += stats[w].failed
		s.timeouts += stats[w].timeouts
		if done[w] < s.completed {
			s.completed = done[w]
		}
	}
	return s, nil
}

// steadyTimeout is the clients' receive timeout in phase A. It is the
// transport's default, far above any stall of the host: the UDP client
// has no round tags, so a Help sent because the process (or the whole
// VM) was paused, not because a frame was lost, makes the peer resend
// the next round's data into this one and both workers get a wrong sum.
// Phase A is about the cost of clean rounds; phase B uses the short
// ladderTimeout so a wedged rung ends quickly.
const (
	steadyTimeout = 5 * time.Second
	ladderTimeout = 200 * time.Millisecond
)

// udpLoopback is phase A (steady): PPO-size gradients, where nothing is
// lost, so per-frame and per-round cost is what is measured.
func udpLoopback(o *options, tr *tracer, parent int) (*repeat, error) {
	s, err := runSession(o, o.sz.udpFloats, o.sz.udpRounds, steadyTimeout, false)
	if err != nil {
		return nil, err
	}
	if s.completed == 0 {
		return nil, fmt.Errorf("udp-loopback: no round completed")
	}
	// A round that waited out a timeout but still got the exact sum is
	// slow, not wrong: it shows in the times and in transport.timeouts.
	r := &repeat{setup: s.setup, run: s.run, alloc: s.alloc, rounds: s.completed,
		attempted: udpWorkers * o.sz.udpRounds, failed: s.failed, exact: values{}, host: values{}}
	var lats []float64
	for w := range s.lats {
		for _, l := range s.lats[w] {
			lats = append(lats, float64(l)/1e6)
		}
	}
	sort.Float64s(lats)
	r.roundMs = lats
	secs := s.run.Seconds()
	r.host["rounds_per_s"] = float64(s.completed) / secs
	// Every contribution comes in once and every aggregate goes out to
	// each member.
	r.host["transport.frames_per_s"] = float64(s.dataIn+udpWorkers*s.broadcasts) / secs
	r.host["transport.round_ms_p99"] = percentile(lats, 99)
	r.host["transport.help_per_round"] = float64(s.helps) / float64(s.completed)
	r.host["transport.timeouts"] = float64(s.timeouts)
	r.host["transport.switch_data_in"] = float64(s.dataIn)
	r.host["transport.switch_broadcasts"] = float64(s.broadcasts)
	r.host["host.heap_inuse_peak_mb"] = s.heapMB
	r.host["host.gc_count"] = float64(s.gcs)
	if tr != nil {
		span := tr.hostSpan("udp-loopback", parent, -1, 0, s.first.Add(-s.setup), s.first.Add(s.run))
		tr.hostSpan("setup", span, -1, 0, s.first.Add(-s.setup), s.first)
		run := tr.hostSpan("run", span, -1, 0, s.first, s.first.Add(s.run))
		for w := range s.starts {
			for i, start := range s.starts[w] {
				tr.hostSpan("aggregate", run, i, 1+w, start, start.Add(s.lats[w][i]))
			}
		}
	}
	return r, nil
}

// udpLadder is phase B: the same closed loop at growing burst sizes,
// on fresh sockets per rung, up to the first rung that is not clean.
// It finds the burst at which the missing flow control bites (the
// client's default receive buffer overflows), which is the number
// self-clocking and batched receives are meant to move.
func udpLadder(o *options) values {
	v := values{}
	rounds := o.sz.ladderRounds
	for _, segs := range ladderRungs {
		s, err := runSession(o, segs*segFloats-100, rounds, ladderTimeout, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: ladder rung", segs, "failed:", err)
			break
		}
		share := float64(s.clean) / float64(udpWorkers*rounds)
		v[rungMetric("clean_share", segs)] = share
		v[rungMetric("rounds_per_s", segs)] = float64(s.completed) / s.run.Seconds()
		if share < 0.99 || s.helps > 0 {
			break
		}
		v["clean_segs_max"] = float64(segs)
	}
	return v
}

// rmem reads the kernel's default and maximum socket receive buffer,
// which decide where the ladder breaks.
func rmem() (def, max string) {
	read := func(name string) string {
		b, err := os.ReadFile("/proc/sys/net/core/" + name)
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return read("rmem_default"), read("rmem_max")
}
