package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The differential suite pins the ladder-queue scheduler
// byte-identical to the reference binary heap: the same workload run on
// both kernels must produce the same trace (every observable action in
// order, with its virtual timestamp), the same final clock, and the
// same event count. Workloads are generated from a seeded PRNG mixing
// every kernel primitive: After chains, Sleep, Chan send/recv,
// RecvTimeout races, mid-run Spawn, barriers, and far-future timers
// that wait in the ladder's top.

// diffRNG is a tiny deterministic generator (xorshift64*).
type diffRNG uint64

func newDiffRNG(seed int64) *diffRNG {
	r := diffRNG(uint64(seed)*2862933555777941757 + 3037000493)
	return &r
}

func (r *diffRNG) next() uint64 {
	s := uint64(*r)
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	*r = diffRNG(s)
	return s * 2685821657736338717
}

func (r *diffRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// delay draws from a mix of zero, microsecond-scale, and far-future
// delays (the last wait in the ladder's top).
func (r *diffRNG) delay() Time {
	switch r.intn(10) {
	case 0:
		return 0
	case 1:
		return Time(1+r.intn(20)) * time.Millisecond
	default:
		return Time(r.next() % uint64(5*time.Microsecond))
	}
}

// runDiffWorkload executes one randomized workload on k and returns its
// trace.
func runDiffWorkload(k *Kernel, seed int64) string {
	var b strings.Builder
	logf := func(format string, args ...any) {
		fmt.Fprintf(&b, "%d ", k.Now())
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}

	rng := newDiffRNG(seed)
	nProcs := 2 + rng.intn(6)
	nChans := 1 + rng.intn(3)
	chans := make([]*Chan[int], nChans)
	for i := range chans {
		chans[i] = NewChan[int](k, fmt.Sprintf("ch%d", i))
	}
	bar := NewBarrier(k, nProcs)
	useBarrier := rng.intn(2) == 0

	// Each process gets its own deterministic op stream.
	for pi := 0; pi < nProcs; pi++ {
		pi := pi
		prng := newDiffRNG(seed*31 + int64(pi))
		k.Spawn(fmt.Sprintf("p%d", pi), func(p *Proc) {
			ops := 12 + prng.intn(12)
			for op := 0; op < ops; op++ {
				switch prng.intn(6) {
				case 0:
					d := prng.delay()
					p.Sleep(d)
					logf("p%d slept %d", pi, d)
				case 1:
					ch := chans[prng.intn(nChans)]
					v := prng.intn(1000)
					ch.Send(v)
					logf("p%d sent %d", pi, v)
				case 2:
					ch := chans[prng.intn(nChans)]
					if ch.Len() > 0 {
						logf("p%d recv %d", pi, ch.Recv(p))
					} else {
						// Avoid deadlock: only block when a timeout
						// bounds the wait.
						v, ok := ch.RecvTimeout(p, prng.delay()+time.Microsecond)
						logf("p%d recvTimeout %d %v", pi, v, ok)
					}
				case 3:
					seq := op
					p.Kernel().After(prng.delay(), func() {
						logf("p%d after-cb %d", pi, seq)
					})
					logf("p%d scheduled %d", pi, seq)
				case 4:
					if prng.intn(4) == 0 {
						child := op
						p.Spawn(fmt.Sprintf("p%d.%d", pi, child), func(cp *Proc) {
							cp.Sleep(prng.delay())
							logf("p%d.%d child done", pi, child)
						})
					} else {
						p.Sleep(prng.delay())
						logf("p%d slept(alt)", pi)
					}
				case 5:
					if useBarrier && op < 10 {
						bar.Wait(p)
						logf("p%d barrier round %d", pi, bar.Round())
					} else {
						logf("p%d noop", pi)
					}
				}
			}
			logf("p%d exit", pi)
		})
	}
	k.Run()
	fmt.Fprintf(&b, "final clock %d, events %d, procs %d\n", k.Now(), k.Events(), k.Procs())
	k.Shutdown()
	return b.String()
}

// TestCalendarHeapDifferential runs many randomized workloads on both
// schedulers and requires identical traces.
func TestCalendarHeapDifferential(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		heapTrace := runDiffWorkload(NewHeapKernel(), seed)
		calTrace := runDiffWorkload(NewKernel(), seed)
		if heapTrace != calTrace {
			t.Fatalf("seed %d: schedulers diverge\n--- heap ---\n%s\n--- ladder ---\n%s",
				seed, firstDiff(heapTrace, calTrace), firstDiff(calTrace, heapTrace))
		}
	}
}

// firstDiff returns the few lines around the first divergence, to keep
// failure output readable.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(la) {
				hi = len(la)
			}
			return fmt.Sprintf("(line %d) %s", i, strings.Join(la[lo:hi], "\n"))
		}
	}
	return "(prefix equal; lengths differ)"
}

// TestCalendarHeapDifferentialHeavy pushes a dense event population
// (thousands of pending events, spawning rungs and bringing the top
// down many times) through both schedulers via pure After chains.
func TestCalendarHeapDifferentialHeavy(t *testing.T) {
	run := func(k *Kernel) string {
		var b strings.Builder
		rng := newDiffRNG(99)
		var chain func(id, depth int) func()
		chain = func(id, depth int) func() {
			return func() {
				fmt.Fprintf(&b, "%d cb %d.%d\n", k.Now(), id, depth)
				if depth < 6 {
					k.After(rng.delay(), chain(id, depth+1))
				}
			}
		}
		for id := 0; id < 700; id++ {
			k.After(rng.delay(), chain(id, 0))
		}
		k.Run()
		fmt.Fprintf(&b, "final %d events %d\n", k.Now(), k.Events())
		return b.String()
	}
	// Note: rng streams must match, so build two identical workloads.
	heapTrace := run(NewHeapKernel())
	calTrace := run(NewKernel())
	if heapTrace != calTrace {
		t.Fatalf("heavy workload diverges:\n%s", firstDiff(heapTrace, calTrace))
	}
}

// spawnBimodal spawns the fattree1024 event mix on k: n workers that
// each round sleep about 8.5 ms (compute), then send a packet to a peer
// along a chain of 2-6 After hops of 256 ns-4 µs (the fabric) and wait
// for their own packet with a RecvTimeout of up to 40 µs. Packet and
// timeout race both ways, and every packet that wins leaves its
// receiver's timeout queued as a stale wake. rounds < 0 runs forever;
// rec, when non-nil, sees every receive. Steady state allocates nothing:
// every callback is bound once.
func spawnBimodal(k *Kernel, n, rounds int, seed int64, rec func(w, round, v int, ok bool)) {
	rng := newDiffRNG(seed)
	hop := func() Time { return Time(256+rng.intn(3744)) * time.Nanosecond }
	inbox := make([]*Chan[int], n)
	for i := range inbox {
		inbox[i] = NewChan[int](k, "inbox")
	}
	for i := 0; i < n; i++ {
		i, wrng := i, newDiffRNG(seed*1009+int64(i))
		var left, round int
		var fly func()
		fly = func() {
			if left--; left > 0 {
				k.After(hop(), fly)
				return
			}
			inbox[(7*i+1)%n].Send(round)
		}
		k.Spawn("worker", func(p *Proc) {
			for round = 0; rounds < 0 || round < rounds; round++ {
				p.Sleep(8500*time.Microsecond + Time(wrng.intn(20000)))
				left = 2 + wrng.intn(5)
				k.After(hop(), fly)
				v, ok := inbox[i].RecvTimeout(p, Time(wrng.intn(40000)))
				if rec != nil {
					rec(i, round, v, ok)
				}
			}
		})
	}
}

// TestBimodalSchedulerDifferential runs the fattree1024-shaped mix —
// hundreds of millisecond sleepers over microsecond packet chains, with
// stale timeout wakes in the queue — on both schedulers: the same
// trace, final clock and event count, seed after seed.
func TestBimodalSchedulerDifferential(t *testing.T) {
	run := func(k *Kernel, seed int64) (string, [2]int) {
		var b strings.Builder
		var outcomes [2]int
		spawnBimodal(k, 320, 4, seed, func(w, round, v int, ok bool) {
			fmt.Fprintf(&b, "%d w%d r%d v%d %v\n", k.Now(), w, round, v, ok)
			if ok {
				outcomes[1]++
			} else {
				outcomes[0]++
			}
		})
		k.Run()
		fmt.Fprintf(&b, "final clock %d, events %d, procs %d\n", k.Now(), k.Events(), k.Procs())
		k.Shutdown()
		return b.String(), outcomes
	}
	for seed := int64(1); seed <= 4; seed++ {
		heapTrace, _ := run(NewHeapKernel(), seed)
		ladderTrace, outcomes := run(NewKernel(), seed)
		if heapTrace != ladderTrace {
			t.Fatalf("seed %d: schedulers diverge\n--- heap ---\n%s\n--- ladder ---\n%s",
				seed, firstDiff(heapTrace, ladderTrace), firstDiff(ladderTrace, heapTrace))
		}
		if outcomes[0] == 0 || outcomes[1] == 0 {
			t.Fatalf("seed %d: %d timeouts, %d deliveries; the race must go both ways", seed, outcomes[0], outcomes[1])
		}
	}
}

// TestUseHeapSchedulerToggle pins the NewKernel override used by the
// cross-package differential tests.
func TestUseHeapSchedulerToggle(t *testing.T) {
	UseHeapScheduler(true)
	k := NewKernel()
	UseHeapScheduler(false)
	if k.sched.pooled() {
		t.Fatal("UseHeapScheduler(true) did not select the heap scheduler")
	}
	if !NewKernel().sched.pooled() {
		t.Fatal("UseHeapScheduler(false) did not restore the ladder scheduler")
	}
}
