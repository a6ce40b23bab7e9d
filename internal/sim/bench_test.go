package sim

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw sleep-event processing.
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkChanPingPong measures two processes exchanging values.
func BenchmarkChanPingPong(b *testing.B) {
	k := NewKernel()
	a := NewChan[int](k, "a")
	c := NewChan[int](k, "b")
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			a.Send(i)
			c.Recv(p)
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			v := a.Recv(p)
			c.Send(v)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkManyProcs measures scheduling across 64 concurrent processes.
func BenchmarkManyProcs(b *testing.B) {
	k := NewKernel()
	per := b.N/64 + 1
	for i := 0; i < 64; i++ {
		k.Spawn("p", func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(time.Duration(j%5+1) * time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	k.Run()
}

// benchHold runs the hold model (pop one, reschedule one — the standard
// DES scheduler benchmark) at a fixed steady-state queue size.
func benchHold(b *testing.B, mk func() *Kernel, queueSize int) {
	b.ReportAllocs()
	b.ResetTimer()
	res := RunHold(mk(), queueSize, b.N, 7)
	b.StopTimer()
	b.ReportMetric(res.EventsPerSec, "events/sec")
	b.ReportMetric(res.AllocsPerEvent, "allocs/event")
}

func BenchmarkHoldCalendar64(b *testing.B)    { benchHold(b, NewKernel, 64) }
func BenchmarkHoldCalendar1024(b *testing.B)  { benchHold(b, NewKernel, 1024) }
func BenchmarkHoldCalendar16384(b *testing.B) { benchHold(b, NewKernel, 16384) }
func BenchmarkHoldHeap64(b *testing.B)        { benchHold(b, NewHeapKernel, 64) }
func BenchmarkHoldHeap1024(b *testing.B)      { benchHold(b, NewHeapKernel, 1024) }
func BenchmarkHoldHeap16384(b *testing.B)     { benchHold(b, NewHeapKernel, 16384) }

// BenchmarkHoldBimodal runs the hold model on the fattree1024 event mix,
// in callbacks only so that it measures the scheduler: 1024 sleepers
// each wake every ~8.5 ms and launch a packet of 2-6 After hops of
// 256 ns-4 µs, so a thousand far events sit behind a few near ones.
func BenchmarkHoldBimodal(b *testing.B) {
	k := NewKernel()
	rng := newDiffRNG(7)
	hop := func() Time { return Time(256+rng.intn(3744)) * time.Nanosecond }
	for i := 0; i < 1024; i++ {
		var left int
		var fly, wake func()
		fly = func() {
			if left--; left > 0 {
				k.After(hop(), fly)
			}
		}
		wake = func() {
			left = 2 + rng.intn(5)
			k.After(hop(), fly)
			k.After(8500*time.Microsecond+Time(rng.intn(20000)), wake)
		}
		k.After(Time(rng.intn(8_500_000)), wake)
	}
	k.RunUntil(50 * time.Millisecond) // warm-up: event pool and rungs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := k.Events()
	b.ResetTimer()
	t0 := time.Now()
	for k.Events()-start < uint64(b.N) {
		k.RunUntil(k.Now() + time.Millisecond)
	}
	wall := time.Since(t0)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(k.Events() - start)
	b.ReportMetric(n/wall.Seconds(), "events/sec")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
}

// BenchmarkChanSteadyState pins the ring-buffer rework: a
// send-then-receive cycle at steady state must not allocate (waiter
// records and buffer slots are recycled), and must not retain the
// O(n) slid-off prefix the old slice-shift buffers kept alive.
func BenchmarkChanSteadyState(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	ch := NewChan[int](k, "ch")
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ch.Recv(p)
		}
	})
	k.Spawn("send", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ch.Send(i)
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	k.Run()
}

// TestChanSteadyStateAllocFree is the allocation-regression gate for
// the Chan ring buffers: after warm-up, a send/recv/timeout mix must
// average well under one allocation per operation.
func TestChanSteadyStateAllocFree(t *testing.T) {
	const ops = 20000
	allocs := testing.AllocsPerRun(1, func() {
		k := NewKernel()
		ch := NewChan[int](k, "ch")
		k.Spawn("recv", func(p *Proc) {
			for i := 0; i < ops; i++ {
				if i%7 == 0 {
					ch.RecvTimeout(p, 500*time.Nanosecond)
				} else {
					ch.Recv(p)
				}
			}
		})
		k.Spawn("send", func(p *Proc) {
			for i := 0; i < ops; i++ {
				ch.Send(i)
				p.Sleep(time.Microsecond)
			}
		})
		k.Run()
		k.Shutdown()
	})
	// Fixed costs (kernel, channel, goroutines, ring growth) amortize
	// over 2*ops operations; the steady state itself must be
	// allocation-free. 0.05 allocs/op gives headroom for the fixed part
	// while catching any per-operation regression.
	if perOp := allocs / (2 * ops); perOp > 0.05 {
		t.Fatalf("chan steady state allocates %.3f allocs/op (total %.0f); ring buffers should be allocation-free", perOp, allocs)
	}
}

// TestSleepWakeAllocFree: a process switch itself allocates nothing.
// A steady Sleep/wake loop and a Chan ping-pong between two processes,
// warmed up and then advanced in slices of virtual time, run at exactly
// 0 allocations.
func TestSleepWakeAllocFree(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	a, c := NewChan[int](k, "a"), NewChan[int](k, "c")
	k.Spawn("ping", func(p *Proc) {
		for i := 0; ; i++ {
			a.Send(i)
			c.Recv(p)
			p.Sleep(time.Microsecond)
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for {
			c.Send(a.Recv(p))
		}
	})
	k.RunUntil(time.Millisecond) // warm-up: event pool, waiter records, rings
	before := k.Events()
	allocs := testing.AllocsPerRun(100, func() { k.RunUntil(k.Now() + 100*time.Microsecond) })
	if n := k.Events() - before; n < 100*300 {
		t.Fatalf("only %d events in the measured window; the loop is not running", n)
	}
	if allocs != 0 {
		t.Fatalf("sleep/wake and chan ping-pong allocate %.2f per 100µs slice, want 0", allocs)
	}
}

// TestBimodalAllocFree: on the fattree1024-shaped mix (spawnBimodal:
// 1024 sleeping workers, packet chains, timeout races leaving stale
// wakes) the warmed-up kernel runs at exactly 0 allocations: the ladder
// reuses its rungs' bucket arrays and the events come off the free list.
func TestBimodalAllocFree(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	spawnBimodal(k, 1024, -1, 1, nil)
	k.RunUntil(60 * time.Millisecond) // warm-up: event pool, rungs, rings, waiters
	before := k.Events()
	allocs := testing.AllocsPerRun(50, func() { k.RunUntil(k.Now() + time.Millisecond) })
	if n := k.Events() - before; n < 50*500 {
		t.Fatalf("only %d events in the measured window; the mix is not running", n)
	}
	if allocs != 0 {
		t.Fatalf("bimodal mix allocates %.2f per 1 ms slice, want 0", allocs)
	}
}

// TestHoldCalendarAllocFree is the event-pooling regression gate: on
// the ladder scheduler a steady-state hold recycles its event through
// the kernel's free list, so priming aside the run must not allocate.
// 0.1 allocs/event leaves room for the priming and rung growth
// amortized over 100k holds; the unpooled heap path sits at 1.0.
func TestHoldCalendarAllocFree(t *testing.T) {
	res := RunHold(NewKernel(), 1024, 100_000, 7)
	if res.AllocsPerEvent > 0.1 {
		t.Fatalf("calendar hold allocates %.3f/event, want <= 0.1 (pooling regression)", res.AllocsPerEvent)
	}
}
