package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(50 * time.Millisecond)
		woke = p.Now()
	})
	k.Run()
	if woke != 50*time.Millisecond {
		t.Fatalf("woke at %v, want 50ms", woke)
	}
	if k.Now() != 50*time.Millisecond {
		t.Fatalf("kernel clock %v, want 50ms", k.Now())
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	k := NewKernel()
	steps := 0
	k.Spawn("p", func(p *Proc) {
		p.Sleep(0)
		steps++
		p.Sleep(-time.Second) // clamped to 0
		steps++
	})
	k.Run()
	if steps != 2 {
		t.Fatalf("steps = %d, want 2", steps)
	}
	if k.Now() != 0 {
		t.Fatalf("clock moved to %v on zero sleeps", k.Now())
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("p%d", i)
			k.Spawn(name, func(p *Proc) {
				p.Sleep(10 * time.Millisecond) // all wake at the same instant
				order = append(order, p.Name())
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 5 {
		t.Fatalf("got %d wakeups, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order: %v vs %v", a, b)
		}
		if a[i] != fmt.Sprintf("p%d", i) {
			t.Fatalf("tie-break not in spawn order: %v", a)
		}
	}
}

func TestChanSendRecv(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "ch")
	var got int
	var at Time
	k.Spawn("recv", func(p *Proc) {
		got = ch.Recv(p)
		at = p.Now()
	})
	k.Spawn("send", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ch.Send(42)
	})
	k.Run()
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
	if at != time.Millisecond {
		t.Fatalf("received at %v, want 1ms", at)
	}
}

func TestChanBufferedBeforeRecv(t *testing.T) {
	k := NewKernel()
	ch := NewChan[string](k, "ch")
	ch.Send("early")
	var got string
	k.Spawn("recv", func(p *Proc) { got = ch.Recv(p) })
	k.Run()
	if got != "early" {
		t.Fatalf("got %q", got)
	}
}

func TestChanFIFOAcrossManyValues(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "ch")
	var got []int
	k.Spawn("recv", func(p *Proc) {
		for i := 0; i < 100; i++ {
			got = append(got, ch.Recv(p))
		}
	})
	k.Spawn("send", func(p *Proc) {
		for i := 0; i < 100; i++ {
			ch.Send(i)
			if i%10 == 0 {
				p.Sleep(time.Microsecond)
			}
		}
	})
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestSendAfterModelsLatency(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "link")
	var at Time
	k.Spawn("recv", func(p *Proc) {
		ch.Recv(p)
		at = p.Now()
	})
	k.After(0, func() { ch.SendAfter(3*time.Millisecond, 1) })
	k.Run()
	if at != 3*time.Millisecond {
		t.Fatalf("delivered at %v, want 3ms", at)
	}
}

func TestRecvTimeoutExpires(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "ch")
	var ok bool
	var at Time
	k.Spawn("recv", func(p *Proc) {
		_, ok = ch.RecvTimeout(p, 5*time.Millisecond)
		at = p.Now()
	})
	k.Run()
	if ok {
		t.Fatal("expected timeout")
	}
	if at != 5*time.Millisecond {
		t.Fatalf("timed out at %v, want 5ms", at)
	}
}

func TestRecvTimeoutDeliveryWins(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "ch")
	var got int
	var ok bool
	k.Spawn("recv", func(p *Proc) {
		got, ok = ch.RecvTimeout(p, 10*time.Millisecond)
		// The stale timeout event must not wake a later Recv.
		ch2 := NewChan[int](k, "ch2")
		ch2.SendAfter(20*time.Millisecond, 7)
		v := ch2.Recv(p)
		if v != 7 {
			t.Errorf("stale timer corrupted later recv: got %d", v)
		}
	})
	k.Spawn("send", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		ch.Send(9)
	})
	k.Run()
	if !ok || got != 9 {
		t.Fatalf("got %d ok=%v, want 9 true", got, ok)
	}
}

func TestTryRecv(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "ch")
	if _, ok := ch.TryRecv(); ok {
		t.Fatal("TryRecv on empty channel succeeded")
	}
	ch.Send(5)
	v, ok := ch.TryRecv()
	if !ok || v != 5 {
		t.Fatalf("got %d ok=%v", v, ok)
	}
	if ch.Len() != 0 {
		t.Fatalf("len = %d after drain", ch.Len())
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	k := NewKernel()
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	k.RunUntil(3500 * time.Millisecond)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	if k.Now() != 3500*time.Millisecond {
		t.Fatalf("clock = %v, want 3.5s", k.Now())
	}
	k.RunUntil(5 * time.Second)
	if ticks != 5 {
		t.Fatalf("ticks after resume = %d, want 5", ticks)
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Millisecond)
			n++
			if n == 10 {
				k.Stop()
			}
		}
	})
	k.Run()
	if n != 10 {
		t.Fatalf("n = %d, want 10 (Stop ignored?)", n)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	var childAt Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		p.Spawn("child", func(c *Proc) { childAt = c.Now() })
		p.Sleep(time.Millisecond)
	})
	k.Run()
	if childAt != 7*time.Millisecond {
		t.Fatalf("child started at %v, want 7ms", childAt)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate out of Run")
		}
	}()
	k := NewKernel()
	k.Spawn("bad", func(p *Proc) { panic("boom") })
	k.Run()
}

func TestBarrierReleasesTogether(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, 3)
	var times []Time
	for i := 0; i < 3; i++ {
		d := time.Duration(i+1) * time.Millisecond
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(d)
			b.Wait(p)
			times = append(times, p.Now())
		})
	}
	k.Run()
	if len(times) != 3 {
		t.Fatalf("released %d, want 3", len(times))
	}
	for _, ts := range times {
		if ts != 3*time.Millisecond {
			t.Fatalf("release times %v, want all 3ms (slowest arrival)", times)
		}
	}
	if b.Round() != 1 {
		t.Fatalf("round = %d, want 1", b.Round())
	}
}

func TestBarrierReusableAcrossRounds(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, 2)
	rounds := [2]int{}
	for i := 0; i < 2; i++ {
		idx := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for r := 0; r < 5; r++ {
				p.Sleep(time.Duration(idx+1) * time.Millisecond)
				b.Wait(p)
				rounds[idx]++
			}
		})
	}
	k.Run()
	if rounds[0] != 5 || rounds[1] != 5 {
		t.Fatalf("rounds = %v, want [5 5]", rounds)
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	wg.Add(3)
	var doneAt Time
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 0; i < 3; i++ {
		d := time.Duration(i+1) * time.Millisecond
		k.Spawn("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	k.Run()
	if doneAt != 3*time.Millisecond {
		t.Fatalf("waiter released at %v, want 3ms", doneAt)
	}
}

func TestWaitGroupZeroCountNoBlock(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k)
	ran := false
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestAfterCallbackOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(2*time.Millisecond, func() { order = append(order, 2) })
	k.After(time.Millisecond, func() { order = append(order, 1) })
	k.After(2*time.Millisecond, func() { order = append(order, 3) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestManyProcessesManyEvents(t *testing.T) {
	k := NewKernel()
	total := 0
	for i := 0; i < 50; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 200; j++ {
				p.Sleep(time.Duration(j%7+1) * time.Microsecond)
				total++
			}
		})
	}
	k.Run()
	if total != 50*200 {
		t.Fatalf("total = %d, want %d", total, 50*200)
	}
}

// Wakes counts each hand-over of the thread to a process: its start and
// every return from Sleep, Recv and RecvTimeout, whether a value or the
// timeout woke it. A pure callback wakes nothing.
func TestWakesCountsResumptions(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	ch := NewChan[int](k, "ch")
	k.Spawn("sleeper", func(p *Proc) { // 1 start + 3 sleeps
		for i := 0; i < 3; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	k.Spawn("receiver", func(p *Proc) { // 1 start + 1 value + 1 timeout
		ch.Recv(p)
		ch.RecvTimeout(p, time.Microsecond)
	})
	k.After(2*time.Microsecond, func() { ch.Send(1) })
	k.Run()
	if got := k.Wakes(); got != 7 {
		t.Fatalf("%d wakes, want 7", got)
	}
}
