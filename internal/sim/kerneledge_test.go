package sim

import (
	"runtime"
	"testing"
	"time"
)

// Edge cases called out by the calendar-queue rework: behaviors that
// must hold identically on both schedulers. Each test runs against
// NewKernel (calendar) and NewHeapKernel (reference heap).

func onBothKernels(t *testing.T, f func(t *testing.T, k *Kernel)) {
	t.Helper()
	t.Run("calendar", func(t *testing.T) { f(t, NewKernel()) })
	t.Run("heap", func(t *testing.T) { f(t, NewHeapKernel()) })
}

// TestRunUntilExactlyOnEventTimestamp: an event scheduled exactly at
// the RunUntil limit fires during that call (limit is inclusive), and
// the next event after the limit stays queued.
func TestRunUntilExactlyOnEventTimestamp(t *testing.T) {
	onBothKernels(t, func(t *testing.T, k *Kernel) {
		var fired []int
		k.After(10*time.Microsecond, func() { fired = append(fired, 10) })
		k.After(20*time.Microsecond, func() { fired = append(fired, 20) })
		k.After(20*time.Microsecond, func() { fired = append(fired, 21) })
		k.After(30*time.Microsecond, func() { fired = append(fired, 30) })

		k.RunUntil(20 * time.Microsecond)
		if len(fired) != 3 || fired[0] != 10 || fired[1] != 20 || fired[2] != 21 {
			t.Fatalf("fired = %v, want [10 20 21] (limit is inclusive, ties in seq order)", fired)
		}
		if k.Now() != 20*time.Microsecond {
			t.Fatalf("Now() = %v, want 20µs", k.Now())
		}
		if k.QueueLen() != 1 {
			t.Fatalf("QueueLen() = %d, want 1 (the 30µs event)", k.QueueLen())
		}
		k.Run()
		if len(fired) != 4 || fired[3] != 30 {
			t.Fatalf("fired = %v after final Run, want trailing 30", fired)
		}
	})
}

// TestStopFromInsideCallback: Stop called by a running callback halts
// the loop after that callback; queued events survive and a later Run
// resumes exactly where the clock stopped.
func TestStopFromInsideCallback(t *testing.T) {
	onBothKernels(t, func(t *testing.T, k *Kernel) {
		var order []string
		k.After(time.Microsecond, func() {
			order = append(order, "first")
			k.Stop()
		})
		k.After(time.Microsecond, func() { order = append(order, "second") })
		k.After(2*time.Microsecond, func() { order = append(order, "third") })

		k.Run()
		if len(order) != 1 || order[0] != "first" {
			t.Fatalf("order = %v after Stop, want [first]", order)
		}
		if k.QueueLen() != 2 {
			t.Fatalf("QueueLen() = %d, want 2 retained events", k.QueueLen())
		}
		k.Run()
		if len(order) != 3 || order[1] != "second" || order[2] != "third" {
			t.Fatalf("order = %v after resume, want [first second third]", order)
		}
	})
}

// TestRecvTimeoutStaleWakeCancelled: when a value arrives in the same
// virtual instant the timeout would fire but earlier in seq order, the
// delivery wins and the already-queued timeout event must not wake the
// process a second time (stale-wake cancellation).
func TestRecvTimeoutStaleWakeCancelled(t *testing.T) {
	onBothKernels(t, func(t *testing.T, k *Kernel) {
		ch := NewChan[int](k, "ch")
		var got int
		var ok bool
		wakes := 0
		k.Spawn("receiver", func(p *Proc) {
			got, ok = ch.RecvTimeout(p, 5*time.Microsecond)
			wakes++
			// Park once more: if the stale timeout event were still
			// live it would wake us here instead of the 10µs sleep.
			p.Sleep(10 * time.Microsecond)
			if p.Now() != 15*time.Microsecond {
				t.Errorf("second wake at %v, want 15µs (stale timeout leaked)", p.Now())
			}
			wakes++
		})
		// Deliver at exactly the timeout instant; the send is scheduled
		// before the timeout seq-wise, so delivery must win.
		ch.SendAfter(5*time.Microsecond, 42)
		k.Run()
		if !ok || got != 42 {
			t.Fatalf("RecvTimeout = (%d, %v), want (42, true)", got, ok)
		}
		if wakes != 2 {
			t.Fatalf("wakes = %d, want 2", wakes)
		}
	})
}

// TestRecvTimeoutExpiryThenTraffic: after a timeout expires, later
// channel traffic must not be misdelivered to the expired waiter.
func TestRecvTimeoutExpiryThenTraffic(t *testing.T) {
	onBothKernels(t, func(t *testing.T, k *Kernel) {
		ch := NewChan[int](k, "ch")
		var timedOut, delivered bool
		k.Spawn("receiver", func(p *Proc) {
			if _, ok := ch.RecvTimeout(p, time.Microsecond); !ok {
				timedOut = true
			}
			// Second receive must get the late value.
			if v := ch.Recv(p); v == 7 {
				delivered = true
			}
		})
		ch.SendAfter(3*time.Microsecond, 7)
		k.Run()
		if !timedOut || !delivered {
			t.Fatalf("timedOut=%v delivered=%v, want both true", timedOut, delivered)
		}
	})
}

// TestSpawnFromDyingProcess: a process may spawn a sibling as its last
// action (even from a defer); the child starts at the parent's death
// time and runs to completion.
func TestSpawnFromDyingProcess(t *testing.T) {
	onBothKernels(t, func(t *testing.T, k *Kernel) {
		var childRan bool
		var childStart Time
		k.Spawn("parent", func(p *Proc) {
			p.Sleep(4 * time.Microsecond)
			defer p.Spawn("child", func(c *Proc) {
				childStart = c.Now()
				c.Sleep(time.Microsecond)
				childRan = true
			})
		})
		k.Run()
		if !childRan {
			t.Fatal("child spawned from dying parent never ran")
		}
		if childStart != 4*time.Microsecond {
			t.Fatalf("child started at %v, want 4µs (parent's death time)", childStart)
		}
		if k.Procs() != 0 {
			t.Fatalf("Procs() = %d, want 0", k.Procs())
		}
	})
}

// TestGoexitInProcessEndsRun pins the one way a process differs from a
// plain goroutine: runtime.Goexit inside it (a t.Fatal in a test's
// process body) ends the goroutine that called Run, with that
// goroutine's defers and the process's own both run, because iter.Pull
// propagates a Goexit to the caller of next.
func TestGoexitInProcessEndsRun(t *testing.T) {
	var procDefer, runReturned bool
	k := NewKernel()
	helperExited := make(chan struct{})
	go func() {
		defer close(helperExited)
		k.Spawn("quits", func(p *Proc) {
			defer func() { procDefer = true }()
			p.Sleep(time.Microsecond)
			runtime.Goexit()
		})
		k.Run()
		runReturned = true
	}()
	select {
	case <-helperExited:
	case <-time.After(5 * time.Second):
		t.Fatal("Run's caller still alive after a process called Goexit")
	}
	if runReturned {
		t.Fatal("Run returned normally after a process called Goexit")
	}
	if !procDefer {
		t.Fatal("the exiting process's deferred function did not run")
	}
	if k.Procs() != 0 {
		t.Fatalf("Procs() = %d, want 0", k.Procs())
	}
}
