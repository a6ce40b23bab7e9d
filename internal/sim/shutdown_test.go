package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestShutdownReleasesParkedProcs pins the goroutine-leak fix: a kernel
// whose queue drains while server-loop processes are still parked on
// channels must release those goroutines on Shutdown.
func TestShutdownReleasesParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	const kernels = 20
	for i := 0; i < kernels; i++ {
		k := NewKernel()
		ch := NewChan[int](k, "rx")
		for s := 0; s < 8; s++ {
			k.Spawn("server", func(p *Proc) {
				for { // server loop: parks forever once the queue drains
					ch.Recv(p)
				}
			})
		}
		k.Spawn("client", func(p *Proc) {
			ch.Send(1)
			p.Sleep(time.Microsecond)
		})
		k.Run()
		if k.Procs() == 0 {
			t.Fatal("expected parked server procs after Run")
		}
		k.Shutdown()
		if k.Procs() != 0 {
			t.Fatalf("Procs() = %d after Shutdown, want 0", k.Procs())
		}
	}
	// Shutdown has already destroyed the processes' goroutines; the
	// grace period is for unrelated runtime goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutting down %d kernels",
				before, after, kernels)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownRunsDefers verifies a parked process's deferred functions
// run during Shutdown (the sentinel panic unwinds the stack normally).
func TestShutdownRunsDefers(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "rx")
	cleaned := false
	k.Spawn("server", func(p *Proc) {
		defer func() { cleaned = true }()
		ch.Recv(p)
	})
	k.Run()
	k.Shutdown()
	if !cleaned {
		t.Fatal("deferred cleanup did not run during Shutdown")
	}
}

// TestShutdownWithBlockingDefer: a defer that itself blocks (sends on a
// channel nobody reads) must not hang Shutdown — the re-park panics
// again and the unwind continues.
func TestShutdownWithBlockingDefer(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "rx")
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.Spawn("server", func(p *Proc) {
			defer func() {
				// Recv parks again mid-shutdown; the kernel re-panics it.
				defer func() { recover() }()
				ch.Recv(p)
			}()
			ch.Recv(p)
		})
		k.Run()
		k.Shutdown()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung on a blocking defer")
	}
}

// TestShutdownIdempotent: calling Shutdown twice (or on a never-run
// kernel) is harmless.
func TestShutdownIdempotent(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.Sleep(time.Microsecond) })
	k.Run()
	k.Shutdown()
	k.Shutdown()

	k2 := NewKernel()
	k2.Shutdown() // never ran; start events still queued
	if k2.QueueLen() != 0 {
		t.Fatalf("QueueLen() = %d after Shutdown, want 0", k2.QueueLen())
	}
}

// TestSpawnAfterShutdownIsInert: processes spawned after Shutdown must
// not run their body (the kernel is dead), and must not leak.
func TestSpawnAfterShutdownIsInert(t *testing.T) {
	k := NewKernel()
	k.Shutdown()
	ran := false
	k.Spawn("late", func(p *Proc) { ran = true })
	k.Shutdown() // release the late goroutine too
	if ran {
		t.Fatal("process spawned after Shutdown ran its body")
	}
}

// TestSpawnIsLazy: Spawn creates no goroutine (the coroutine is built by
// the start event), so a kernel that is set up and shut down without
// running costs none and runs no body.
func TestSpawnIsLazy(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	ran := 0
	for i := 0; i < 1000; i++ {
		k.Spawn("idle", func(p *Proc) { ran++ })
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("goroutines: %d before Spawn, %d after 1000 Spawns", before, n)
	}
	k.Shutdown()
	if ran != 0 {
		t.Fatalf("%d process bodies ran without Run", ran)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("goroutines: %d before, %d after Shutdown", before, n)
	}
	if k.Procs() != 0 {
		t.Fatalf("Procs() = %d after Shutdown, want 0", k.Procs())
	}
}
