//go:build go1.23

// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel multiplexes cooperative processes (one iter.Pull coroutine
// each) over a virtual clock. Exactly one goroutine — either the kernel
// itself or a single process — runs at any moment, so simulation state
// needs no locking and runs are bit-for-bit reproducible for a given
// spawn order and seed.
//
// Processes advance virtual time with Proc.Sleep and communicate through
// virtual-time channels (Chan). Network links, switches, and training
// workers in the iSwitch reproduction are all sim processes.
//
// The event queue behind the kernel is a ladder queue (calqueue.go):
// amortized O(1) per event for near and far timestamps alike, with no
// heap, resize or width estimate. The seed's binary heap survives as the
// reference scheduler (heapQueue) behind NewHeapKernel, with pop order
// pinned byte-identical by the differential suite and FuzzEventQueue.
// Events are pool-allocated through a free list, so the steady-state
// hot path — After callbacks and process wakes — performs no heap
// allocation. Pure-callback events (After) execute inline in the kernel
// loop with no goroutine handoff; waking a parked process is one
// coroutine switch in and one back out, each a direct hand-over of the
// thread that touches neither a run queue nor a channel. (The go1.23 build line is for iter: go.mod stays at go 1.22
// because benchmark/go.mod replaces this module at that version.)
package sim

import (
	"fmt"
	"iter"
	"time"
)

// Time is virtual time measured as an offset from the start of the run.
type Time = time.Duration

// event is a scheduled occurrence: at time t, run fn (kernel context)
// and/or resume proc. seq breaks ties so ordering is deterministic.
// Events are pooled: next links both a list inside the ladder queue
// and the kernel's free list.
type event struct {
	t    Time
	seq  uint64
	fn   func()
	proc *Proc
	next *event
}

// before reports whether e precedes o in the kernel's total (t, seq)
// event order.
func (e *event) before(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// scheduler is the priority-queue implementation behind a Kernel. Both
// implementations pop in exactly (t, seq) order; pooled reports whether
// popped events may be recycled through the kernel's free list.
type scheduler interface {
	push(*event)
	peek() *event
	pop() *event
	len() int
	pooled() bool
}

// Kernel owns the virtual clock and the event queue.
//
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now      Time
	seq      uint64
	sched    scheduler
	ladder   *ladderQueue // sched devirtualized, nil for other schedulers
	pool     bool         // sched.pooled(), cached off the hot path
	free     *event       // recycled events (ladder scheduler only)
	stopped  bool
	panicVal any
	live     []*Proc // the spawned, unfinished processes (Shutdown stops them)
	events   uint64  // total events processed
}

// NewKernel returns a kernel with the clock at zero, scheduled by the
// ladder queue.
func NewKernel() *Kernel {
	if useHeapScheduler {
		return NewHeapKernel()
	}
	return newKernel(&ladderQueue{})
}

// NewHeapKernel returns a kernel scheduled by the reference binary
// heap — the seed implementation, kept for differential tests and
// old-vs-new benchmarks. Event order is byte-identical to NewKernel.
func NewHeapKernel() *Kernel { return newKernel(newHeapQueue()) }

func newKernel(s scheduler) *Kernel {
	k := &Kernel{sched: s, pool: s.pooled()}
	// Devirtualize the hot path: push/peek/pop run a few times per
	// event, and the ladder queue is the production scheduler.
	k.ladder, _ = s.(*ladderQueue)
	return k
}

// useHeapScheduler, when set, makes NewKernel produce heap-scheduled
// kernels. Differential tests flip it to run unmodified experiment code
// on the reference scheduler.
var useHeapScheduler bool

// UseHeapScheduler forces every subsequent NewKernel to use the
// reference binary-heap scheduler (true) or the ladder queue (false,
// the default). It exists for differential testing: toggle, rerun an
// unmodified workload, and compare. Not safe to flip while kernels are
// running in other goroutines.
func UseHeapScheduler(on bool) { useHeapScheduler = on }

// Now reports the current virtual time. Valid from kernel callbacks and
// between Run calls; processes should use Proc.Now.
func (k *Kernel) Now() Time { return k.now }

// Stop halts the run loop after the current event completes. Pending
// events are retained, so a later Run resumes where the clock stopped.
func (k *Kernel) Stop() { k.stopped = true }

// Procs reports the number of live (spawned, unfinished) processes.
func (k *Kernel) Procs() int { return len(k.live) }

// Events reports the total number of events the kernel has processed —
// the numerator of every events/sec measurement.
func (k *Kernel) Events() uint64 { return k.events }

// QueueLen reports the number of pending events.
func (k *Kernel) QueueLen() int { return k.sched.len() }

// schedule enqueues an event under the next tie-break seq and returns
// that seq.
func (k *Kernel) schedule(t Time, fn func(), proc *Proc) uint64 {
	k.seq++
	k.enqueue(t, k.seq, fn, proc)
	return k.seq
}

// enqueue allocates an event (from the free list when the scheduler
// pools) and queues it under (t, seq). seq is either fresh (schedule) or
// was reserved earlier and not yet used (FIFO): both schedulers order by
// the key alone, so an event enqueued late under an older seq pops
// exactly where it would have had it been enqueued when the seq was
// taken.
func (k *Kernel) enqueue(t Time, seq uint64, fn func(), proc *Proc) {
	var e *event
	if k.free != nil {
		e = k.free
		k.free = e.next
		e.next = nil
	} else {
		e = &event{}
	}
	e.t, e.seq, e.fn, e.proc = t, seq, fn, proc
	if k.ladder != nil {
		k.ladder.push(e)
	} else {
		k.sched.push(e)
	}
}

// recycle returns a popped event to the free list once its payload has
// been captured. The reference heap scheduler opts out to preserve the
// seed's allocation behavior.
func (k *Kernel) recycle(e *event) {
	if !k.pool {
		return
	}
	e.fn, e.proc = nil, nil
	e.next = k.free
	k.free = e
}

// After schedules fn to run in kernel context d from now. fn must not
// block; it may schedule further events and send on channels.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.schedule(k.now+d, fn, nil)
}

// Spawn creates a process named name running fn, starting at the current
// virtual time. It may be called before Run or from kernel callbacks and
// other processes. The process's coroutine (and so its goroutine) is
// created when its start event runs, not here.
//
// A panic in fn surfaces from Run as "sim: process %q panicked: %v".
// runtime.Goexit in fn (a t.Fatal in a test's process body) ends the
// goroutine that called Run, as iter.Pull propagates it; the kernel must
// not be used afterwards.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{k: k, name: name, fn: fn, liveIdx: len(k.live)}
	k.live = append(k.live, p)
	p.wakeSeq = k.schedule(k.now, nil, p)
	return p
}

// resume hands the thread to p until it parks or finishes. The first
// resume is the start event: it builds the coroutine around p.fn.
func (p *Proc) resume() {
	if p.next == nil {
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				if r := recover(); r != nil && r != errShutdown {
					p.k.panicVal = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
				}
				p.k.finish(p)
			}()
			p.fn(p)
		})
	}
	p.next()
}

// finish retires p: it will not be resumed again and leaves the live
// list (swap-remove).
func (k *Kernel) finish(p *Proc) {
	p.done = true
	p.fn = nil // a retained *Proc must not keep the body's captures alive
	last := len(k.live) - 1
	k.live[p.liveIdx] = k.live[last]
	k.live[p.liveIdx].liveIdx = p.liveIdx
	k.live[last] = nil
	k.live = k.live[:last]
}

// Run processes events until the queue is empty or Stop is called.
// Processes still parked on channels when the queue drains do not
// resume (this is how long-lived server loops end a simulation); call
// Shutdown to release them and reclaim their goroutines.
func (k *Kernel) Run() { k.run(-1) }

// RunUntil processes events with timestamps <= t, then advances the
// clock to t; a t before Now leaves the clock where it is. Events after
// t stay queued for a subsequent Run/RunUntil.
func (k *Kernel) RunUntil(t Time) { k.run(t) }

func (k *Kernel) run(limit Time) {
	k.stopped = false
	for !k.stopped {
		var e *event
		if k.ladder != nil {
			e = k.ladder.peek()
		} else {
			e = k.sched.peek()
		}
		if e == nil || limit >= 0 && e.t > limit {
			break
		}
		if k.ladder != nil {
			k.ladder.pop()
		} else {
			k.sched.pop()
		}
		if e.t > k.now {
			k.now = e.t
		}
		k.events++
		// Capture the payload and recycle before running it: the
		// callback may schedule new events, and the freed slot lets the
		// hot fn-chain path run allocation-free.
		fn, proc, seq := e.fn, e.proc, e.seq
		k.recycle(e)
		if fn != nil {
			fn()
		}
		if proc != nil && !proc.done && !proc.cancelWake(seq) {
			proc.resume()
		}
		if k.panicVal != nil {
			panic(k.panicVal)
		}
	}
	if limit >= 0 && limit > k.now {
		k.now = limit
	}
}

// errShutdown is the sentinel a parked process panics with when the
// kernel shuts down; the Spawn wrapper swallows it so the goroutine
// unwinds (running its defers) without reporting a failure.
var errShutdown = &struct{ s string }{"sim: kernel shut down"}

// Shutdown releases every parked process so its goroutine unwinds and
// exits. Without it, processes still blocked on Chan.Recv when the
// event queue drains — long-lived server loops — leak one goroutine
// each for the life of the Go process, which across the thousands of
// kernels a sweep runs adds up to real memory and scheduler pressure.
//
// Call it after Run returns (never from inside a running process). A
// parked process observes shutdown as a panic with an internal sentinel
// from inside its blocking call (Sleep, Recv, Barrier.Wait, ...): its
// deferred functions still run, but the process can not block again —
// any further blocking call re-panics. Recovering the sentinel and
// parking anyway is unsupported. A process whose start event never ran
// is retired without its body running. Every goroutine is gone when
// Shutdown returns. Pending events are discarded; the kernel must not
// be used afterwards. Shutdown is idempotent.
func (k *Kernel) Shutdown() {
	for len(k.live) > 0 {
		p := k.live[len(k.live)-1]
		if p.stop != nil {
			p.stop() // park returns false; the unwind ends in finish
		} else {
			k.finish(p)
		}
	}
	for k.sched.pop() != nil {
	}
	k.free = nil
}

// Proc is a simulated process. All methods must be called from the
// process's own goroutine while it is the one running (i.e., from inside
// the fn passed to Spawn).
type Proc struct {
	k       *Kernel
	name    string
	fn      func(*Proc)
	done    bool
	liveIdx int // index in k.live while live

	// The coroutine, built by the first resume: next switches into the
	// process, yield switches back to whoever called next, stop makes
	// the pending and every later yield return false.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// wakeSeq, when nonzero, identifies the single event allowed to wake
	// this proc; events carrying any other seq are stale (for example a
	// timeout that lost the race against a channel delivery).
	wakeSeq uint64
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Kernel returns the kernel this process runs under.
func (p *Proc) Kernel() *Kernel { return p.k }

// Spawn starts a sibling process at the current virtual time.
func (p *Proc) Spawn(name string, fn func(*Proc)) *Proc { return p.k.Spawn(name, fn) }

// park yields the token to the kernel and blocks until resumed.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(errShutdown)
	}
}

// scheduleWake arranges for this proc to resume at now+d and records the
// event's seq so stale wakes can be cancelled.
func (p *Proc) scheduleWake(d Time) uint64 {
	if d < 0 {
		d = 0
	}
	seq := p.k.schedule(p.k.now+d, nil, p)
	p.wakeSeq = seq
	return seq
}

// cancelWake reports whether the wake identified by seq is stale. Only
// the most recently armed wake may resume the process.
func (p *Proc) cancelWake(seq uint64) bool {
	if p.wakeSeq == seq && seq != 0 {
		p.wakeSeq = 0
		return false
	}
	return true
}

// Sleep advances this process's local time by d.
func (p *Proc) Sleep(d Time) {
	p.scheduleWake(d)
	p.park()
}

// Chan is an unbounded virtual-time channel. Senders never block;
// receivers block in virtual time until a value is available. Delivery
// order is FIFO and deterministic. Buffers and waiter lists are ring
// buffers, and waiter records are recycled through a per-channel free
// list, so steady-state send/recv traffic does not allocate.
type Chan[T any] struct {
	k       *Kernel
	name    string
	buf     ring[T]
	waiters ring[*chanWaiter[T]]
	freeW   *chanWaiter[T]
}

type chanWaiter[T any] struct {
	p       *Proc
	got     bool
	v       T
	expired bool           // timeout fired before a value arrived
	next    *chanWaiter[T] // free-list link
}

// NewChan creates a channel on kernel k. name is for diagnostics.
func NewChan[T any](k *Kernel, name string) *Chan[T] {
	return &Chan[T]{k: k, name: name}
}

// Len reports the number of buffered (undelivered) values.
func (c *Chan[T]) Len() int { return c.buf.len() }

// getWaiter takes a waiter record from the free list (or allocates).
func (c *Chan[T]) getWaiter(p *Proc) *chanWaiter[T] {
	w := c.freeW
	if w == nil {
		w = &chanWaiter[T]{}
	} else {
		c.freeW = w.next
	}
	var zero T
	w.p, w.got, w.v, w.expired, w.next = p, false, zero, false, nil
	return w
}

// putWaiter recycles a waiter that is no longer queued.
func (c *Chan[T]) putWaiter(w *chanWaiter[T]) {
	var zero T
	w.p, w.v = nil, zero
	w.next = c.freeW
	c.freeW = w
}

// Send enqueues v at the current virtual time. Callable from kernel
// callbacks or from the running process.
func (c *Chan[T]) Send(v T) { c.deliver(v) }

// SendAfter enqueues v after a virtual delay of d. This is the primitive
// network links use to model latency without a dedicated process.
func (c *Chan[T]) SendAfter(d Time, v T) {
	c.k.After(d, func() { c.deliver(v) })
}

func (c *Chan[T]) deliver(v T) {
	// Hand to the longest-waiting live receiver, if any.
	for c.waiters.len() > 0 {
		w := c.waiters.pop()
		if w.expired {
			c.putWaiter(w) // its receiver timed out and moved on
			continue
		}
		w.got = true
		w.v = v
		w.p.scheduleWake(0)
		return
	}
	c.buf.push(v)
}

// Recv blocks the process in virtual time until a value is available.
func (c *Chan[T]) Recv(p *Proc) T {
	if c.buf.len() > 0 {
		return c.buf.pop()
	}
	w := c.getWaiter(p)
	c.waiters.push(w)
	p.wakeSeq = 0 // the deliver call will arm the wake
	p.park()
	v := w.v
	c.putWaiter(w) // deliver already dequeued it
	return v
}

// TryRecv returns a buffered value without blocking.
func (c *Chan[T]) TryRecv() (T, bool) {
	var zero T
	if c.buf.len() == 0 {
		return zero, false
	}
	return c.buf.pop(), true
}

// RecvTimeout waits up to d for a value. ok is false on timeout.
func (c *Chan[T]) RecvTimeout(p *Proc, d Time) (v T, ok bool) {
	if c.buf.len() > 0 {
		return c.buf.pop(), true
	}
	w := c.getWaiter(p)
	c.waiters.push(w)
	p.scheduleWake(d) // timeout wake; a deliver overrides it via scheduleWake(0)
	p.park()
	if !w.got {
		// Still queued: mark it stale so a later deliver skips (and
		// recycles) it instead of waking a process that moved on.
		w.expired = true
		var zero T
		return zero, false
	}
	v = w.v
	c.putWaiter(w)
	return v, true
}
