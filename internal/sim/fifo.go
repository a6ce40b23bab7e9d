package sim

// FIFO runs fn(v) for each pushed value at the value's due time, like
// one Kernel.After per value, but keeps at most one event in the kernel
// however many values are waiting: the head's. A link with thousands of
// frames in flight or a switch pipeline behind a burst then costs the
// scheduler one entry, not one per frame.
//
// Event order is unchanged by construction. Push takes the value's
// tie-break seq at once, exactly where After would have, and the value
// is enqueued under that reserved (t, seq) when it reaches the head.
// Due times must not decrease from one Push to the next (Push panics if
// they do) and seqs only grow, so the head always holds the FIFO's
// smallest key: by the time the kernel could pop any waiting value's
// key, that value is the head and its event is queued. The set of keys,
// the pop order and the event count equal those of After per value.
type FIFO[T any] struct {
	k    *Kernel
	fn   func(T)
	head fifoItem[T]       // the value whose event is in the kernel; seq 0 when idle
	wait ring[fifoItem[T]] // the values behind it; never allocated while one is in flight at a time
	last Time              // due time of the newest value: the floor for the next
	fire func()            // f.pop, bound once so that arming the head allocates nothing
}

type fifoItem[T any] struct {
	t   Time
	seq uint64
	v   T
}

// NewFIFO creates an empty FIFO on kernel k that hands each due value
// to fn in kernel context. fn must not block; it may push to this FIFO.
func NewFIFO[T any](k *Kernel, fn func(T)) *FIFO[T] {
	f := &FIFO[T]{k: k, fn: fn}
	f.fire = f.pop
	return f
}

// Push makes v due d from now (a negative d counts as zero).
func (f *FIFO[T]) Push(d Time, v T) {
	if d < 0 {
		d = 0
	}
	t := f.k.now + d
	if t < f.last {
		panic("sim: FIFO due times must not decrease")
	}
	f.last = t
	f.k.seq++
	it := fifoItem[T]{t: t, seq: f.k.seq, v: v}
	if f.head.seq != 0 { // seqs start at 1
		f.wait.push(it)
		return
	}
	f.arm(it)
}

// arm makes it the head and queues its event under its reserved key.
func (f *FIFO[T]) arm(it fifoItem[T]) {
	f.head = it
	f.k.enqueue(it.t, it.seq, f.fire, nil)
}

// pop is the head's event: arm the next value, then deliver. Arming
// first keeps a Push from inside fn from arming a second event.
func (f *FIFO[T]) pop() {
	v := f.head.v
	if f.wait.len() > 0 {
		f.arm(f.wait.pop())
	} else {
		f.head = fifoItem[T]{} // idle; also drops the delivered value
	}
	f.fn(v)
}
