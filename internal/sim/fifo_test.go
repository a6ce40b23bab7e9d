package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fifoWorkload drives nFIFO timed queues plus loose After events from a
// seeded script and returns the order in which everything fired. push
// is the queue under test: the production FIFO, or one After per value.
// Delays come off a 100 ns grid so that many due times tie, within a
// queue, across queues and with the loose events; deliveries push
// further values, so queues are armed from inside their own callback
// too. The script draws from the RNG in firing order: any reordering
// changes every later draw and shows in the trace.
func fifoWorkload(k *Kernel, seed int64, mk func(i int, fn func(int)) (push func(d Time, v int))) string {
	const nFIFO = 4
	const quantum = 100 * time.Nanosecond
	rng := newDiffRNG(seed)
	var trace strings.Builder
	due := make([]Time, nFIFO) // newest due time per queue
	push := make([]func(Time, int), nFIFO)
	next := 0
	send := func(i int) {
		// Never before the queue's newest due time; often exactly on it.
		d := due[i] - k.Now()
		if d < 0 {
			d = 0
		}
		d += Time(rng.intn(3)) * quantum
		due[i] = k.Now() + d
		next++
		push[i](d, next)
	}
	budget := 3000
	for i := range push {
		i := i
		push[i] = mk(i, func(v int) {
			fmt.Fprintf(&trace, "%d f%d v%d\n", k.Now(), i, v)
			if budget > 0 && rng.intn(3) == 0 {
				budget--
				send(rng.intn(nFIFO))
			}
		})
	}
	for b := 0; b < 60; b++ {
		at := Time(rng.intn(40)) * quantum
		k.After(at, func() {
			fmt.Fprintf(&trace, "%d burst\n", k.Now())
			i := rng.intn(nFIFO)
			for n := 1 + rng.intn(20); n > 0; n-- {
				send(i)
			}
		})
	}
	// Run in slices so that RunUntil boundaries fall between a queue's
	// armed head and its waiting values.
	for t := Time(0); t < 50*quantum; t += 7 * quantum {
		k.RunUntil(t)
		fmt.Fprintf(&trace, "%d until\n", k.Now())
	}
	k.Run()
	fmt.Fprintf(&trace, "events %d now %d\n", k.Events(), k.Now())
	return trace.String()
}

// TestFIFOMatchesAfterPerValue is the order gate: the FIFO fires the
// same callbacks at the same times in the same order, with the same
// event count, as scheduling every value with its own After, on both
// schedulers.
func TestFIFOMatchesAfterPerValue(t *testing.T) {
	kernels := map[string]func() *Kernel{"calendar": NewKernel, "heap": NewHeapKernel}
	for seed := int64(1); seed <= 20; seed++ {
		var want string
		for name, mk := range kernels {
			k := mk()
			ref := fifoWorkload(k, seed, func(_ int, fn func(int)) func(Time, int) {
				return func(d Time, v int) { k.After(d, func() { fn(v) }) }
			})
			k = mk()
			got := fifoWorkload(k, seed, func(_ int, fn func(int)) func(Time, int) {
				return NewFIFO(k, fn).Push
			})
			if got != ref {
				t.Fatalf("seed %d, %s kernel: FIFO and After-per-value diverge at %s", seed, name, firstDiff(ref, got))
			}
			if want == "" {
				want = ref
			} else if ref != want {
				t.Fatalf("seed %d: calendar and heap kernels diverge at %s", seed, firstDiff(want, ref))
			}
		}
		if strings.Count(want, " v") < 100 {
			t.Fatalf("seed %d delivered only %d values: the script is not exercising the queues", seed, strings.Count(want, " v"))
		}
	}
}

// TestFIFOOnePendingEvent pins the point of the type: however many
// values wait, the kernel holds one event for the queue.
func TestFIFOOnePendingEvent(t *testing.T) {
	onBothKernels(t, func(t *testing.T, k *Kernel) {
		got := 0
		f := NewFIFO(k, func(v int) {
			if v != got {
				t.Fatalf("value %d delivered in position %d", v, got)
			}
			got++
		})
		for i := 0; i < 1000; i++ {
			f.Push(Time(i/3)*time.Microsecond, i)
			if k.QueueLen() != 1 {
				t.Fatalf("QueueLen() = %d with %d values waiting, want 1", k.QueueLen(), i+1)
			}
		}
		k.RunUntil(100 * time.Microsecond)
		if got != 303 || k.QueueLen() != 1 {
			t.Fatalf("after RunUntil(100µs): %d delivered, QueueLen() = %d; want 303 and 1", got, k.QueueLen())
		}
		k.Run()
		if got != 1000 || k.Events() != 1000 || k.QueueLen() != 0 {
			t.Fatalf("delivered %d with %d events, %d left; want 1000, 1000, 0", got, k.Events(), k.QueueLen())
		}
	})
}

// TestFIFODecreasingDueTimePanics: the order proof rests on monotone
// due times, so a caller that breaks it must not go unnoticed.
func TestFIFODecreasingDueTimePanics(t *testing.T) {
	k := NewKernel()
	f := NewFIFO(k, func(int) {})
	f.Push(2*time.Microsecond, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Push with an earlier due time did not panic")
		}
	}()
	f.Push(time.Microsecond, 2)
}

// TestFIFOAllocFree is the allocation gate for reserve-a-seq and
// schedule-at-seq: once the ring has grown and the kernel's event free
// list is primed, pushing and delivering allocates nothing.
func TestFIFOAllocFree(t *testing.T) {
	k := NewKernel()
	n := 0
	f := NewFIFO(k, func(int) { n++ })
	round := func() {
		for i := 0; i < 256; i++ {
			f.Push(Time(i/2)*time.Nanosecond, i)
		}
		k.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("FIFO push+deliver allocated %.1f times per 256 values, want 0", allocs)
	}
	if n != 22*256 {
		t.Fatalf("delivered %d values, want %d", n, 22*256)
	}
}

// TestReservedSeqLandsInOrder: an event enqueued late under a seq
// reserved earlier, at a timestamp that already holds younger events,
// fires where its key says on both schedulers. Before FIFO existed every
// same-timestamp insert carried the largest seq so far.
func TestReservedSeqLandsInOrder(t *testing.T) {
	onBothKernels(t, func(t *testing.T, k *Kernel) {
		var order []string
		note := func(s string) func() { return func() { order = append(order, s) } }
		at := 10 * time.Microsecond
		k.After(at, note("a")) // seq 1
		k.seq++                // seq 2, reserved
		k.After(at, note("c")) // seq 3
		k.seq++                // seq 4, reserved
		k.After(at, note("e")) // seq 5
		k.After(time.Second, note("z"))
		k.enqueue(at, 4, note("d"), nil)
		k.enqueue(at, 2, note("b"), nil)
		k.Run()
		if got := strings.Join(order, ""); got != "abcdez" {
			t.Fatalf("fired %q, want \"abcdez\"", got)
		}
	})
}
