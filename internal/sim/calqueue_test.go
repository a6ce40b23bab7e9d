package sim

import (
	"testing"
	"time"
)

// White-box tests for the calendar queue's internal mechanics: resize,
// overflow migration, and the bucket-year invariant.

func calPushAt(q *calQueue, t Time, seq uint64) *event {
	e := &event{t: t, seq: seq}
	q.push(e)
	return e
}

// TestCalQueueGrowsAndShrinks drives occupancy through both resize
// thresholds and checks pop order is preserved across rebuilds.
func TestCalQueueGrowsAndShrinks(t *testing.T) {
	q := newCalQueue()
	const n = 1000
	for i := 0; i < n; i++ {
		calPushAt(q, Time(i%257)*time.Nanosecond, uint64(i+1))
	}
	if len(q.buckets) <= calMinBuckets {
		t.Fatalf("bucket array did not grow: %d buckets for %d events", len(q.buckets), n)
	}
	var prev *event
	for i := 0; i < n; i++ {
		e := q.pop()
		if e == nil {
			t.Fatalf("pop %d returned nil", i)
		}
		if prev != nil && !prev.before(e) {
			t.Fatalf("pop order violated: (%v,%d) after (%v,%d)", e.t, e.seq, prev.t, prev.seq)
		}
		prev = e
	}
	if q.pop() != nil {
		t.Fatal("queue not empty after draining")
	}
	if len(q.buckets) != calMinBuckets {
		t.Fatalf("bucket array did not shrink back to %d: %d", calMinBuckets, len(q.buckets))
	}
}

// TestCalQueueOverflowMigration pushes far-future events (beyond the
// year), verifies they land in the overflow heap, then pops forward and
// checks they migrate into buckets and emerge in order.
func TestCalQueueOverflowMigration(t *testing.T) {
	q := newCalQueue()
	// Near-term cluster.
	for i := 0; i < 8; i++ {
		calPushAt(q, Time(i)*time.Microsecond, uint64(i+1))
	}
	// Far future: with 16 buckets of ~1µs the year ends at 16µs, so
	// these must overflow.
	calPushAt(q, time.Second, 100)
	calPushAt(q, 2*time.Second, 101)
	if q.overflow.len() != 2 {
		t.Fatalf("overflow.len() = %d, want 2", q.overflow.len())
	}
	if q.len() != 10 {
		t.Fatalf("len() = %d, want 10", q.len())
	}
	var prev *event
	for i := 0; i < 10; i++ {
		e := q.pop()
		if e == nil {
			t.Fatalf("pop %d returned nil", i)
		}
		if prev != nil && !prev.before(e) {
			t.Fatalf("pop order violated at %d: (%v,%d) after (%v,%d)", i, e.t, e.seq, prev.t, prev.seq)
		}
		prev = e
	}
	if prev.t != 2*time.Second {
		t.Fatalf("last pop at %v, want 2s", prev.t)
	}
}

// TestCalQueueSameTimestampFlood: thousands of events on one timestamp
// must keep seq order and must not collapse the width estimate (the
// resize samples ignore an all-equal cluster).
func TestCalQueueSameTimestampFlood(t *testing.T) {
	q := newCalQueue()
	const n = 500
	for i := 0; i < n; i++ {
		calPushAt(q, time.Millisecond, uint64(i+1))
	}
	for i := 0; i < n; i++ {
		e := q.pop()
		if e.seq != uint64(i+1) {
			t.Fatalf("pop %d has seq %d, want %d", i, e.seq, i+1)
		}
	}
}

// TestCalQueuePeekStableAcrossPushes: a push invalidates the peek cache;
// peek must re-find the minimum if the new event precedes it.
func TestCalQueuePeekStableAcrossPushes(t *testing.T) {
	q := newCalQueue()
	calPushAt(q, 10*time.Microsecond, 1)
	if e := q.peek(); e.seq != 1 {
		t.Fatalf("peek seq = %d, want 1", e.seq)
	}
	calPushAt(q, time.Microsecond, 2)
	if e := q.peek(); e.seq != 2 {
		t.Fatalf("peek after earlier push = seq %d, want 2", e.seq)
	}
	if e := q.pop(); e.seq != 2 {
		t.Fatalf("pop = seq %d, want 2", e.seq)
	}
	if e := q.pop(); e.seq != 1 {
		t.Fatalf("pop = seq %d, want 1", e.seq)
	}
}

// TestCalQueueInterleavedHold exercises the steady-state hold pattern
// (pop one, push one ahead of it) across enough iterations to cross
// year boundaries repeatedly.
func TestCalQueueInterleavedHold(t *testing.T) {
	q := newCalQueue()
	seq := uint64(0)
	for i := 0; i < 64; i++ {
		seq++
		calPushAt(q, Time(i)*100*time.Nanosecond, seq)
	}
	prevT := Time(-1)
	for i := 0; i < 20000; i++ {
		e := q.pop()
		if e.t < prevT {
			t.Fatalf("time went backwards: %v after %v", e.t, prevT)
		}
		prevT = e.t
		seq++
		calPushAt(q, e.t+Time(1+i%7)*time.Microsecond, seq)
	}
	if q.len() != 64 {
		t.Fatalf("len() = %d, want steady-state 64", q.len())
	}
}

// TestCalQueueReservedSeqInsert: FIFO enqueues a head under a seq
// reserved when the value was pushed, so an insert at an occupied
// timestamp may carry a seq older than the bucket's tail (or its head).
// The chain must stay in (t, seq) order whichever path takes it: head,
// middle, tail, and the overflow heap.
func TestCalQueueReservedSeqInsert(t *testing.T) {
	q := newCalQueue()
	at := 5 * time.Microsecond
	for _, seq := range []uint64{5, 7, 9} { // ascending: the tail fast path
		calPushAt(q, at, seq)
	}
	calPushAt(q, at, 6)                    // middle
	calPushAt(q, at, 4)                    // before the head
	calPushAt(q, at, 8)                    // middle, next to the tail
	calPushAt(q, at, 10)                   // tail again
	calPushAt(q, at+time.Nanosecond, 3)    // same bucket, later time, older seq
	for _, seq := range []uint64{22, 21} { // past the year: overflow heap
		calPushAt(q, time.Second, seq)
	}
	if q.overflow.len() != 2 {
		t.Fatalf("overflow.len() = %d, want 2", q.overflow.len())
	}
	want := []uint64{4, 5, 6, 7, 8, 9, 10, 3, 21, 22}
	for i, seq := range want {
		e := q.pop()
		if e == nil || e.seq != seq {
			t.Fatalf("pop %d = %+v, want seq %d", i, e, seq)
		}
	}
	if q.pop() != nil {
		t.Fatal("queue not empty after draining")
	}
}
