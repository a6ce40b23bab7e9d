package sim

import (
	"fmt"
	"testing"
	"time"
)

// White-box tests for the ladder queue's tiers: rung spawn and retire,
// far-future events waiting in the top, same-timestamp floods in the
// bottom, and the invariant that the tiers split the time axis.

func calPushAt(q *ladderQueue, t Time, seq uint64) *event {
	e := &event{t: t, seq: seq}
	q.push(e)
	return e
}

// checkLadder verifies the ladder's structure: the bottom is sorted,
// every tier holds only timestamps between its floor and the floors of
// the tiers above it, spent buckets are empty, the top's min and max
// are exact, and the counts add up.
func checkLadder(q *ladderQueue) error {
	ceil := q.topStart // every event below the top is before this
	n := 0
	for e := q.top; e != nil; e = e.next {
		if e.t < q.topStart || e.t < q.topMin || e.t > q.topMax {
			return fmt.Errorf("top event at %d outside [%d, %d] or below topStart %d", e.t, q.topMin, q.topMax, q.topStart)
		}
		n++
	}
	if n != q.topN {
		return fmt.Errorf("top holds %d events, topN says %d", n, q.topN)
	}
	for i := 0; i < q.nr; i++ {
		r := &q.rungs[i]
		if r.lo < r.start+Time(r.cur)<<r.shift && r.cur < len(r.b) {
			return fmt.Errorf("rung %d floor %d before its bucket %d", i, r.lo, r.cur)
		}
		for j, head := range r.b[:cap(r.b)] {
			for e := head; e != nil; e = e.next {
				lo := r.start + Time(j)<<r.shift
				switch {
				case j < r.cur || j >= len(r.b):
					return fmt.Errorf("rung %d: spent or idle bucket %d holds an event", i, j)
				case e.t < lo || e.t >= lo+Time(1)<<r.shift:
					return fmt.Errorf("rung %d bucket %d: event at %d outside [%d, %d)", i, j, e.t, lo, lo+Time(1)<<r.shift)
				case e.t < r.lo || e.t >= ceil:
					return fmt.Errorf("rung %d: event at %d outside [%d, %d)", i, e.t, r.lo, ceil)
				}
				n++
			}
		}
		ceil = min(ceil, r.lo)
	}
	for i := q.nr; i < len(q.rungs); i++ {
		for j, head := range q.rungs[i].b[:cap(q.rungs[i].b)] {
			if head != nil {
				return fmt.Errorf("retired rung %d bucket %d holds an event", i, j)
			}
		}
	}
	bn := 0
	for e := q.bot; e != nil; e = e.next {
		if e.t >= ceil {
			return fmt.Errorf("bottom event at %d not before the lowest floor %d", e.t, ceil)
		}
		if e.next != nil && !e.before(e.next) {
			return fmt.Errorf("bottom out of order: (%d,%d) before (%d,%d)", e.t, e.seq, e.next.t, e.next.seq)
		}
		if e.next == nil && e != q.botTail {
			return fmt.Errorf("botTail is not the bottom's last event")
		}
		bn++
	}
	if bn != q.botN {
		return fmt.Errorf("bottom holds %d events, botN says %d", bn, q.botN)
	}
	if n += bn; n != q.n {
		return fmt.Errorf("tiers hold %d events, len() says %d", n, q.n)
	}
	return nil
}

// TestCalQueueGrowsAndShrinks drives a population through rung spawn
// and retirement and checks pop order is preserved across both.
func TestCalQueueGrowsAndShrinks(t *testing.T) {
	q := &ladderQueue{}
	const n = 1000
	for i := 0; i < n; i++ {
		calPushAt(q, Time(i%257)*time.Nanosecond, uint64(i+1))
	}
	var prev *event
	for i := 0; i < n; i++ {
		e := q.pop()
		if e == nil {
			t.Fatalf("pop %d returned nil", i)
		}
		if i == 0 && (q.nr == 0 || len(q.rungs[0].b) <= ladderThres) {
			t.Fatalf("ladder did not grow a rung for %d events over 257 timestamps: %d rungs", n, q.nr)
		}
		if err := checkLadder(q); err != nil {
			t.Fatalf("after pop %d: %v", i, err)
		}
		if prev != nil && !prev.before(e) {
			t.Fatalf("pop order violated: (%v,%d) after (%v,%d)", e.t, e.seq, prev.t, prev.seq)
		}
		prev = e
	}
	if q.pop() != nil {
		t.Fatal("queue not empty after draining")
	}
	// The next refill retires the spent rung.
	calPushAt(q, time.Second, n+1)
	if e := q.pop(); e == nil || e.seq != n+1 {
		t.Fatalf("pop after drain = %+v, want seq %d", e, n+1)
	}
	if q.nr != 0 {
		t.Fatalf("spent rungs did not retire: %d rungs left", q.nr)
	}
}

// TestCalQueueOverflowMigration: far-future events wait, unsorted, in
// the top while the near cluster is served from below, then come down
// and emerge in order.
func TestCalQueueOverflowMigration(t *testing.T) {
	q := &ladderQueue{}
	// Near-term cluster, settled into the bottom by a peek.
	for i := 0; i < 8; i++ {
		calPushAt(q, Time(i)*time.Microsecond, uint64(i+1))
	}
	q.peek()
	// Far future: past the bottom's range, so these wait in the top.
	calPushAt(q, time.Second, 100)
	calPushAt(q, 2*time.Second, 101)
	if q.topN != 2 {
		t.Fatalf("topN = %d, want 2", q.topN)
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
// must keep seq order; with one distinct timestamp there is nothing for
// a rung to split, so they are sorted straight into the bottom.
func TestCalQueueSameTimestampFlood(t *testing.T) {
	q := &ladderQueue{}
	const n = 500
	for i := 0; i < n; i++ {
		calPushAt(q, time.Millisecond, uint64(i+1))
	}
	for i := 0; i < n; i++ {
		e := q.pop()
		if i == 0 && (q.nr != 0 || q.botN != n-1) {
			t.Fatalf("flood spawned %d rungs, bottom holds %d; want 0 rungs, %d in the bottom", q.nr, q.botN, n-1)
		}
		if e.seq != uint64(i+1) {
			t.Fatalf("pop %d has seq %d, want %d", i, e.seq, i+1)
		}
	}
}

// TestCalQueuePeekStableAcrossPushes: peek must re-find the minimum if
// a push precedes it.
func TestCalQueuePeekStableAcrossPushes(t *testing.T) {
	q := &ladderQueue{}
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
// (pop one, push one ahead of it) across enough iterations to refill
// the bottom from the rungs and the top many times over.
func TestCalQueueInterleavedHold(t *testing.T) {
	q := &ladderQueue{}
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
		if i%97 == 0 {
			if err := checkLadder(q); err != nil {
				t.Fatalf("hold %d: %v", i, err)
			}
		}
	}
	if q.len() != 64 {
		t.Fatalf("len() = %d, want steady-state 64", q.len())
	}
}

// TestCalQueueReservedSeqInsert: FIFO enqueues a head under a seq
// reserved when the value was pushed, so an insert at an occupied
// timestamp may carry a seq older than the bottom's tail (or its head).
// The bottom must stay in (t, seq) order whichever path takes it: head,
// middle, tail; and so must the unsorted top when it comes down.
func TestCalQueueReservedSeqInsert(t *testing.T) {
	q := &ladderQueue{}
	at := 5 * time.Microsecond
	calPushAt(q, at, 5)
	q.peek()                             // settles seq 5 in the bottom
	for _, seq := range []uint64{7, 9} { // ascending: the tail fast path
		calPushAt(q, at, seq)
	}
	calPushAt(q, at, 6)                    // middle
	calPushAt(q, at, 4)                    // before the head
	calPushAt(q, at, 8)                    // middle, next to the tail
	calPushAt(q, at, 10)                   // tail again
	calPushAt(q, at+time.Nanosecond, 3)    // later time, older seq: the top
	for _, seq := range []uint64{22, 21} { // far future: the top
		calPushAt(q, time.Second, seq)
	}
	if q.botN != 7 || q.topN != 3 {
		t.Fatalf("bottom holds %d, top %d; want 7 and 3", q.botN, q.topN)
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

// TestCalQueueBottomSpawnsRung: pushes that pile into the bottom's
// range (between its head and its last event) spread into a rung of
// their own once the bottom passes ladderThres, instead of growing one
// sorted list.
func TestCalQueueBottomSpawnsRung(t *testing.T) {
	q := &ladderQueue{}
	seq := uint64(0)
	for i := 0; i < ladderThres; i++ { // short enough to sort into the bottom
		seq++
		calPushAt(q, Time(i)*time.Microsecond, seq)
	}
	first := q.pop()
	if q.nr != 0 || q.botN != ladderThres-1 {
		t.Fatalf("%d rungs, bottom of %d; want 0 and %d", q.nr, q.botN, ladderThres-1)
	}
	for i := 0; i < 2*ladderThres; i++ { // all inside the bottom's range
		seq++
		calPushAt(q, first.t+Time(7919*i%40000)*time.Nanosecond+1, seq)
		if err := checkLadder(q); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if q.nr == 0 || q.botN > ladderThres {
		t.Fatalf("bottom of %d did not spawn a rung (%d rungs)", q.botN, q.nr)
	}
	prev := first
	for q.len() > 0 {
		e := q.pop()
		if !prev.before(e) {
			t.Fatalf("pop order violated: (%v,%d) after (%v,%d)", e.t, e.seq, prev.t, prev.seq)
		}
		prev = e
	}
}

// fuzzDelay decodes one script byte into a delay of zero or a few ns,
// µs, ms or seconds: the scales a simulation mixes.
func fuzzDelay(b byte) Time {
	units := [...]Time{0, time.Nanosecond, time.Microsecond, time.Millisecond, time.Second}
	return Time(b/5+1) * units[b%5]
}

// FuzzEventQueue runs push/pop scripts through the ladder queue and the
// reference heap, pop for pop. A script is up to 256 (op, arg) byte
// pairs: push one event, push a same-timestamp flood of up to 16,
// reserve a seq and push it later (as FIFO does, so a push may carry an
// older seq than events already queued), or pop a few. Delays are
// relative to the last popped time, as the kernel's are to Now. After
// every op the ladder's tiers must pass checkLadder and both queues
// must hold the same count. (The length cap keeps each run, and so the
// fuzzer's minimization of a long input, fast.)
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 18, 1, 12, 0, 52, 5, 0, 0, 18, 1, 7, 5, 0, 0, 33, 5, 0, 11, 0})
	f.Add([]byte{2 + 6*40, 1, 2 + 6*41, 0, 0, 3, 5 + 6*7, 0, 2 + 6*20, 6, 5 + 6*7, 0})
	f.Add([]byte{3, 0, 3, 0, 0, 0, 0, 2, 4, 0, 4, 1, 5 + 6*3, 0, 3, 0, 2 + 6*42, 2, 4, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		script = script[:min(len(script), 512)]
		lq, ref := &ladderQueue{}, newHeapQueue()
		var now Time
		var seq uint64
		var reserved []uint64
		push := func(at Time, s uint64) {
			lq.push(&event{t: at, seq: s})
			ref.push(&event{t: at, seq: s})
		}
		pop := func() {
			got, want := lq.pop(), ref.pop()
			if (got == nil) != (want == nil) || got != nil && (got.t != want.t || got.seq != want.seq) {
				t.Fatalf("ladder popped %+v, heap %+v", got, want)
			}
			if got != nil {
				now = got.t
			}
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, d := script[i], fuzzDelay(script[i+1])
			switch op % 6 {
			case 0, 1:
				seq++
				push(now+d, seq)
			case 2:
				for n := int(op/6)%16 + 1; n > 0; n-- {
					seq++
					push(now+d, seq)
				}
			case 3:
				seq++
				reserved = append(reserved, seq)
			case 4:
				if len(reserved) > 0 {
					push(now+d, reserved[0])
					reserved = reserved[1:]
				}
			case 5:
				for n := int(op/6)%8 + 1; n > 0; n-- {
					pop()
				}
			}
			if lq.len() != ref.len() {
				t.Fatalf("op %d: ladder holds %d events, heap %d", i/2, lq.len(), ref.len())
			}
			if err := checkLadder(lq); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
		for lq.len() > 0 || ref.len() > 0 {
			pop()
		}
	})
}
