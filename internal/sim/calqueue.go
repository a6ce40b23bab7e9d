package sim

import "math/bits"

// ladderQueue is the kernel's event scheduler: a ladder queue (Tang,
// Goh & Thng, ACM TOMACS 2005), amortized O(1) per event however the
// timestamps mix near and far. It keeps events in three tiers, each a
// chain through event.next:
//
//   - top: an unsorted list of the far future, every t >= topStart,
//     whose min and max are tracked on push;
//   - rungs: arrays of unsorted buckets, each rung finer than the one
//     above it. Rung i takes the pushes with t >= rungs[i].lo that no
//     tier above takes;
//   - bottom: a short list sorted by (t, seq), below every rung.
//
// A pop takes the bottom's head. An empty bottom is refilled from the
// lowest rung's next non-empty bucket, or from the whole top when there
// are no rungs: a list of more than ladderThres events with more than
// one distinct timestamp is spread over a new, finer rung, anything
// else is sorted into the bottom. A bottom pushed past ladderThres
// spawns a rung the same way. The tiers split the time axis, so the
// bottom's head is the (t, seq) minimum: pop order equals the reference
// heapQueue's, which the differential suite and FuzzEventQueue enforce.
type ladderQueue struct {
	n int // events in all tiers

	top            *event
	topN           int
	topMin, topMax Time
	topStart       Time

	rungs [ladderRungs]rung
	nr    int // rungs in use; rungs[nr-1] is the lowest

	bot, botTail *event
	botN         int
}

// rung is one level of buckets: bucket i holds timestamps in
// [start + i<<shift, start + (i+1)<<shift). Buckets before cur are empty.
type rung struct {
	b     []*event // bucket heads; reused by later spawns, all nil when idle
	start Time
	shift uint
	cur   int
	lo    Time // the rung's floor, at or after bucket cur's start
}

const (
	// ladderThres is the longest list sorted straight into the bottom.
	ladderThres = 32
	// ladderRungs bounds the ladder's depth; past it, lists are sorted.
	ladderRungs = 8
)

func (q *ladderQueue) pooled() bool { return true }

func (q *ladderQueue) len() int { return q.n }

func (q *ladderQueue) push(e *event) {
	q.n++
	t := e.t
	if t >= q.topStart {
		if q.topN == 0 {
			q.topMin, q.topMax = t, t
		} else if t < q.topMin {
			q.topMin = t
		} else if t > q.topMax {
			q.topMax = t
		}
		e.next, q.top = q.top, e
		q.topN++
		return
	}
	for i := 0; i < q.nr; i++ {
		if r := &q.rungs[i]; t >= r.lo {
			b := &r.b[(t-r.start)>>r.shift]
			e.next, *b = *b, e
			return
		}
	}
	q.botInsert(e)
	if q.botN > ladderThres && q.bot.t != q.botTail.t && q.nr < ladderRungs &&
		(q.nr == 0 || q.bot.t >= q.rungs[q.nr-1].start) {
		l, n, lo, hi, p := q.bot, q.botN, q.bot.t, q.botTail.t, q.nr-1
		q.bot, q.botTail, q.botN = nil, nil, 0
		q.floor(p, q.spread(l, n, lo, hi))
	}
}

// botInsert chains e into the bottom in (t, seq) order. The tail and
// head fast paths cover the common cases (a later event; a same-time
// run in either seq order) in O(1).
func (q *ladderQueue) botInsert(e *event) {
	q.botN++
	switch {
	case q.bot == nil:
		e.next = nil
		q.bot, q.botTail = e, e
	case q.botTail.before(e):
		e.next = nil
		q.botTail.next, q.botTail = e, e
	case e.before(q.bot):
		e.next, q.bot = q.bot, e
	default:
		cur := q.bot
		for cur.next.before(e) {
			cur = cur.next
		}
		e.next, cur.next = cur.next, e
	}
}

func (q *ladderQueue) peek() *event {
	for q.bot == nil && q.n > 0 {
		q.refill()
	}
	return q.bot
}

func (q *ladderQueue) pop() *event {
	e := q.peek()
	if e == nil {
		return nil
	}
	if q.bot = e.next; q.bot == nil {
		q.botTail = nil
	}
	e.next = nil
	q.botN--
	q.n--
	return e
}

// refill moves the earliest list down a tier: the whole top when there
// are no rungs, else the lowest rung's next non-empty bucket. A rung
// whose buckets are all spent retires.
func (q *ladderQueue) refill() {
	if q.nr == 0 {
		l, n := q.top, q.topN
		q.top, q.topN = nil, 0
		q.topStart = q.spread(l, n, q.topMin, q.topMax)
		return
	}
	p := q.nr - 1
	r := &q.rungs[p]
	for r.cur < len(r.b) && r.b[r.cur] == nil {
		r.cur++
	}
	if r.cur == len(r.b) {
		q.nr--
		return
	}
	l := r.b[r.cur]
	r.b[r.cur] = nil
	n, lo, hi := 0, l.t, l.t
	for e := l; e != nil; e = e.next {
		n++
		lo, hi = min(lo, e.t), max(hi, e.t)
	}
	r.cur++
	r.lo = r.start + Time(r.cur)<<r.shift
	q.floor(p, q.spread(l, n, lo, hi))
}

// spread empties list l (n events, timestamps lo..hi) into a new tier
// below the one it left and returns where the new tier ends: a rung of
// about n buckets when l is long, holds more than one timestamp and the
// ladder has room, else the sorted bottom (empty whenever this runs).
func (q *ladderQueue) spread(l *event, n int, lo, hi Time) Time {
	if n <= ladderThres || lo == hi || q.nr == ladderRungs {
		for l != nil {
			e := l
			l = e.next
			q.botInsert(e)
		}
		return hi + 1
	}
	var shift uint
	if w := (hi - lo) / Time(n); w > 1 {
		shift = uint(bits.Len64(uint64(w)) - 1)
	}
	nb := int((hi-lo)>>shift) + 1
	r := &q.rungs[q.nr]
	q.nr++
	if cap(r.b) < nb {
		r.b = make([]*event, nb)
	}
	r.b, r.start, r.shift, r.cur, r.lo = r.b[:nb], lo, shift, 0, lo
	for l != nil {
		e := l
		l = e.next
		b := &r.b[(e.t-lo)>>shift]
		e.next, *b = *b, e
	}
	return lo + Time(nb)<<shift
}

// floor lowers the floor of tier p (a rung, or the top when p < 0) to
// t, the end of the tier spawned below it, so that every push at or
// after t lands in p, whose buckets cover it. Buckets between the new
// and the old cur are empty: they were spent.
func (q *ladderQueue) floor(p int, t Time) {
	if p < 0 {
		q.topStart = min(q.topStart, t)
		return
	}
	if r := &q.rungs[p]; t < r.lo {
		r.lo, r.cur = t, int((t-r.start)>>r.shift)
	}
}
