package sim

import "container/heap"

// heapQueue is the original binary-heap event scheduler, retained as
// the reference implementation: the differential suite and
// FuzzEventQueue pin the ladder queue's pop order byte-identical to it,
// and the hold-model benchmarks measure the ladder's speedup against
// it. It deliberately keeps the seed kernel's allocation behavior — one heap
// allocation per scheduled event (pooled() returns false) — so
// old-vs-new benchmark numbers reflect the seed implementation.
type heapQueue struct {
	q eventQueue
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (h *heapQueue) push(e *event) { heap.Push(&h.q, e) }

func (h *heapQueue) peek() *event {
	if len(h.q) == 0 {
		return nil
	}
	return h.q[0]
}

func (h *heapQueue) pop() *event {
	if len(h.q) == 0 {
		return nil
	}
	return heap.Pop(&h.q).(*event)
}

func (h *heapQueue) len() int { return len(h.q) }

// pooled reports false: the reference scheduler allocates per event,
// exactly like the seed kernel it preserves.
func (h *heapQueue) pooled() bool { return false }
