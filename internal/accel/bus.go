package accel

import "time"

// SharedBus models contention on the accelerator's single 256-bit
// internal bus when several jobs' packet bursts interleave. Within one
// job the existing per-packet cycle cost already accounts for the
// pipelined burst stream (the input arbiter serializes one job's
// packets back-to-back, which is what packetLatency charges); what a
// single-tenant model cannot see is a *different* job's burst train
// occupying the adders when a packet arrives. SharedBus keeps one
// busy-horizon per job: a packet must wait until every other job's
// horizon has passed, then occupies the bus for its own datapath time.
//
// With a single active job the cross-job horizon is always in the
// past, so Charge degenerates to the uncontended latency — the
// single-job timing-equivalence guarantee falls out by construction.
//
// Charge costs O(1) however many jobs share the bus: besides every
// job's horizon the bus keeps the largest one (top, owned by lead) and
// the largest of every other job (next). A packet of lead waits for
// next, any other packet for top. A maximum does not depend on the
// order jobs are visited in, so this times every packet exactly as a
// scan of all horizons would.
type SharedBus struct {
	// horizon is each job's busy horizon, indexed by job ID; a job that
	// never charged, or was forgotten, reads 0.
	horizon   []time.Duration
	lead      uint16
	top, next time.Duration

	// Bursts counts packets charged; Contended counts those that had
	// to wait behind another job; WaitTime accumulates that waiting.
	Bursts    uint64
	Contended uint64
	WaitTime  time.Duration
}

// NewSharedBus creates an idle bus.
func NewSharedBus() *SharedBus { return &SharedBus{} }

// Charge runs one packet of the given job through the bus at virtual
// time now, occupying it for d (the packet's uncontended datapath
// time). It returns the packet's total latency: queueing behind other
// jobs' bursts plus d.
func (b *SharedBus) Charge(now time.Duration, job uint16, d time.Duration) time.Duration {
	busy := b.top
	if job == b.lead {
		busy = b.next
	}
	start := max(now, busy)
	finish := start + d
	b.Admit(job)
	if finish > b.horizon[job] {
		b.horizon[job] = finish
		switch {
		case job == b.lead:
			b.top = finish
		case finish > b.top:
			b.lead, b.top, b.next = job, finish, b.top
		case finish > b.next:
			b.next = finish
		}
	}
	b.Bursts++
	if start > now {
		b.Contended++
		b.WaitTime += start - now
	}
	return finish - now
}

// Admit makes room for a job's horizon, so its packets charge without
// allocating. A switch calls it when it admits the job; Charge makes
// room for a job it meets unadmitted (the default job). A forgotten
// job keeps its room.
func (b *SharedBus) Admit(job uint16) {
	if int(job) >= len(b.horizon) {
		b.grow(job)
	}
}

// grow widens the horizon slice to index job, at least doubling it so
// a bus that meets its jobs in ascending order reallocates O(log n)
// times.
func (b *SharedBus) grow(job uint16) {
	h := make([]time.Duration, max(int(job)+1, 2*len(b.horizon)))
	copy(h, b.horizon)
	b.horizon = h
}

// Forget drops a departed job's horizon and finds the leading pair
// again: O(jobs), but it runs only when a job leaves the switch.
func (b *SharedBus) Forget(job uint16) {
	if int(job) >= len(b.horizon) {
		return
	}
	b.horizon[job] = 0
	b.lead, b.top, b.next = 0, 0, 0
	for j, h := range b.horizon {
		if h > b.top {
			b.lead, b.top, b.next = uint16(j), h, b.top
		} else if h > b.next {
			b.next = h
		}
	}
}

// HorizonOf reports a job's busy horizon (tests).
func (b *SharedBus) HorizonOf(job uint16) time.Duration {
	if int(job) < len(b.horizon) {
		return b.horizon[job]
	}
	return 0
}
