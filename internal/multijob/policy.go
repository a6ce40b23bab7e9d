package multijob

import (
	"sort"

	"iswitch/internal/protocol"
)

// Admission policies. The scheduler delegates two decisions to a
// pluggable Policy: in what order queued jobs are offered the freed
// SRAM (Order), and which running tenants may be checkpointed out of
// the switches to make room for a job that does not fit (Victims).
// FIFO — the historical behavior — is the zero-config default and is
// pinned bit-identical by the equivalence tests.

// JobInfo is the scheduler's read-only view of a job for policy
// decisions.
type JobInfo struct {
	ID   protocol.JobID
	Name string
	// Arrival is the submission index (spec order), the FIFO key.
	Arrival int
	// Weight is the job's fair share (<= 0 counts as 1).
	Weight float64
	// Priority orders jobs under the priority policy (higher wins).
	Priority int
	// DemandBytes is the per-switch SRAM the job reserves.
	DemandBytes int64
	// Bypassed counts how many times a later-arriving job was admitted
	// while this one stayed queued (the starvation signal).
	Bypassed int
	// Preemptible marks jobs that consented to checkpoint/restore.
	Preemptible bool
	// Preempted marks queued jobs holding a checkpoint awaiting
	// restore (they re-enter through RestoreJob, not AdmitJob).
	Preempted bool
}

// Policy decides admission order and preemption victims.
type Policy interface {
	// Name labels the policy in reports and bench tables.
	Name() string
	// Order returns indices into queue in the order admission should be
	// attempted this pass. Returning a prefix (fewer indices than
	// queued jobs) hard-blocks the rest of the queue this pass.
	Order(queue []JobInfo) []int
	// Victims nominates running jobs the scheduler may preempt to make
	// room for cand, best victim first. The scheduler preempts the
	// shortest prefix that actually frees enough SRAM, and only when
	// that prediction says cand then fits. Nil means never preempt.
	Victims(cand JobInfo, running []JobInfo) []protocol.JobID
	// Strict reports head-of-line blocking: when true, the first job in
	// Order that fails admission ends the pass (no backfilling).
	Strict() bool
}

// weightOr1 treats unset weights as 1 so unweighted specs share
// equally under the weighted-fair policy.
func weightOr1(w float64) float64 {
	if w <= 0 {
		return 1
	}
	return w
}

// fifo is the historical strict-FIFO admission order.
type fifo struct{}

// FIFO returns the default policy: strictly first-come-first-served,
// head-of-line blocking, never preempting. A large job is never
// starved by small latecomers, at the cost of idling SRAM behind a
// blocked head.
func FIFO() Policy { return fifo{} }

func (fifo) Name() string { return "fifo" }

func (fifo) Order(queue []JobInfo) []int {
	order := make([]int, len(queue))
	for i := range order {
		order[i] = i
	}
	return order
}

func (fifo) Victims(JobInfo, []JobInfo) []protocol.JobID { return nil }

func (fifo) Strict() bool { return true }

// weightedFair backfills in credit order, with an anti-starvation
// bypass bound.
type weightedFair struct {
	maxBypass int
	credit    map[protocol.JobID]float64
}

// WeightedFair returns a backfilling policy: each admission pass every
// queued job earns credit proportional to its weight and jobs are
// offered SRAM in credit order, so small jobs start in the gaps a
// blocked large job leaves. Starvation is bounded: a job bypassed
// maxBypass times (<= 0 selects 8) hard-blocks the queue until it
// starts, and the running preemptible tenants that arrived after it
// become eviction candidates (lightest weight first) to force the
// issue.
func WeightedFair(maxBypass int) Policy {
	if maxBypass <= 0 {
		maxBypass = 8
	}
	return &weightedFair{maxBypass: maxBypass, credit: make(map[protocol.JobID]float64)}
}

func (w *weightedFair) Name() string { return "weighted-fair" }

func (w *weightedFair) Order(queue []JobInfo) []int {
	// A starved job freezes the queue: it alone may be tried until it
	// fits (its Victims call can preempt to make that happen).
	for i, j := range queue {
		if j.Bypassed >= w.maxBypass {
			return []int{i}
		}
	}
	order := make([]int, len(queue))
	for i, j := range queue {
		order[i] = i
		w.credit[j.ID] += weightOr1(j.Weight)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := w.credit[queue[order[a]].ID], w.credit[queue[order[b]].ID]
		if ca != cb {
			return ca > cb
		}
		return queue[order[a]].Arrival < queue[order[b]].Arrival
	})
	return order
}

func (w *weightedFair) Victims(cand JobInfo, running []JobInfo) []protocol.JobID {
	if cand.Bypassed < w.maxBypass {
		return nil // preemption is the anti-starvation backstop only
	}
	// Only tenants that arrived after the starved job may go: evicting an
	// earlier arrival starves it in turn, and two starved jobs then evict
	// each other forever without the clock moving.
	later := make([]JobInfo, 0, len(running))
	for _, r := range running {
		if r.Arrival > cand.Arrival {
			later = append(later, r)
		}
	}
	return victimsBy(later, func(a, b JobInfo) bool {
		wa, wb := weightOr1(a.Weight), weightOr1(b.Weight)
		if wa != wb {
			return wa < wb // evict the lightest share first
		}
		return a.Arrival > b.Arrival // then the latest arrival
	})
}

func (w *weightedFair) Strict() bool { return false }

// priorityPreempt runs strictly by priority and preempts lower-
// priority preemptible tenants to admit a higher-priority job.
type priorityPreempt struct{}

// PriorityPreempt returns the priority policy: the queue is ordered by
// descending JobSpec.Priority (FIFO within a priority), head-of-line
// blocking within that order, and a job that does not fit may
// checkpoint out running preemptible tenants of strictly lower
// priority (lowest first). Equal or higher priorities are never
// victims, so the policy cannot livelock two jobs preempting each
// other.
func PriorityPreempt() Policy { return priorityPreempt{} }

func (priorityPreempt) Name() string { return "priority" }

func (priorityPreempt) Order(queue []JobInfo) []int {
	order := make([]int, len(queue))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := queue[order[a]].Priority, queue[order[b]].Priority
		if pa != pb {
			return pa > pb
		}
		return queue[order[a]].Arrival < queue[order[b]].Arrival
	})
	return order
}

func (priorityPreempt) Victims(cand JobInfo, running []JobInfo) []protocol.JobID {
	lower := make([]JobInfo, 0, len(running))
	for _, r := range running {
		if r.Priority < cand.Priority {
			lower = append(lower, r)
		}
	}
	return victimsBy(lower, func(a, b JobInfo) bool {
		if a.Priority != b.Priority {
			return a.Priority < b.Priority // evict the lowest priority first
		}
		return a.Arrival > b.Arrival
	})
}

func (priorityPreempt) Strict() bool { return true }

// victimsBy filters running jobs to the preemptible ones and sorts
// them by the given preference.
func victimsBy(running []JobInfo, less func(a, b JobInfo) bool) []protocol.JobID {
	cands := make([]JobInfo, 0, len(running))
	for _, r := range running {
		if r.Preemptible {
			cands = append(cands, r)
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return less(cands[a], cands[b]) })
	out := make([]protocol.JobID, len(cands))
	for i, c := range cands {
		out[i] = c.ID
	}
	return out
}
