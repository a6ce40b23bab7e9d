package multijob

import (
	"fmt"
	"time"

	"iswitch/internal/core"
	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
)

// Elastic jobs grow and shrink their worker count mid-run. The job
// admits once with SRAM for its full model (demand does not depend on
// worker count), allocates hosts for its largest phase, and runs each
// phase as a synchronous training segment over a prefix of those
// hosts. Between phases, departing workers Leave the control plane
// (shrinking the switch thresholds) and the per-job switch hierarchy
// is re-wired so parents only wait on subtrees that still hold active
// workers; arriving workers Join through the normal Setup path.

// ElasticPhase is one steady-state interval of an elastic job.
type ElasticPhase struct {
	// Workers is the active worker count for this phase (a prefix of
	// the job's allocated hosts).
	Workers int
	// Iterations is how many synchronous iterations the phase runs.
	Iterations int
}

// ElasticPlan schedules worker-count changes mid-run.
type ElasticPlan struct {
	Phases []ElasticPhase
}

// MaxWorkers returns the largest phase's worker count — the host
// allocation an elastic spec needs.
func (e *ElasticPlan) MaxWorkers() int {
	max := 0
	for _, ph := range e.Phases {
		if ph.Workers > max {
			max = ph.Workers
		}
	}
	return max
}

// AutoscalePlan is the autoscale agent: it derives a deterministic
// elastic schedule a demand-driven autoscaler would produce, flexing
// the worker count between minW and maxW across phases. The walk is
// seeded (splitmix64) so runs reproduce exactly under the DES.
func AutoscalePlan(seed uint64, phases, minW, maxW, itersPerPhase int) *ElasticPlan {
	if minW < 1 {
		minW = 1
	}
	if maxW < minW {
		maxW = minW
	}
	plan := &ElasticPlan{}
	x := seed
	w := minW
	for i := 0; i < phases; i++ {
		// splitmix64 step
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		span := maxW - minW + 1
		// Random walk biased toward staying put: ±1 step or a jump.
		switch z % 4 {
		case 0:
			if w < maxW {
				w++
			}
		case 1:
			if w > minW {
				w--
			}
		case 2:
			w = minW + int((z>>8)%uint64(span))
		}
		plan.Phases = append(plan.Phases, ElasticPhase{Workers: w, Iterations: itersPerPhase})
	}
	return plan
}

// wireEdge is one parent-learns-of-child registration in the per-job
// aggregation hierarchy.
type wireEdge struct {
	parent *switchnet.ISwitch
	child  protocol.Addr
}

// wiringFor collects the registrations the given chains need.
func wiringFor(chains [][]*switchnet.ISwitch) map[wireEdge]bool {
	out := make(map[wireEdge]bool)
	for _, chain := range chains {
		for lvl := 0; lvl+1 < len(chain); lvl++ {
			out[wireEdge{chain[lvl+1], chain[lvl].Addr()}] = true
		}
	}
	return out
}

// startElastic runs the job's phases back to back, reconciling switch
// membership between them.
func (s *scheduler) startElastic(jr *jobRun) {
	spec, job := jr.spec, jr.spec.job()
	agents := job.Agents(spec.Workers, spec.floats()) // persist across phases
	registered := wiringFor(jr.chains)                // admit wired every chain
	prevWorkers := 0

	var runPhase func(ph int)
	runPhase = func(ph int) {
		if ph >= len(spec.Elastic.Phases) {
			s.finish(jr)
			return
		}
		phase := spec.Elastic.Phases[ph]
		n := phase.Workers

		beginPhase := func() {
			// Re-wire parents to exactly the subtrees with active
			// workers (an unregistered empty subtree would otherwise
			// stall every round at its parent's threshold).
			want := wiringFor(jr.chains[:n])
			for e := range want {
				if !registered[e] {
					e.parent.RegisterChildSwitchJob(jr.id, e.child)
					registered[e] = true
				}
			}
			for e := range registered {
				if !want[e] {
					e.parent.UnregisterChildSwitchJob(jr.id, e.child)
					delete(registered, e)
				}
			}
			prevWorkers = n

			cfg := core.DefaultISWConfig()
			cfg.Job = jr.id
			cfg.RecoveryTimeout = spec.RecoveryTimeout
			cluster := core.NewISWOnFabric(jr.hosts[:n], jr.targets[:n], spec.floats(), n, cfg)
			job.Iterations = phase.Iterations
			var stats *core.AsyncStats
			stats = cluster.Spawn(s.f.K, agents[:n], job, func() {
				// Fires when the phase's last worker finishes its final
				// iteration — every IterRecord is in by then.
				jr.elRounds += int64(phase.Iterations)
				jr.elRoundSum += stats.MeanIter() * time.Duration(phase.Iterations)
				jr.elGrad += uint64(phase.Iterations) * uint64(n) * uint64(spec.floats()) * 4
				runPhase(ph + 1)
			})
		}

		if departing := prevWorkers - n; departing > 0 {
			s.leaveAll(jr, jr.hosts[n:prevWorkers], jr.targets[n:prevWorkers], beginPhase)
		} else {
			beginPhase()
		}
	}
	runPhase(0)
}

// leaveAll spawns a Leave handshake for each departing host and calls
// then once every ack has arrived (the fabric is quiescent between
// phases, so the only traffic is these handshakes).
func (s *scheduler) leaveAll(jr *jobRun, hosts []*netsim.Host, targets []protocol.Addr, then func()) {
	remaining := len(hosts)
	if remaining == 0 {
		then()
		return
	}
	for i := range hosts {
		h, target := hosts[i], targets[i]
		s.f.K.Spawn(fmt.Sprintf("elastic-leave-%d", jr.id), func(p *sim.Proc) {
			pkt := protocol.NewControl(h.Addr, target, protocol.ActionLeave, nil)
			pkt.Job = jr.id
			h.Send(pkt)
			for {
				rx := h.Recv(p)
				acked := rx.IsControl() && rx.Action == protocol.ActionAck
				rx.Release()
				if acked {
					break
				}
			}
			if remaining--; remaining == 0 {
				then()
			}
		})
	}
}
