package switchnet

import (
	"testing"
	"time"

	"iswitch/internal/accel"
	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// joinJob sends a job-tagged Join from host h and waits for the Ack.
func joinJob(p *sim.Proc, h *netsim.Host, swAddr protocol.Addr, job protocol.JobID, modelFloats uint64, t *testing.T) {
	pkt := protocol.NewControl(h.Addr, swAddr, protocol.ActionJoin, protocol.JoinValue(modelFloats))
	pkt.Job = job
	h.Send(pkt)
	ack := h.Recv(p)
	if !ack.IsControl() || ack.Action != protocol.ActionAck || ack.Value[0] != 1 {
		t.Errorf("worker %v job %d: bad join ack %+v", h.Addr, job, ack)
	}
	if ack.Job != job {
		t.Errorf("worker %v: join ack carries job %d, want %d", h.Addr, ack.Job, job)
	}
}

// Three jobs share one switch; their packets interleave in time, and
// every job must still see exactly its own aggregate. This is the core
// isolation guarantee: per-job contexts mean job A's contributions can
// never land in job B's segment buffers, and an unadmitted job's
// packets are dropped rather than aggregated anywhere.
func TestCrossJobIsolationInterleaved(t *testing.T) {
	k := sim.NewKernel()
	pool := accel.NewSRAMPool(0, accel.PartitionDemand, 0)
	bus := accel.NewSharedBus()
	c := BuildStar(k, 6, testLink())
	c.IS.SetTenancy(pool, bus)

	const n = 4
	for job := protocol.JobID(1); job <= 3; job++ {
		if err := c.IS.AdmitJob(job, n); err != nil {
			t.Fatalf("admit job %d: %v", job, err)
		}
	}
	if c.IS.AdmitJob(2, n) != nil {
		t.Fatal("re-admitting an admitted job should be a no-op")
	}
	if pool.Jobs() != 3 {
		t.Fatalf("pool jobs = %d", pool.Jobs())
	}

	results := make([]*protocol.Packet, 6)
	for i, w := range c.Workers {
		i, w := i, w
		job := protocol.JobID(i/2 + 1) // workers {0,1}→job 1, {2,3}→2, {4,5}→3
		k.Spawn("worker", func(p *sim.Proc) {
			if i == 0 {
				// An unadmitted job gets a control refusal and its data
				// silently dropped — never aggregated.
				bad := protocol.NewControl(w.Addr, c.IS.Addr(), protocol.ActionJoin, protocol.JoinValue(n))
				bad.Job = 9
				w.Send(bad)
				if ack := w.Recv(p); ack.Value[0] != 0 || ack.Job != 9 {
					t.Errorf("unadmitted join ack = %+v, want refusal", ack)
				}
				stray := protocol.NewData(w.Addr, c.IS.Addr(), 0, []float32{100, 100, 100, 100})
				stray.Job = 9
				w.Send(stray)
			}
			joinJob(p, w, c.IS.Addr(), job, n, t)
			// Stagger sends so the three jobs' bursts interleave on the
			// shared datapath rather than arriving in job-sorted blocks.
			p.Sleep(time.Millisecond + time.Duration(i%2)*700*time.Microsecond +
				time.Duration((i*5)%3)*150*time.Microsecond)
			v := float32(job) * float32(i%2+1)
			pkt := protocol.NewData(w.Addr, c.IS.Addr(), 0, []float32{v, v, v, v})
			pkt.Job = job
			w.Send(pkt)
			for {
				got := w.Recv(p)
				if got.IsData() {
					results[i] = got
					return
				}
			}
		})
	}
	k.Run()

	for i, got := range results {
		job := protocol.JobID(i/2 + 1)
		if got == nil {
			t.Fatalf("worker %d (job %d) got no aggregate", i, job)
		}
		if got.Job != job {
			t.Fatalf("worker %d received job %d's broadcast, want %d", i, got.Job, job)
		}
		want := float32(job) * 3 // contributions 1v + 2v with v = job
		for e, x := range got.Data {
			if x != want {
				t.Fatalf("worker %d elem %d = %v, want %v (cross-job bleed?)", i, e, x, want)
			}
		}
	}
	if c.IS.UnknownJobDrops < 2 { // refused control + dropped data
		t.Fatalf("UnknownJobDrops = %d, want >= 2", c.IS.UnknownJobDrops)
	}
	for job := protocol.JobID(1); job <= 3; job++ {
		if got := c.IS.MembershipOf(job).Count(); got != 2 {
			t.Fatalf("job %d members = %d", job, got)
		}
		if c.IS.AcceleratorOf(job).Pending() != 0 {
			t.Fatalf("job %d left partial segments", job)
		}
	}
	if bus.Bursts != 6 {
		t.Fatalf("bus charged %d bursts, want 6 (one per admitted data packet)", bus.Bursts)
	}

	// Eviction releases the job's SRAM and drops its context; the freed
	// space is reusable and the evicted job's packets are now refused.
	if !c.IS.EvictJob(2) || c.IS.EvictJob(2) {
		t.Fatal("evict not idempotent-correct")
	}
	if pool.Jobs() != 2 || c.IS.AcceleratorOf(2) != nil {
		t.Fatalf("evict left state: pool jobs=%d", pool.Jobs())
	}
	if err := c.IS.AdmitJob(2, uint64(pool.Free())); err == nil {
		t.Fatal("over-demand re-admission accepted") // demand = floats*4 > free
	}
	if err := c.IS.AdmitJob(2, n); err != nil {
		t.Fatalf("re-admission after evict: %v", err)
	}
	if c.IS.EvictJob(protocol.DefaultJob) {
		t.Fatal("default job must not be evictable")
	}
}

// Satellite audit: a duplicate Join from an already-registered address
// must refresh the member's row without disturbing the member count or
// the aggregation threshold — in auto-H mode (H tracks membership) and
// after an explicit SetH override alike. A dup Join that bumped H would
// deadlock every in-flight round.
func TestDuplicateJoinKeepsThresholdStable(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 3, testLink())
	w0 := c.Workers[0]
	k.Spawn("ctl", func(p *sim.Proc) {
		for _, w := range c.Workers {
			join(p, w, c.IS.Addr(), 10, t)
		}
		if h := c.IS.Accelerator().Threshold(); h != 3 {
			t.Errorf("auto H = %d after 3 joins", h)
		}
		// Dup join in auto-H mode: count and H stay put, row refreshed.
		join(p, w0, c.IS.Addr(), 999, t)
		if got := c.IS.Membership().Count(); got != 3 {
			t.Errorf("dup join changed count to %d", got)
		}
		if h := c.IS.Accelerator().Threshold(); h != 3 {
			t.Errorf("dup join moved auto H to %d", h)
		}
		if e, ok := c.IS.Membership().Lookup(w0.Addr); !ok || e.ModelFloats != 999 {
			t.Errorf("dup join did not refresh row: %+v %v", e, ok)
		}
		// Dup join after a SetH override: the pinned H must survive.
		w0.Send(protocol.NewControl(w0.Addr, c.IS.Addr(), protocol.ActionSetH, protocol.SetHValue(2)))
		if ack := w0.Recv(p); ack.Value[0] != 1 {
			t.Errorf("SetH nack: %+v", ack)
		}
		join(p, w0, c.IS.Addr(), 10, t)
		if h := c.IS.Accelerator().Threshold(); h != 2 {
			t.Errorf("dup join after SetH re-auto'd H to %d", h)
		}
	})
	k.Run()
}

func threeTierTestCluster(k *sim.Kernel) *Fabric {
	link := testLink()
	return BuildThreeTier(k, 2, 2, 2, link, link, link)
}

// Satellite: Help recovery on the three-tier hierarchy. After a full
// global round, every ToR holds the broadcast aggregate in its emission
// cache, so a worker that lost its copy is answered directly by its ToR
// (no relay storm up the fabric).
func TestThreeTierHelpServedFromToRCache(t *testing.T) {
	k := sim.NewKernel()
	c := threeTierTestCluster(k)
	const n = 4
	var recovered *protocol.Packet
	for i, w := range c.Workers {
		i, w := i, w
		tor := c.Leaf(i)
		k.Spawn("worker", func(p *sim.Proc) {
			join(p, w, tor.Addr(), n, t)
			p.Sleep(time.Millisecond)
			v := float32(i + 1)
			w.Send(protocol.NewData(w.Addr, tor.Addr(), 0, []float32{v, v, v, v}))
			for {
				pkt := w.Recv(p)
				if pkt.IsData() {
					if pkt.Data[0] != 36 { // 1+2+...+8
						t.Errorf("worker %d aggregate = %v, want 36", i, pkt.Data[0])
					}
					break
				}
			}
			if i == 0 {
				// Pretend the broadcast was lost and ask the ToR again.
				w.Send(protocol.NewControl(w.Addr, tor.Addr(), protocol.ActionHelp, protocol.HelpValue(0)))
				for {
					pkt, ok := w.RecvTimeout(p, 10*time.Millisecond)
					if !ok {
						return
					}
					if pkt.IsData() {
						recovered = pkt
						return
					}
				}
			}
		})
	}
	k.Run()
	if recovered == nil || recovered.Data[0] != 36 {
		t.Fatalf("Help not re-served from ToR cache: %+v", recovered)
	}
	if c.Leaf(0).HelpServed != 1 || c.Leaf(0).HelpRelayed != 0 {
		t.Fatalf("ToR0 served=%d relayed=%d, want cache hit without relay",
			c.Leaf(0).HelpServed, c.Leaf(0).HelpRelayed)
	}
}

// Satellite: a Help for a segment the ToR has NOT emitted is relayed to
// the requester's rack peers only — recovery stays rack-local.
func TestThreeTierHelpRelayStaysInRack(t *testing.T) {
	k := sim.NewKernel()
	c := threeTierTestCluster(k)
	gotHelp := make([]bool, len(c.Workers))
	for i, w := range c.Workers {
		i, w := i, w
		tor := c.Leaf(i)
		k.Spawn("worker", func(p *sim.Proc) {
			join(p, w, tor.Addr(), 16, t)
			if i == 0 {
				p.Sleep(time.Millisecond)
				w.Send(protocol.NewControl(w.Addr, tor.Addr(), protocol.ActionHelp, protocol.HelpValue(2)))
				return
			}
			for {
				pkt, ok := w.RecvTimeout(p, 10*time.Millisecond)
				if !ok {
					return
				}
				if pkt.IsControl() && pkt.Action == protocol.ActionHelp {
					gotHelp[i] = true
					return
				}
			}
		})
	}
	k.Run()
	if !gotHelp[1] {
		t.Fatal("rack peer did not receive the relayed Help")
	}
	for i := 2; i < len(gotHelp); i++ {
		if gotHelp[i] {
			t.Fatalf("worker %d outside rack 0 received the Help", i)
		}
	}
	if c.Leaf(0).HelpRelayed != 1 {
		t.Fatalf("ToR0 HelpRelayed = %d", c.Leaf(0).HelpRelayed)
	}
}

// Satellite: Halt addressed to the core is relayed down the whole
// hierarchy — core→AGGs→ToRs→workers — reaching all eight workers.
func TestThreeTierHaltRelaysDownHierarchy(t *testing.T) {
	k := sim.NewKernel()
	c := threeTierTestCluster(k)
	halted := make([]bool, len(c.Workers))
	for i, w := range c.Workers {
		i, w := i, w
		tor := c.Leaf(i)
		k.Spawn("worker", func(p *sim.Proc) {
			join(p, w, tor.Addr(), 16, t)
			if i == 0 {
				p.Sleep(time.Millisecond)
				w.Send(protocol.NewControl(w.Addr, RootAddr(), protocol.ActionHalt, nil))
			}
			for {
				pkt, ok := w.RecvTimeout(p, 20*time.Millisecond)
				if !ok {
					return
				}
				if pkt.IsControl() && pkt.Action == protocol.ActionHalt {
					halted[i] = true
					return
				}
			}
		})
	}
	k.Run()
	for i, h := range halted {
		if !h {
			t.Fatalf("worker %d never received the relayed Halt (reached %v)", i, halted)
		}
	}
}
