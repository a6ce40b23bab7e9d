package multijob

import (
	"testing"
	"time"

	"iswitch/internal/accel"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// FuzzScheduler feeds randomized job mixes — policies, partitions,
// weights, priorities, staggered arrivals, preemptible and async jobs
// — through a real simulated fabric and checks the scheduler's
// invariants against what amounts to a reference reservation model:
//
//   - no SRAM leak: every pool ends with zero contexts and zero bytes
//     (pool bookkeeping is exact across admit/preempt/restore/evict);
//   - no double admit / lost job: Run itself errors if a job is ever
//     admitted twice (Reserve rejects the duplicate and the job
//     deadlocks) or never admitted;
//   - no permanent starvation: every feasible job finishes, queued or
//     not, and sync jobs complete exactly their iteration count.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0x00, 0x10, 0x21, 0x05})
	f.Add([]byte{1, 0, 1, 3, 0x13, 0x02, 0xff, 0x30, 0x44, 0x01})
	f.Add([]byte{2, 1, 0, 3, 0x81, 0x92, 0x00, 0x07, 0xa3, 0x55})
	f.Add([]byte{1, 1, 2, 4, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		wl, err := perfmodel.WorkloadByName("PPO")
		if err != nil {
			t.Fatal(err)
		}
		var policy Policy
		switch data[0] % 3 {
		case 1:
			policy = WeightedFair(2) // tight bypass bound: force the starvation path
		case 2:
			policy = PriorityPreempt()
		}
		partition := accel.PartitionDemand
		if data[1]%2 == 1 {
			partition = accel.PartitionStatic
		}
		// Pool sizes chosen around the demand of the largest model below
		// so admission, queueing and rejection all get exercised.
		demand := accel.ContextDemand(1200, protocol.FloatsPerPacket)
		pools := []int64{demand + demand/2, 3 * demand, accel.DefaultSRAMBytes}
		sram := pools[int(data[2])%len(pools)]

		nJobs := 1 + int(data[3])%4
		if len(data) < 4+nJobs {
			t.Skip()
		}
		floatsChoices := []int{300, 500, 800, 1200}
		var specs []JobSpec
		hosts := 0
		for j := 0; j < nJobs; j++ {
			b := data[4+j]
			spec := JobSpec{
				Workload:    wl,
				Workers:     1 + int(b>>7),              // 1..2
				ModelFloats: floatsChoices[int(b>>5)&3], // 300..1200
				Iterations:  1 + int(b>>4)&1,            // 1..2
				Weight:      float64(int(b>>2)&3) / 2,   // 0, .5, 1, 1.5
				Priority:    int(b >> 6),
			}
			switch b & 3 {
			case 1:
				spec.Mode, spec.Iterations = ModeAsync, 0 // an async job's length is Updates
				spec.Updates, spec.StalenessBound = 2, 1
			case 2:
				spec.Preemptible = true
				spec.RecoveryTimeout = 3 * time.Millisecond
			case 3:
				spec.SubmitAt = time.Duration(1+int(b>>3)&3) * 5 * time.Millisecond
			}
			hosts += spec.Workers
			specs = append(specs, spec)
		}

		k := sim.NewKernel()
		fab := NewStarFabric(k, hosts, testLink(), FabricConfig{
			SRAMBytes: sram, Policy: partition, MaxJobs: 2, Admission: policy,
		})
		res, err := Run(fab, specs)
		if err != nil {
			t.Fatalf("scheduler invariant broken (deadlock/double-admit/lost job): %v", err)
		}
		for i, r := range res {
			if r.Rejected {
				if r.Started != 0 || r.Finished != 0 {
					t.Fatalf("job %d rejected but ran: %+v", i, r)
				}
				continue
			}
			if r.Finished == 0 {
				t.Fatalf("job %d never finished (starved): %+v", i, r)
			}
			want := int64(specs[i].Iterations)
			if specs[i].Mode == ModeAsync {
				want = specs[i].Updates
			}
			if r.Rounds != want {
				t.Fatalf("job %d completed %d rounds, want %d", i, r.Rounds, want)
			}
		}
		for _, is := range fab.Switches {
			pool := is.SRAMPool()
			if pool == nil {
				continue
			}
			if pool.Jobs() != 0 || pool.Used() != 0 {
				t.Fatalf("SRAM leak: %d contexts, %d bytes still reserved", pool.Jobs(), pool.Used())
			}
		}
	})
}
