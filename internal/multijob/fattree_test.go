package multijob

import (
	"fmt"
	"testing"
	"time"

	"iswitch/internal/netsim"
	"iswitch/internal/sim"
)

func fatTreeLinks() (edge, agg, core netsim.LinkConfig) {
	edge = testLink()
	agg = netsim.LinkConfig{BitsPerSecond: 32e9, Propagation: 4 * time.Microsecond}
	core = netsim.LinkConfig{BitsPerSecond: 64e9, Propagation: 6 * time.Microsecond}
	return
}

// TestFatTreeFabricSmall runs two jobs on a k=4 fat-tree and checks the
// spine aggregation hierarchy works end to end under tenancy.
func TestFatTreeFabricSmall(t *testing.T) {
	wl := ppoWorkload(t)
	edge, aggL, coreL := fatTreeLinks()
	k := sim.NewKernel()
	f := NewFatTreeFabric(k, 4, 2, edge, aggL, coreL, FabricConfig{})
	if len(f.Hosts) != 16 {
		t.Fatalf("k=4 fat-tree with 2 hosts/edge has %d hosts, want 16", len(f.Hosts))
	}
	res, err := Run(f, []JobSpec{
		{Workload: wl, Workers: 8, Iterations: 2, ModelFloats: 500},
		{Workload: wl, Workers: 8, Iterations: 2, ModelFloats: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Rejected || r.Rounds != 2 {
			t.Fatalf("job %d: rejected=%v rounds=%d, want 2 rounds", i, r.Rejected, r.Rounds)
		}
	}
	for _, is := range f.Switches {
		if got := is.SRAMPool().Jobs(); got != 0 {
			t.Fatalf("switch %v still holds %d job contexts after the run", is.Addr(), got)
		}
	}
}

// TestFatTreeRackscale64Jobs is the tentpole scenario: a k=8 fat-tree
// with 32 hosts per edge switch (1024 workers) running 64 concurrent
// 16-worker jobs through the multijob scheduler. Before the
// calendar-queue kernel this scale was out of tier-1 reach; the test
// pins both that it completes and that the fabric stays consistent.
func TestFatTreeRackscale64Jobs(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-worker fat-tree scenario skipped in -short")
	}
	wl := ppoWorkload(t)
	edge, aggL, coreL := fatTreeLinks()
	k := sim.NewKernel()
	f := NewFatTreeFabric(k, 8, 32, edge, aggL, coreL, FabricConfig{})
	if len(f.Hosts) != 1024 {
		t.Fatalf("fabric has %d hosts, want 1024", len(f.Hosts))
	}

	const jobs = 64
	specs := make([]JobSpec, jobs)
	for j := range specs {
		specs[j] = JobSpec{
			Name:     fmt.Sprintf("job%02d", j),
			Workload: wl, Workers: 16,
			Iterations: 2, ModelFloats: 400,
		}
	}
	res, err := Run(f, specs)
	if err != nil {
		t.Fatal(err)
	}
	queued := 0
	for i, r := range res {
		if r.Rejected {
			t.Fatalf("job %d rejected; demand-partitioned SRAM should fit all 64", i)
		}
		if r.Rounds != 2 {
			t.Fatalf("job %d completed %d rounds, want 2", i, r.Rounds)
		}
		if r.Queued {
			queued++
		}
	}
	// 64 x 16 = 1024 workers exactly fill the fabric, so every job
	// must have been admitted concurrently, none queued.
	if queued != 0 {
		t.Fatalf("%d jobs queued; all 64 should run concurrently", queued)
	}
	for _, is := range f.Switches {
		if got := is.SRAMPool().Jobs(); got != 0 {
			t.Fatalf("switch %v still holds %d job contexts", is.Addr(), got)
		}
	}
	if k.Procs() != 0 {
		t.Fatalf("%d processes still live after Run+Shutdown", k.Procs())
	}
}
