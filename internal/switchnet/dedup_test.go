package switchnet

import (
	"testing"

	"iswitch/internal/engine"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

func TestForceThresholdPinsH(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 4, testLink())
	if err := c.IS.ForceThreshold(2); err != nil {
		t.Fatal(err)
	}
	// Joins must no longer re-auto the threshold.
	for _, w := range c.Workers {
		h := w
		k.Spawn("join", func(p *sim.Proc) { join(p, h, c.IS.Addr(), 10, t) })
	}
	k.Run()
	if got := c.IS.Accelerator().Threshold(); got != 2 {
		t.Fatalf("H = %d after joins, want pinned 2", got)
	}
	if err := c.IS.ForceThreshold(0); err == nil {
		t.Fatal("H=0 accepted")
	}
}

func TestDedupDropsDuplicateContribution(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 2, testLink())
	c.IS.SetDedup(true)
	if !c.IS.Accelerator().Dedup() {
		t.Fatal("dedup not enabled")
	}
	acc := c.IS.Accelerator()
	_ = acc.SetThreshold(2)

	// Same contributor twice: second ingest must not advance the count.
	if _, done, _ := acc.IngestFrom(0, "w1", []float32{5}); done {
		t.Fatal("emitted after one contribution")
	}
	if _, done, _ := acc.IngestFrom(0, "w1", []float32{5}); done {
		t.Fatal("duplicate advanced the counter")
	}
	if acc.Stats().DupDropped != 1 {
		t.Fatalf("dup dropped = %d", acc.Stats().DupDropped)
	}
	sum, done, _ := acc.IngestFrom(0, "w2", []float32{7})
	if !done || sum[0] != 12 {
		t.Fatalf("sum = %v done = %v (w1's duplicate double-counted?)", sum, done)
	}
	// The bitmap clears with the emission: a new round accepts w1 again.
	if _, done, _ := acc.IngestFrom(0, "w1", []float32{1}); done {
		t.Fatal("stale bitmap blocked a new round")
	}
}

func TestDedupOffAllowsRepeatContributions(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 2, testLink())
	acc := c.IS.Accelerator() // dedup defaults off (async semantics)
	_ = acc.SetThreshold(2)
	acc.IngestFrom(0, "fast-worker", []float32{1})
	sum, done, _ := acc.IngestFrom(0, "fast-worker", []float32{2})
	if !done || sum[0] != 3 {
		t.Fatalf("async-style double contribution rejected: %v %v", sum, done)
	}
}

// The dedup bitmap names a contributor by its address string. Rendering
// it costs a Sprintf, so it happens once, at Join; data frames and
// targeted Helps look it up, and a preemption keeps it.
func TestContributorKeyRenderedAtJoin(t *testing.T) {
	k := sim.NewKernel()
	c := BuildStar(k, 2, testLink())
	is := c.IS
	is.SetDedup(true)
	for _, h := range c.Workers {
		h.Send(protocol.NewControl(h.Addr, is.Addr(), protocol.ActionJoin, protocol.JoinValue(4)))
	}
	k.Run()
	mem := is.Membership()
	for i, m := range mem.Members() {
		if want := c.Workers[i].Addr.String(); m.Key != want || mem.KeyOf(m.Addr) != want {
			t.Fatalf("member %d: Key %q, KeyOf %q, want %q", i, m.Key, mem.KeyOf(m.Addr), want)
		}
	}
	stranger := protocol.AddrFrom(10, 9, 9, 9, 1)
	if got := mem.KeyOf(stranger); got != stranger.String() {
		t.Fatalf("KeyOf(non-member) = %q, want %q", got, stranger.String())
	}

	// One worker's frame: the bitmap knows it by the membership key.
	w0, w1 := mem.Members()[0], mem.Members()[1]
	c.Workers[0].Send(protocol.NewData(w0.Addr, is.Addr(), 0, []float32{1, 2, 3, 4}))
	k.Run()
	acc := is.Accelerator()
	if !acc.Seen(0, w0.Key) || acc.Seen(0, w1.Key) || acc.Seen(1, w0.Key) {
		t.Fatalf("after worker 0's frame: Seen(0,w0)=%v Seen(0,w1)=%v Seen(1,w0)=%v; want true false false",
			acc.Seen(0, w0.Key), acc.Seen(0, w1.Key), acc.Seen(1, w0.Key))
	}

	// The key survives a preemption.
	if err := is.AdmitJob(1, 4); err != nil {
		t.Fatal(err)
	}
	is.MembershipOf(1).Join(w0.Addr, engine.MemberWorker, 0, 4)
	cp, err := is.PreemptJob(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := is.RestoreJob(cp); err != nil {
		t.Fatal(err)
	}
	if got := is.MembershipOf(1).Members()[0].Key; got != w0.Key {
		t.Fatalf("restored member's Key = %q, want %q", got, w0.Key)
	}
}
