package engine

import (
	"testing"
	"time"

	"iswitch/internal/protocol"
)

// clock is a root engine's driver with a settable clock. It counts the
// data frames and Helps the engine sends and lets go of every frame.
type clock struct {
	now         time.Duration
	data, helps int
}

func (c *clock) Forward(p *protocol.Packet, _ protocol.Addr) {
	switch {
	case p.IsData():
		c.data++
	case p.Action == protocol.ActionHelp:
		c.helps++
	}
	p.Release()
}
func (c *clock) SendUp(p *protocol.Packet)        { p.Release() }
func (c *clock) Now() time.Duration               { return c.now }
func (c *clock) After(_ time.Duration, fn func()) { fn() }

var shadowSelf = protocol.AddrFrom(10, 0, 0, 1, 9990)

func worker(i int) protocol.Addr { return protocol.AddrFrom(10, 0, 1, byte(i+1), 7000) }

// join admits n workers to job on e under scheme, over a floats-long
// model.
func join(e *Engine, job protocol.JobID, n int, scheme protocol.Compression, floats uint64) {
	for i := 0; i < n; i++ {
		j := protocol.NewControl(worker(i), shadowSelf, protocol.ActionJoin, protocol.JoinValueScheme(floats, scheme))
		j.Job = job
		e.Handle(j, false)
	}
}

// contribute sends worker i's contribution to seg in the job's scheme.
func contribute(e *Engine, job protocol.JobID, i int, seg uint64, scheme protocol.Compression, vals []float32) {
	var p *protocol.Packet
	if scheme == protocol.CompInt32Block {
		q := make([]int32, len(vals))
		for k, v := range vals {
			q[k] = int32(v)
		}
		p = protocol.NewQData(worker(i), shadowSelf, seg, q, 0)
	} else {
		p = protocol.NewData(worker(i), shadowSelf, seg, vals)
	}
	p.Job = job
	e.Handle(p, false)
}

func helpFrom(e *Engine, job protocol.JobID, i int, seg uint64) {
	h := protocol.NewHelp(worker(i), shadowSelf, seg)
	h.Job = job
	e.Handle(h, false)
}

// TestLivenessEvictionVisitsEveryMember: two silent members past the
// horizon are both evicted by the one Help that finds them missing, and
// the segment the survivor completed is broadcast. Evicting while
// ranging over Members skipped the member after each evicted one, since
// Leave compacts that slice.
func TestLivenessEvictionVisitsEveryMember(t *testing.T) {
	drv := &clock{}
	e := New(shadowSelf, drv)
	e.SetDedup(true)
	e.SetLivenessHorizon(time.Millisecond)
	join(e, protocol.DefaultJob, 3, protocol.CompNone, 2)
	contribute(e, protocol.DefaultJob, 2, 0, protocol.CompNone, []float32{1, 2})
	drv.now = 10 * time.Millisecond
	helpFrom(e, protocol.DefaultJob, 2, 0)
	if e.Evicted != 2 || e.Membership().Count() != 1 || e.Broadcasts != 1 || drv.data != 1 {
		t.Fatalf("evicted %d, %d members, %d broadcasts (%d data frames); want 2, 1, 1 (1)",
			e.Evicted, e.Membership().Count(), e.Broadcasts, drv.data)
	}
	if drv.helps != 0 {
		t.Fatalf("%d Helps sent to evicted members", drv.helps)
	}
}

// farSeg is a segment index the wire can carry but no model reaches.
const farSeg = uint64(1) << 47

// TestShadowBoundedPastCap: with H = 1, one datagram completes a
// segment at index 2^47. Its emission is not shadowed (the slot array
// does not grow to reach it: accel.TestShadowStoreCapsSlotArray), and a
// Help for it takes the re-gather path. A segment inside the model is
// still shadowed and re-served.
func TestShadowBoundedPastCap(t *testing.T) {
	drv := &clock{}
	e := New(shadowSelf, drv)
	e.SetDedup(true)
	join(e, protocol.DefaultJob, 1, protocol.CompNone, 8)
	contribute(e, protocol.DefaultJob, 0, farSeg, protocol.CompNone, []float32{1, 2})
	contribute(e, protocol.DefaultJob, 0, 3, protocol.CompNone, []float32{3, 4})
	if e.Broadcasts != 2 {
		t.Fatalf("%d broadcasts, want 2", e.Broadcasts)
	}
	if n := e.Shadow().Len(); n != 1 {
		t.Fatalf("shadow holds %d frames, want 1", n)
	}
	helpFrom(e, protocol.DefaultJob, 0, farSeg)
	if e.HelpServed != 0 || e.HelpRelayed != 1 {
		t.Fatalf("Help past the cap: %d served, %d relayed; want 0, 1", e.HelpServed, e.HelpRelayed)
	}
	helpFrom(e, protocol.DefaultJob, 0, 3)
	if e.HelpServed != 1 {
		t.Fatalf("Help inside the model: %d served, want 1", e.HelpServed)
	}
}

// TestCheckpointRoundTripKeptFrames: a job whose shadow keeps emitted
// frames preempts and restores on the float and the int32 datapaths: the
// partial segment is still partial, the restored slot re-serves the same
// payload, and the checkpoint restores once.
func TestCheckpointRoundTripKeptFrames(t *testing.T) {
	const job = protocol.JobID(1)
	for _, scheme := range []protocol.Compression{protocol.CompNone, protocol.CompInt32Block} {
		drv := &clock{}
		e := New(shadowSelf, drv)
		if err := e.AdmitJob(job, 16); err != nil {
			t.Fatal(err)
		}
		e.SetDedupJob(job, true)
		join(e, job, 2, scheme, 16)
		r1, partial := protocol.TagSeg(1, 0), protocol.TagSeg(1, 1)
		contribute(e, job, 0, r1, scheme, []float32{1, -2, 3})
		contribute(e, job, 1, r1, scheme, []float32{4, 5, -6})
		contribute(e, job, 0, partial, scheme, []float32{7, 8, 9})
		cp, err := e.PreemptJob(job)
		if err != nil {
			t.Fatal(err)
		}
		if e.AcceleratorOf(job) != nil {
			t.Fatalf("%v: a preempted job is still admitted", scheme)
		}
		if err := e.RestoreJob(cp); err != nil {
			t.Fatal(err)
		}
		ctx := e.ctx(job)
		if ctx.shadow.Len() != 1 || ctx.acc.CountOf(partial) != 1 || !ctx.acc.Seen(partial, worker(0).String()) {
			t.Fatalf("%v: restored context holds %d shadow slots, partial count %d; want 1, 1 with worker 0 seen",
				scheme, ctx.shadow.Len(), ctx.acc.CountOf(partial))
		}
		served := ctx.shadow.Serve(r1, scheme == protocol.CompInt32Block)
		if served == nil {
			t.Fatalf("%v: restored shadow misses round 1", scheme)
		}
		got := append([]float32(nil), served.Data...)
		for _, q := range served.QData {
			got = append(got, float32(q<<served.Shift))
		}
		served.Release()
		if len(got) != 3 || got[0] != 5 || got[1] != 3 || got[2] != -3 {
			t.Fatalf("%v: re-served %v, want [5 3 -3]", scheme, got)
		}
		e.EvictJob(job)
		if err := e.RestoreJob(cp); err == nil {
			t.Fatalf("%v: a checkpoint restored twice", scheme)
		}
	}
}

// queued is clock with the accelerator's latency in it: After keeps the
// callback until the test fires it.
type queued struct {
	clock
	pending []func()
}

func (q *queued) After(_ time.Duration, fn func()) { q.pending = append(q.pending, fn) }

func (q *queued) fire() {
	for len(q.pending) > 0 {
		fn := q.pending[0]
		q.pending = q.pending[1:]
		fn()
	}
}

// TestPreemptKeepsInFlightEmission: round 2 completes and the job is
// preempted while the emission still waits out the accelerator's
// latency. The emission broadcasts from the context it left and keeps
// its shadow share there, so the restored job re-serves round 2 to a
// worker that lost the broadcast.
func TestPreemptKeepsInFlightEmission(t *testing.T) {
	const job = protocol.JobID(1)
	drv := &queued{}
	e := New(shadowSelf, drv)
	if err := e.AdmitJob(job, 16); err != nil {
		t.Fatal(err)
	}
	e.SetDedupJob(job, true)
	join(e, job, 2, protocol.CompNone, 16)
	r2 := protocol.TagSeg(2, 0)
	contribute(e, job, 0, r2, protocol.CompNone, []float32{1, 2, 3})
	contribute(e, job, 1, r2, protocol.CompNone, []float32{4, 5, 6})
	if len(drv.pending) != 1 {
		t.Fatalf("%d emissions pending, want 1", len(drv.pending))
	}
	cp, err := e.PreemptJob(job)
	if err != nil {
		t.Fatal(err)
	}
	drv.fire()
	if e.Broadcasts != 1 || drv.data != 2 {
		t.Fatalf("%d broadcasts, %d data frames; want 1, 2", e.Broadcasts, drv.data)
	}
	if err := e.RestoreJob(cp); err != nil {
		t.Fatal(err)
	}
	served := e.ctx(job).shadow.Serve(r2, false)
	if served == nil {
		t.Fatal("the restored job lost round 2's emission")
	}
	defer served.Release()
	if d := served.Data; len(d) != 3 || d[0] != 5 || d[1] != 7 || d[2] != 9 {
		t.Fatalf("re-served %v, want [5 7 9]", d)
	}
}

// BenchmarkHelpPath is the switch's Help path at 16 members: a segment
// holds one contribution, a Help for it misses the shadow (the round
// has not been emitted yet) and is relayed to the 15 missing members.
// It reports ns and allocations per Help.
func BenchmarkHelpPath(b *testing.B) {
	const members = 16
	drv := &clock{}
	e := New(shadowSelf, drv)
	e.SetDedup(true)
	join(e, protocol.DefaultJob, members, protocol.CompInt32Block, 64*protocol.FloatsPerPacket)
	for s := uint64(0); s < 64; s++ { // shadow slots for round 1
		for i := 0; i < members; i++ {
			contribute(e, protocol.DefaultJob, i, protocol.TagSeg(1, s), protocol.CompInt32Block, []float32{1, 2, 3})
		}
	}
	seg := protocol.TagSeg(2, 5)
	contribute(e, protocol.DefaultJob, 0, seg, protocol.CompInt32Block, []float32{1, 2, 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		helpFrom(e, protocol.DefaultJob, 0, seg)
	}
	b.StopTimer()
	if e.HelpTargeted != uint64(b.N) || e.HelpServed != 0 {
		b.Fatalf("%d Helps relayed to missing members, %d served; want %d, 0", e.HelpTargeted, e.HelpServed, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/Help")
	b.ReportMetric(float64(testing.AllocsPerRun(100, func() { helpFrom(e, protocol.DefaultJob, 0, seg) })), "allocs/Help")
}
