package switchnet

import (
	"reflect"
	"testing"
	"time"

	"iswitch/internal/accel"
	"iswitch/internal/engine"
	"iswitch/internal/netsim"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// Preempt/restore accounting, driven through the public control-plane
// API without a running simulation.
func TestCheckpointRestoreAccounting(t *testing.T) {
	k := sim.NewKernel()
	pool := accel.NewSRAMPool(1<<20, accel.PartitionDemand, 0)
	c := BuildStar(k, 2, testLink())
	is := c.IS
	is.SetTenancy(pool, accel.NewSharedBus())

	const floats = 1000
	if err := is.AdmitJob(1, floats); err != nil {
		t.Fatal(err)
	}
	is.SetDedupJob(1, true)
	is.SetCompression(1, protocol.CompNone, floats)
	mem := is.MembershipOf(1)
	a0 := protocol.AddrFrom(10, 0, 0, 1, 7000)
	a1 := protocol.AddrFrom(10, 0, 0, 2, 7000)
	mem.Join(a0, engine.MemberWorker, 0, floats)
	mem.Join(a1, engine.MemberWorker, 0, floats)
	mem.Leave(a0) // leaves an ID gap: the restored allocator must keep it
	acc := is.AcceleratorOf(1)
	if err := acc.SetThreshold(2); err != nil {
		t.Fatal(err)
	}
	seg := protocol.TagSeg(3, 0)
	acc.IngestFrom(seg, a1.String(), []float32{1, 2, 3})
	reserved := pool.Reserved(1)

	// Preempt frees the SRAM; restore re-reserves exactly it and puts
	// the same context back.
	cp, err := is.PreemptJob(1)
	if err != nil {
		t.Fatal(err)
	}
	if cp.SRAMDemand != reserved || cp.SRAMDemand == 0 {
		t.Fatalf("checkpoint demand %d, pool reservation was %d", cp.SRAMDemand, reserved)
	}
	if pool.Reserved(1) != 0 || pool.Jobs() != 0 {
		t.Fatalf("preempt left SRAM reserved: %d B, %d jobs", pool.Reserved(1), pool.Jobs())
	}
	if is.AcceleratorOf(1) != nil || is.MembershipOf(1) != nil {
		t.Fatal("a preempted job is still admitted")
	}
	if err := is.RestoreJob(cp); err != nil {
		t.Fatal(err)
	}
	if pool.Reserved(1) != cp.SRAMDemand {
		t.Fatalf("restore reserved %d B, want %d", pool.Reserved(1), cp.SRAMDemand)
	}
	if is.AcceleratorOf(1) != acc || is.MembershipOf(1) != mem {
		t.Fatal("restore did not put the preempted context back")
	}
	if acc.CountOf(seg) != 1 || !acc.Seen(seg, a1.String()) || mem.Count() != 1 {
		t.Fatalf("restored state: count %d, a1 seen %v, %d members; want 1, true, 1",
			acc.CountOf(seg), acc.Seen(seg, a1.String()), mem.Count())
	}
	// The ID allocator continues past the gap: a new member gets ID 2.
	if id := is.MembershipOf(1).Join(a0, engine.MemberWorker, 0, floats); id != 2 {
		t.Fatalf("post-restore join got ID %d, want 2", id)
	}

	// Error paths.
	if _, err := is.PreemptJob(42); err == nil {
		t.Fatal("preempting an unadmitted job must fail")
	}
	if _, err := is.PreemptJob(protocol.DefaultJob); err == nil {
		t.Fatal("preempting the default job must fail")
	}
	again, err := is.PreemptJob(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := is.AdmitJob(1, floats); err != nil {
		t.Fatal(err)
	}
	if err := is.RestoreJob(again); err == nil {
		t.Fatal("restoring over an admitted job must fail")
	}
	is.EvictJob(1)
	if err := is.RestoreJob(cp); err == nil {
		t.Fatal("a checkpoint restored twice")
	}
	if pool.Reserved(1) != 0 {
		t.Fatalf("refused restores left %d B reserved", pool.Reserved(1))
	}
}

// Restore must fail cleanly (no context created) when the SRAM was
// given to someone else in the meantime.
func TestRestoreRefusedWhenSRAMTaken(t *testing.T) {
	k := sim.NewKernel()
	demand := accel.ContextDemand(1000, protocol.FloatsPerPacket)
	pool := accel.NewSRAMPool(demand+demand/2, accel.PartitionDemand, 0)
	is := BuildStar(k, 2, testLink()).IS
	is.SetTenancy(pool, nil)

	if err := is.AdmitJob(1, 1000); err != nil {
		t.Fatal(err)
	}
	cp, err := is.PreemptJob(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := is.AdmitJob(2, 1000); err != nil {
		t.Fatal(err)
	}
	if err := is.RestoreJob(cp); err == nil {
		t.Fatal("restore should fail while job 2 holds the SRAM")
	}
	if is.AcceleratorOf(1) != nil {
		t.Fatal("failed restore left a context behind")
	}
	is.EvictJob(2)
	if err := is.RestoreJob(cp); err != nil {
		t.Fatalf("restore after eviction: %v", err)
	}
}

// A job preempted mid-round and restored resumes exactly: the partial
// sum survives, the dedup bitmap still rejects the original
// contributor's retransmission, and the completed aggregate equals the
// never-preempted sum, on the float and on the integer datapath.
func TestPreemptRestoreMidRound(t *testing.T) {
	for _, scheme := range []protocol.Compression{protocol.CompNone, protocol.CompInt32Block} {
		t.Run(scheme.String(), func(t *testing.T) { preemptRestoreMidRound(t, scheme) })
	}
}

func preemptRestoreMidRound(t *testing.T, scheme protocol.Compression) {
	k := sim.NewKernel()
	pool := accel.NewSRAMPool(0, accel.PartitionDemand, 0)
	c := BuildStar(k, 2, testLink())
	is := c.IS
	is.SetTenancy(pool, accel.NewSharedBus())
	const job = protocol.JobID(5)
	const floats = 4
	if err := is.AdmitJob(job, floats); err != nil {
		t.Fatal(err)
	}
	is.SetDedupJob(job, true)
	is.SetCompression(job, scheme, floats)

	seg := protocol.TagSeg(1, 0)
	// frame builds a contribution under the job's scheme; read widens a
	// broadcast back to the values it stands for.
	frame := func(w *netsim.Host, vals ...int32) *protocol.Packet {
		var pkt *protocol.Packet
		if scheme == protocol.CompInt32Block {
			pkt = protocol.NewQData(w.Addr, is.Addr(), seg, vals, 0)
		} else {
			f := make([]float32, len(vals))
			for i, v := range vals {
				f[i] = float32(v)
			}
			pkt = protocol.NewData(w.Addr, is.Addr(), seg, f)
		}
		pkt.Job = job
		return pkt
	}
	read := func(pkt *protocol.Packet) []float32 {
		out := append([]float32(nil), pkt.Data...)
		for _, q := range pkt.QData {
			out = append(out, float32(q<<pkt.Shift))
		}
		return out
	}
	var got [2][]float32
	for i, w := range c.Workers {
		i, w := i, w
		k.Spawn("worker", func(p *sim.Proc) {
			joinJob(p, w, is.Addr(), job, floats, t)
			if i == 0 {
				p.Sleep(time.Millisecond)
				w.Send(frame(w, 1, 2, 3, 4))
				// Retransmit after the restore: dedup must ignore it.
				p.Sleep(4 * time.Millisecond)
				w.Send(frame(w, 1, 2, 3, 4))
			} else {
				p.Sleep(6 * time.Millisecond)
				w.Send(frame(w, 10, 20, 30, 40))
			}
			for got[i] == nil {
				pkt := w.Recv(p)
				if pkt.IsData() && pkt.Seg == seg {
					got[i] = read(pkt)
				}
				pkt.Release()
			}
		})
	}

	var cp *engine.JobCheckpoint
	k.After(2*time.Millisecond, func() {
		var err error
		if cp, err = is.PreemptJob(job); err != nil {
			t.Errorf("preempt: %v", err)
		}
	})
	k.After(3*time.Millisecond, func() {
		if err := is.RestoreJob(cp); err != nil {
			t.Errorf("restore: %v", err)
		}
	})
	k.Run()
	k.Shutdown()

	want := []float32{11, 22, 33, 44}
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("worker %d broadcast = %v, want %v (dup not ignored or partial lost)", i, got[i], want)
		}
	}
	if d := is.AcceleratorOf(job).Stats().DupDropped; d != 1 {
		t.Fatalf("DupDropped = %d, want 1", d)
	}
}
