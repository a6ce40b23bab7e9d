package netsim

import (
	"os"
	"testing"

	"iswitch/internal/protocol"
	"iswitch/internal/sim"
)

// TestMain poisons released payloads for the whole package: a frame
// read after the network let go of it reads NaN.
func TestMain(m *testing.M) {
	protocol.PoisonOnRelease(true)
	os.Exit(m.Run())
}

// lender is a protocol.BufferOwner that counts what comes back.
type lender struct{ back int }

func (l *lender) Recycle([]float32) { l.back++ }
func (l *lender) RecycleQ([]int32)  { l.back++ }

// refuseAll polices every tagged frame.
type refuseAll struct{}

func (refuseAll) Admit(sim.Time, uint16, int) bool { return false }

// TestDroppedShareReturnsThePayload: a share the network drops counts
// as released at the drop site, whichever of the three it is (a lossy
// link, a policing shaper, a switch with no route), so the loan behind a
// fan-out comes back exactly once, after the delivered shares are
// consumed too, and not before.
func TestDroppedShareReturnsThePayload(t *testing.T) {
	k := sim.NewKernel()
	star := BuildStar(k, 4, TenGbE())
	src := star.Hosts[0]
	star.Hosts[1].Port().Peer().DropNth(1) // the switch's port toward host 1 loses its first frame
	star.Hosts[2].Port().Peer().SetShaper(refuseAll{})

	var owner lender
	sum := []float32{1, 2, 3, 4}
	em := protocol.GetPacket()
	em.ToS, em.Job = protocol.ToSData, 3 // tagged: the shaper sees it
	em.LendData(sum, &owner)
	dsts := []protocol.Addr{
		star.Hosts[1].Addr,                // lost on the wire
		star.Hosts[2].Addr,                // policed
		protocol.AddrFrom(99, 9, 9, 9, 9), // no route
		star.Hosts[3].Addr,                // delivered
	}
	for _, dst := range dsts {
		cp := em.Share()
		cp.Src, cp.Dst = src.Addr, dst
		src.Send(cp)
	}
	em.Release()
	k.Run()

	sw := star.Switch
	if sw.NoRoute != 1 || star.Hosts[1].Port().Peer().Dropped != 1 || star.Hosts[2].Port().Peer().Policed != 1 {
		t.Fatalf("drop sites fired %d/%d/%d times, want 1 each", sw.NoRoute,
			star.Hosts[1].Port().Peer().Dropped, star.Hosts[2].Port().Peer().Policed)
	}
	if owner.back != 0 {
		t.Fatalf("the loan came back %d times with a delivered share still unread", owner.back)
	}
	got, ok := star.Hosts[3].RX.TryRecv()
	if !ok || len(got.Data) != 4 || got.Data[3] != 4 {
		t.Fatalf("the delivered share reads %+v", got)
	}
	got.Release()
	if owner.back != 1 {
		t.Fatalf("the loan came back %d times after its last share was released, want 1", owner.back)
	}
}
