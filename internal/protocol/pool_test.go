package protocol

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

func TestPooledCloneIsDeepAndReleasable(t *testing.T) {
	orig := NewData(AddrFrom(10, 0, 0, 1, 9999), AddrFrom(10, 0, 0, 2, 9999), 7,
		[]float32{1, 2, 3})
	orig.Job = 3
	cl := orig.PooledClone()
	if cl.Src != orig.Src || cl.Dst != orig.Dst || cl.Seg != 7 || cl.Job != 3 || !cl.IsData() {
		t.Fatalf("clone header mismatch: %+v", cl)
	}
	cl.Data[0] = 99
	if orig.Data[0] != 1 {
		t.Fatal("pooled clone aliases the original's payload")
	}
	cl.Release()
	// Release must be final: the frame may be reused immediately.
	reused := GetPacket()
	reused.SetDataCopy([]float32{5, 5})
	if orig.Data[0] != 1 || orig.Data[1] != 2 {
		t.Fatal("reused frame corrupted the original")
	}
	reused.Release()
}

func TestReleaseOnUnpooledPacketIsNoop(t *testing.T) {
	p := &Packet{ToS: ToSData, Seg: 1, Data: []float32{4}}
	p.Release() // must not panic or enter the pool
	if p.Data[0] != 4 {
		t.Fatal("Release mutated an unpooled packet")
	}
	var nilPkt *Packet
	nilPkt.Release() // nil-safe
}

func TestCloneOfPooledPacketIsIndependent(t *testing.T) {
	p := NewPooledData(Addr{}, Addr{}, 2, []float32{1, 2})
	cl := p.Clone()
	p.Release()
	// The frame may be recycled now; the unpooled clone must survive.
	q := GetPacket()
	q.SetDataCopy([]float32{9, 9})
	if cl.Data[0] != 1 || cl.Data[1] != 2 {
		t.Fatalf("Clone of pooled packet aliases pool memory: %v", cl.Data)
	}
	cl.Release() // no-op: Clone yields an unpooled packet
	q.Release()
}

func TestSetValueCopyOwnsPayload(t *testing.T) {
	for _, n := range []int{3, InlineValueLen, InlineValueLen + 1} {
		src := make([]byte, n)
		src[0] = 1
		p := GetPacket()
		p.SetValueCopy(src)
		src[0] = 9
		if len(p.Value) != n || p.Value[0] != 1 {
			t.Fatalf("%d-byte value: SetValueCopy aliased or truncated the source: %v", n, p.Value)
		}
		p.Release()
	}
}

// TestControlValueLivesInTheHeader pins the control path's allocation
// count: every control the protocol defines is built, shared and
// released without a buffer of its own.
func TestControlValueLivesInTheHeader(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	src, dst := AddrFrom(10, 0, 0, 1, 9999), AddrFrom(10, 0, 0, 2, 9999)
	join := JoinValueScheme(1<<20, CompInt32Block)
	NewControl(src, dst, ActionJoin, join).Release() // first touch: the header
	allocs := testing.AllocsPerRun(100, func() {
		c := NewControl(src, dst, ActionJoin, join)
		h := NewHelp(src, dst, 7)
		r := h.Share()
		if seg, err := ParseHelp(r.Value); err != nil || seg != 7 {
			t.Fatalf("shared Help parses as %d, %v", seg, err)
		}
		c.Release()
		h.Release()
		r.Release()
	})
	if allocs != 0 {
		t.Fatalf("building and releasing controls allocates %.1f times, want 0", allocs)
	}
	a := NewControl(src, dst, ActionAck, AckOK)
	a.Value[0] = 0
	if AckOK[0] != 1 {
		t.Fatal("NewControl aliases the caller's value")
	}
	a.Release()
}

func TestPooledRoundTripDoesNotAllocateAtSteadyState(t *testing.T) {
	payload := make([]float32, FloatsPerPacket)
	tmpl := NewData(Addr{}, Addr{}, 1, payload)
	// Warm the pool so backing arrays exist.
	for i := 0; i < 8; i++ {
		tmpl.PooledClone().Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		cl := tmpl.PooledClone()
		cl.Release()
	})
	if allocs > 0.1 {
		t.Fatalf("PooledClone/Release allocates %.2f allocs/op at steady state, want ~0", allocs)
	}
}

// setNonZero gives v, and everything inside it, a non-zero value;
// slices get length 3 and capacity 8.
func setNonZero(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 8))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		setNonZero(t, v.Elem())
	case reflect.Int32:
		v.SetInt(1)
	case reflect.Interface:
		// Left nil: the payload record then reads as a pooled buffer.
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			setNonZero(t, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			// NewAt makes the unexported fields settable too.
			f := v.Field(i)
			setNonZero(t, reflect.NewAt(f.Type(), f.Addr().UnsafePointer()).Elem())
		}
	default:
		t.Fatalf("setNonZero: no case for kind %s; add one", v.Kind())
	}
}

// TestReleaseClearsEveryField walks Packet by reflection so a field
// added later cannot be forgotten in Release's field-by-field clear:
// everything is zero afterwards, the payload reference and the inline
// value included, and the payload record went back to its pool with its
// buffers' capacity kept.
func TestReleaseClearsEveryField(t *testing.T) {
	p := new(Packet)
	v := reflect.ValueOf(p).Elem()
	setNonZero(t, v)
	pl := p.pay
	if pl == nil || pl.refs != 1 {
		t.Fatalf("Packet has no payload reference to clear: %+v", pl)
	}
	p.Release()
	for i := 0; i < v.NumField(); i++ {
		if name, f := v.Type().Field(i).Name, v.Field(i); !f.IsZero() {
			t.Errorf("Release left %s = %v, want zero", name, f)
		}
	}
	if pl.refs != 0 || cap(pl.f32) != 8 || cap(pl.i32) != 8 || cap(pl.u16) != 8 {
		t.Errorf("Release left the payload record at %+v, want 0 references and capacity 8 kept", pl)
	}
}

// TestPacketNoLargerThanBefore pins the header's size: it was 240 bytes
// with four per-packet backing arrays, and every frame of a 1024-worker
// fat-tree's first round is a fresh one. It is 160 now, the reference
// count included; one more word would take it to the next size class,
// 176 bytes.
func TestPacketNoLargerThanBefore(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n != 160 {
		t.Fatalf("Packet is %d bytes, want 160", n)
	}
}

// TestRefKeepsHeaderUntilLastRelease: a header with several holders
// (Ref) keeps every field, and its payload its values, through every
// Release but the last; only the last clears the header and, with
// PoisonOnRelease on, poisons the payload.
func TestRefKeepsHeaderUntilLastRelease(t *testing.T) {
	PoisonOnRelease(true)
	defer PoisonOnRelease(false)
	const holders = 4
	p := NewPooledData(AddrFrom(10, 0, 0, 1, 9990), AddrFrom(10, 0, 0, 2, 7000), TagSeg(3, 5), []float32{1, 2, 3})
	p.Job = 7
	for i := 1; i < holders; i++ {
		if p.Ref() != p {
			t.Fatal("Ref returned another header")
		}
	}
	want, data := *p, p.Data
	for left := holders - 1; left > 0; left-- {
		p.Release()
		got := *p
		if got.refs != int32(left) {
			t.Fatalf("%d holders left, refs reads %d", left, got.refs)
		}
		got.refs = want.refs
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("with %d holders left the header reads %+v, want %+v", left, got, want)
		}
		if data[0] != 1 || data[1] != 2 || data[2] != 3 {
			t.Fatalf("with %d holders left the payload reads %v", left, data)
		}
	}
	p.Release()
	if !reflect.ValueOf(*p).IsZero() {
		t.Fatalf("the last Release left %+v", p)
	}
	for i, v := range data {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("the last Release left payload value %d at %v, want NaN", i, v)
		}
	}
}

// countingOwner is a BufferOwner that records what came back.
type countingOwner struct {
	f32 [][]float32
	i32 [][]int32
}

func (o *countingOwner) Recycle(buf []float32) { o.f32 = append(o.f32, buf) }
func (o *countingOwner) RecycleQ(buf []int32)  { o.i32 = append(o.i32, buf) }

// TestSharedPayloadReturnsOnLastRelease: a loaned payload goes back to
// its owner exactly once, after the last of N shares, whatever the
// release order, a share dropped on the way (netsim releases a lost
// frame where it drops it) counting like any other.
func TestSharedPayloadReturnsOnLastRelease(t *testing.T) {
	const shares = 5
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		quant := trial%2 == 1
		var owner countingOwner
		sum, qsum := []float32{1, 2, 3}, []int32{4, 5, 6}
		em := GetPacket()
		em.ToS, em.Seg = ToSData, uint64(trial)
		if quant {
			em.LendQData(qsum, &owner)
		} else {
			em.LendData(sum, &owner)
		}
		frames := []*Packet{em}
		for i := 0; i < shares; i++ {
			frames = append(frames, em.Share())
		}
		rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
		for i, f := range frames {
			if len(owner.f32)+len(owner.i32) != 0 {
				t.Fatalf("trial %d: payload returned with %d frames still holding it", trial, len(frames)-i)
			}
			if quant && (len(f.QData) != 3 || f.QData[2] != 6) || !quant && (len(f.Data) != 3 || f.Data[2] != 3) {
				t.Fatalf("trial %d: share %d does not see the payload: %+v", trial, i, f)
			}
			f.Release()
		}
		switch {
		case quant && (len(owner.i32) != 1 || len(owner.f32) != 0 || &owner.i32[0][0] != &qsum[0]):
			t.Fatalf("trial %d: quantized loan came back as %v / %v", trial, owner.f32, owner.i32)
		case !quant && (len(owner.f32) != 1 || len(owner.i32) != 0 || &owner.f32[0][0] != &sum[0]):
			t.Fatalf("trial %d: float loan came back as %v / %v", trial, owner.f32, owner.i32)
		}
	}
}

// TestShareCostsNoCopyAndNoAllocation: after first touch a fan-out is
// headers only.
func TestShareCostsNoCopyAndNoAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	var owner countingOwner
	owner.f32 = make([][]float32, 0, 1)
	sum := make([]float32, FloatsPerPacket)
	fanOut := func() {
		owner.f32 = owner.f32[:0]
		em := GetPacket()
		em.LendData(sum, &owner)
		var out [4]*Packet
		for i := range out {
			out[i] = em.Share()
		}
		em.Release()
		for _, f := range out {
			if &f.Data[0] != &sum[0] {
				t.Fatal("Share copied the payload")
			}
			f.Release()
		}
	}
	fanOut()
	if allocs := testing.AllocsPerRun(100, fanOut); allocs != 0 {
		t.Fatalf("a 4-way fan-out allocates %.1f times, want 0", allocs)
	}
}

// TestSetCopyLetsGoOfASharedPayload: writing into a frame that holds a
// share must not write through to the other holders.
func TestSetCopyLetsGoOfASharedPayload(t *testing.T) {
	a := NewPooledData(Addr{}, Addr{}, 1, []float32{1, 2})
	b := a.Share()
	b.SetDataCopy([]float32{9, 9})
	if a.Data[0] != 1 || a.Data[1] != 2 {
		t.Fatalf("SetDataCopy on a share wrote through to the original: %v", a.Data)
	}
	a.Release()
	if b.Data[0] != 9 {
		t.Fatalf("the rewritten share lost its payload: %v", b.Data)
	}
	b.Release()
}
