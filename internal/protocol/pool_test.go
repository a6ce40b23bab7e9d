package protocol

import (
	"reflect"
	"testing"
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
	p := NewData(Addr{}, Addr{}, 1, []float32{4})
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
	src := []byte{1, 2, 3}
	p := GetPacket()
	p.SetValueCopy(src)
	src[0] = 9
	if p.Value[0] != 1 {
		t.Fatal("SetValueCopy aliased the source slice")
	}
	p.Release()
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
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			setNonZero(t, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setNonZero(t, v.Field(i))
		}
	default:
		t.Fatalf("setNonZero: no case for kind %s; add one", v.Kind())
	}
}

// TestReleaseClearsEveryField walks Packet by reflection so a field
// added later cannot be forgotten in Release's field-by-field clear:
// everything is zero afterwards except the four owned backing arrays,
// which keep their capacity.
func TestReleaseClearsEveryField(t *testing.T) {
	p := new(Packet)
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		// NewAt makes the unexported fields settable too.
		setNonZero(t, reflect.NewAt(f.Type(), f.Addr().UnsafePointer()).Elem())
	}
	p.Release()
	kept := map[string]bool{"dataBuf": true, "valueBuf": true, "qBuf": true, "idxBuf": true}
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		switch {
		case kept[name]:
			if f.Cap() != 8 {
				t.Errorf("Release left %s with capacity %d, want 8", name, f.Cap())
			}
			delete(kept, name)
		case !f.IsZero():
			t.Errorf("Release left %s = %v, want zero", name, f)
		}
	}
	for name := range kept {
		t.Errorf("Packet has no field %s", name)
	}
}
