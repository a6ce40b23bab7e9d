package protocol

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func addrA() Addr { return AddrFrom(10, 0, 0, 2, 9999) }
func addrB() Addr { return AddrFrom(10, 0, 0, 4, 9998) }

func TestActionsTableComplete(t *testing.T) {
	acts := Actions()
	if len(acts) != 8 {
		t.Fatalf("Table 2 has 8 control messages, got %d", len(acts))
	}
	wantNames := []string{"Join", "Leave", "Reset", "SetH", "FBcast", "Help", "Halt", "Ack"}
	for i, a := range acts {
		if a.String() != wantNames[i] {
			t.Errorf("action %d = %s, want %s", i, a, wantNames[i])
		}
		if a.Describe() == "unknown" {
			t.Errorf("action %s has no description", a)
		}
	}
	if ActionInvalid.String() != "Action(0)" {
		t.Errorf("invalid action formatted as %s", ActionInvalid)
	}
}

func TestControlRoundTrip(t *testing.T) {
	for _, a := range Actions() {
		p := NewControl(addrA(), addrB(), a, []byte{1, 2, 3})
		frame, err := Marshal(p)
		if err != nil {
			t.Fatalf("%s: marshal: %v", a, err)
		}
		q, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", a, err)
		}
		if !q.IsControl() || q.Action != a {
			t.Fatalf("%s: round-trip got action %s", a, q.Action)
		}
		if q.Src != p.Src || q.Dst != p.Dst {
			t.Fatalf("%s: addr mismatch %v→%v", a, q.Src, q.Dst)
		}
		if string(q.Value) != string(p.Value) {
			t.Fatalf("%s: value mismatch %v", a, q.Value)
		}
	}
}

func TestControlNoValue(t *testing.T) {
	p := NewControl(addrA(), addrB(), ActionReset, nil)
	frame, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if q.Action != ActionReset || len(q.Value) != 0 {
		t.Fatalf("got %s value=%v", q.Action, q.Value)
	}
}

func TestDataRoundTrip(t *testing.T) {
	data := make([]float32, FloatsPerPacket)
	for i := range data {
		data[i] = float32(i) * 0.5
	}
	p := NewData(addrA(), addrB(), 7, data)
	frame, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > MaxFrameLen {
		t.Fatalf("full data frame %d bytes exceeds max %d", len(frame), MaxFrameLen)
	}
	q, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if q.Seg != 7 || len(q.Data) != len(data) {
		t.Fatalf("seg=%d len=%d", q.Seg, len(q.Data))
	}
	for i := range data {
		if q.Data[i] != data[i] {
			t.Fatalf("data[%d] = %v, want %v", i, q.Data[i], data[i])
		}
	}
}

func TestDataRoundTripQuick(t *testing.T) {
	f := func(seg uint64, raw []uint32) bool {
		if len(raw) > FloatsPerPacket {
			raw = raw[:FloatsPerPacket]
		}
		data := make([]float32, len(raw))
		for i, b := range raw {
			data[i] = math.Float32frombits(b)
		}
		p := NewData(addrA(), addrB(), seg, data)
		frame, err := Marshal(p)
		if err != nil {
			return false
		}
		q, err := Unmarshal(frame)
		if err != nil || q.Seg != seg || len(q.Data) != len(data) {
			return false
		}
		for i := range data {
			// Compare bit patterns so NaNs round-trip too.
			if math.Float32bits(q.Data[i]) != math.Float32bits(data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestControlRoundTripQuick(t *testing.T) {
	f := func(action uint8, value []byte) bool {
		if len(value) > 256 {
			value = value[:256]
		}
		p := NewControl(addrA(), addrB(), Action(action%8+1), value)
		frame, err := Marshal(p)
		if err != nil {
			return false
		}
		q, err := Unmarshal(frame)
		if err != nil || q.Action != p.Action || len(q.Value) != len(value) {
			return false
		}
		for i := range value {
			if q.Value[i] != value[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsCorruptChecksum(t *testing.T) {
	p := NewData(addrA(), addrB(), 1, []float32{1, 2, 3})
	frame, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	frame[EthernetHeaderLen+12] ^= 0xff // flip a source-IP byte
	if _, err := Unmarshal(frame); err == nil {
		t.Fatal("corrupt IPv4 header accepted")
	}
}

func TestUnmarshalRejectsShortFrames(t *testing.T) {
	for n := 0; n < EthernetHeaderLen+IPv4HeaderLen+UDPHeaderLen; n += 7 {
		if _, err := Unmarshal(make([]byte, n)); err == nil {
			t.Fatalf("accepted %d-byte frame", n)
		}
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := NewData(addrA(), addrB(), 3, []float32{0.25, -1.5})
	payload, err := MarshalPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := UnmarshalPayload(addrA(), addrB(), ToSData, payload)
	if err != nil {
		t.Fatal(err)
	}
	if q.Seg != 3 || q.Data[0] != 0.25 || q.Data[1] != -1.5 {
		t.Fatalf("payload round-trip got %+v", q)
	}
}

func TestSetHValueRoundTrip(t *testing.T) {
	for _, h := range []uint32{1, 4, 12, 1 << 20} {
		got, err := ParseSetH(SetHValue(h))
		if err != nil || got != h {
			t.Fatalf("SetH(%d) round-trip = %d, %v", h, got, err)
		}
	}
	if _, err := ParseSetH([]byte{1, 2}); err == nil {
		t.Fatal("short SetH accepted")
	}
}

func TestJoinAndHelpValues(t *testing.T) {
	n, err := ParseJoin(JoinValue(1_680_000))
	if err != nil || n != 1_680_000 {
		t.Fatalf("Join round-trip = %d, %v", n, err)
	}
	s, err := ParseHelp(HelpValue(1234))
	if err != nil || s != 1234 {
		t.Fatalf("Help round-trip = %d, %v", s, err)
	}
	if _, err := ParseJoin(nil); err == nil {
		t.Fatal("empty Join accepted")
	}
	if _, err := ParseHelp([]byte{9}); err == nil {
		t.Fatal("short Help accepted")
	}
}

func TestWireLenMatchesMarshal(t *testing.T) {
	pkts := []*Packet{
		NewControl(addrA(), addrB(), ActionSetH, SetHValue(4)),
		NewData(addrA(), addrB(), 0, make([]float32, 10)),
		NewData(addrA(), addrB(), 1, make([]float32, FloatsPerPacket)),
	}
	for _, p := range pkts {
		frame, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if p.WireLen() != len(frame) {
			t.Fatalf("WireLen = %d, marshal produced %d", p.WireLen(), len(frame))
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := NewData(addrA(), addrB(), 0, []float32{1, 2})
	q := p.Clone()
	q.Data[0] = 99
	if p.Data[0] != 1 {
		t.Fatal("clone aliases data")
	}
	c := NewControl(addrA(), addrB(), ActionAck, []byte{1})
	d := c.Clone()
	d.Value[0] = 0
	if c.Value[0] != 1 {
		t.Fatal("clone aliases value")
	}
}

func TestSegmentCountAndRange(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {FloatsPerPacket, 1}, {FloatsPerPacket + 1, 2},
		{10 * FloatsPerPacket, 10}, {10*FloatsPerPacket + 5, 11},
	}
	for _, c := range cases {
		if got := SegmentCount(c.n); got != c.want {
			t.Errorf("SegmentCount(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	lo, hi := SegmentRange(FloatsPerPacket+10, 1)
	if lo != FloatsPerPacket || hi != FloatsPerPacket+10 {
		t.Fatalf("tail range [%d,%d)", lo, hi)
	}
}

func TestSegmentAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 100, FloatsPerPacket, 3*FloatsPerPacket + 17} {
		grad := make([]float32, n)
		for i := range grad {
			grad[i] = rng.Float32()*2 - 1
		}
		pkts := Segment(addrA(), addrB(), grad)
		if len(pkts) != SegmentCount(n) {
			t.Fatalf("n=%d: %d packets, want %d", n, len(pkts), SegmentCount(n))
		}
		// Deliver out of order.
		order := rng.Perm(len(pkts))
		asm := NewAssembler(n)
		for _, i := range order[:len(order)-1] {
			if err := asm.Add(pkts[i]); err != nil {
				t.Fatal(err)
			}
			if asm.Complete() {
				t.Fatal("complete before all segments arrived")
			}
		}
		if got := asm.Remaining(); got != 1 {
			t.Fatalf("remaining = %d, want 1", got)
		}
		miss := asm.Missing()
		if len(miss) != 1 || miss[0] != pkts[order[len(order)-1]].Seg {
			t.Fatalf("missing = %v", miss)
		}
		if err := asm.Add(pkts[order[len(order)-1]]); err != nil {
			t.Fatal(err)
		}
		if !asm.Complete() {
			t.Fatal("not complete after all segments")
		}
		out := asm.Vector()
		for i := range grad {
			if out[i] != grad[i] {
				t.Fatalf("n=%d: element %d = %v, want %v", n, i, out[i], grad[i])
			}
		}
	}
}

func TestAssemblerDuplicateIdempotent(t *testing.T) {
	grad := []float32{1, 2, 3}
	pkts := Segment(addrA(), addrB(), grad)
	asm := NewAssembler(len(grad))
	for i := 0; i < 3; i++ {
		if err := asm.Add(pkts[0]); err != nil {
			t.Fatal(err)
		}
	}
	if !asm.Complete() {
		t.Fatal("single-segment vector should be complete")
	}
}

func TestAssemblerRejectsBadPackets(t *testing.T) {
	asm := NewAssembler(10)
	if err := asm.Add(NewControl(addrA(), addrB(), ActionAck, nil)); err == nil {
		t.Fatal("accepted control packet")
	}
	if err := asm.Add(NewData(addrA(), addrB(), 5, []float32{1})); err == nil {
		t.Fatal("accepted out-of-range segment")
	}
	if err := asm.Add(NewData(addrA(), addrB(), 0, []float32{1, 2})); err == nil {
		t.Fatal("accepted wrong-length segment")
	}
}

func TestAssemblerReset(t *testing.T) {
	grad := make([]float32, FloatsPerPacket*2)
	pkts := Segment(addrA(), addrB(), grad)
	asm := NewAssembler(len(grad))
	for _, p := range pkts {
		_ = asm.Add(p)
	}
	asm.Reset()
	if asm.Complete() || asm.Remaining() != 2 {
		t.Fatalf("after reset: complete=%v remaining=%d", asm.Complete(), asm.Remaining())
	}
}

// Property: segmentation then assembly is the identity for any vector.
func TestSegmentAssembleQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 4*FloatsPerPacket {
			raw = raw[:4*FloatsPerPacket]
		}
		grad := make([]float32, len(raw))
		for i, b := range raw {
			grad[i] = math.Float32frombits(b)
		}
		pkts := Segment(addrA(), addrB(), grad)
		asm := NewAssembler(len(grad))
		for _, p := range pkts {
			if err := asm.Add(p); err != nil {
				return false
			}
		}
		if len(grad) > 0 && !asm.Complete() {
			return false
		}
		out := asm.Vector()
		for i := range grad {
			if math.Float32bits(out[i]) != math.Float32bits(grad[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Addr.String is written without fmt (it names every host, port and
// membership row at set-up); it must render exactly what fmt did.
func TestAddrStringMatchesFmt(t *testing.T) {
	for _, a := range []Addr{{}, AddrFrom(10, 0, 0, 2, 9999), AddrFrom(255, 255, 255, 255, 65535),
		AddrFrom(1, 20, 100, 0, 7), AddrFrom(192, 168, 1, 254, 80)} {
		want := fmt.Sprintf("%d.%d.%d.%d:%d", a.IP[0], a.IP[1], a.IP[2], a.IP[3], a.Port)
		if got := a.String(); got != want {
			t.Fatalf("Addr%v.String() = %q, want %q", a.IP, got, want)
		}
	}
}
