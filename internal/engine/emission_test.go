package engine

import (
	"math"
	"testing"

	"iswitch/internal/protocol"
)

// captured is one data frame as the driver saw it, copied before the
// frame's release poisons the payload.
type captured struct {
	dst   protocol.Addr
	enc   protocol.Compression
	shift uint8
	data  []float32
	q     []int32
	idx   int
}

// capture is clock that keeps a copy of every data frame it is handed.
type capture struct {
	clock
	frames []captured
}

func (c *capture) Forward(p *protocol.Packet, dst protocol.Addr) {
	if p.IsData() {
		c.frames = append(c.frames, captured{dst, p.Enc, p.Shift,
			append([]float32(nil), p.Data...), append([]int32(nil), p.QData...), len(p.Idx)})
	}
	p.Release()
}

// emissionWant is what a segment's emission must carry.
type emissionWant struct {
	enc   protocol.Compression
	shift uint8
	data  []float32
	q     []int32
}

func (w emissionWant) check(t *testing.T, got captured) {
	t.Helper()
	if got.enc != w.enc || got.shift != w.shift || got.idx != 0 {
		t.Fatalf("frame to %v: enc %v shift %d with %d indices, want enc %v shift %d, dense",
			got.dst, got.enc, got.shift, got.idx, w.enc, w.shift)
	}
	if len(got.data) != len(w.data) || len(got.q) != len(w.q) {
		t.Fatalf("frame to %v: payload %v %v, want %v %v", got.dst, got.data, got.q, w.data, w.q)
	}
	for i, v := range w.data {
		if math.Float32bits(got.data[i]) != math.Float32bits(v) {
			t.Fatalf("frame to %v: data %v, want %v bit for bit", got.dst, got.data, w.data)
		}
	}
	for i, v := range w.q {
		if got.q[i] != v {
			t.Fatalf("frame to %v: q %v, want %v", got.dst, got.q, w.q)
		}
	}
}

// TestEmissionEveryTrigger: a scheme's emission has one representation
// whichever way its segment completes — the H-th contribution, an
// FBcast of a partial, a Leave that lowers H to what the segment holds,
// or a Help answered from the shadow slot. int32block emits the
// saturating sum narrowed into the int16 range with its shift, fp16 the
// float sum rounded through half precision, top-k the dense float sum
// tagged CompNone, and none the float sum as added.
func TestEmissionEveryTrigger(t *testing.T) {
	const floats = 4
	seg := protocol.TagSeg(1, 0)
	// Worker 0 and 1's contributions: floats for none and fp16, (index,
	// value) pairs for top-k, and (q, shift) for int32block, where worker
	// 0 sends a child's narrowed partial (shift 1) that the adders
	// re-widen to {40000, -10, 14}.
	vals := [2][]float32{{1.000732421875, -2.5, 100.1}, {0.5, 0.25, 0.0625}}
	idx := [2][]uint16{{0, 2}, {2, 3}}
	sparse := [2][]float32{{1, -2.5}, {0.25, 4}}
	q := [2][]int32{{20000, -5, 7}, {30000, 3, 1}}
	qshift := [2]uint8{1, 0}

	cases := []struct {
		scheme        protocol.Compression
		full, partial emissionWant
	}{
		{protocol.CompNone,
			emissionWant{protocol.CompNone, 0, []float32{vals[0][0] + vals[1][0], vals[0][1] + vals[1][1], vals[0][2] + vals[1][2]}, nil},
			emissionWant{protocol.CompNone, 0, vals[0], nil}},
		{protocol.CompFP16,
			// A fraction 3·2^-12 past the grid rounds up to the next
			// multiple of 2^-10; above 64 the grid is 2^-4.
			emissionWant{protocol.CompFP16, 0, []float32{1.5009765625, -2.25, 100.1875}, nil},
			emissionWant{protocol.CompFP16, 0, []float32{1.0009765625, -2.5, 100.125}, nil}},
		{protocol.CompTopK,
			emissionWant{protocol.CompNone, 0, []float32{1, 0, -2.25, 4}, nil},
			emissionWant{protocol.CompNone, 0, []float32{1, 0, -2.5, 0}, nil}},
		{protocol.CompInt32Block,
			// {70000, -7, 15} >> 2 and {40000, -10, 14} >> 1.
			emissionWant{protocol.CompInt32Block, 2, nil, []int32{17500, -2, 3}},
			emissionWant{protocol.CompInt32Block, 1, nil, []int32{20000, -5, 7}}},
	}
	for _, c := range cases {
		contribute := func(e *Engine, i int) {
			var p *protocol.Packet
			switch c.scheme {
			case protocol.CompInt32Block:
				p = protocol.NewQData(worker(i), shadowSelf, seg, q[i], qshift[i])
			case protocol.CompTopK:
				p = protocol.NewSparseData(worker(i), shadowSelf, seg, idx[i], sparse[i])
			default:
				p = protocol.NewData(worker(i), shadowSelf, seg, vals[i])
				p.Enc = c.scheme
			}
			e.Handle(p, false)
		}
		control := func(e *Engine, i int, a protocol.Action) {
			e.Handle(protocol.NewControl(worker(i), shadowSelf, a, nil), false)
		}
		triggers := []struct {
			name    string
			run     func(t *testing.T, e *Engine, drv *capture)
			want    emissionWant
			members int // frames the trigger emits
		}{
			{"H-th contribution", func(_ *testing.T, e *Engine, _ *capture) {
				contribute(e, 0)
				contribute(e, 1)
			}, c.full, 2},
			{"FBcast", func(_ *testing.T, e *Engine, _ *capture) {
				contribute(e, 0)
				control(e, 0, protocol.ActionFBcast)
			}, c.partial, 2},
			{"Leave", func(_ *testing.T, e *Engine, _ *capture) {
				contribute(e, 0)
				control(e, 1, protocol.ActionLeave)
			}, c.partial, 1},
			{"shadow Help", func(t *testing.T, e *Engine, drv *capture) {
				contribute(e, 0)
				contribute(e, 1)
				drv.frames = nil
				helpFrom(e, protocol.DefaultJob, 0, seg)
				if e.HelpServed != 1 {
					t.Fatal("Help not served from the shadow slot")
				}
			}, c.full, 1},
		}
		for _, tr := range triggers {
			t.Run(c.scheme.String()+"/"+tr.name, func(t *testing.T) {
				drv := &capture{}
				e := New(shadowSelf, drv)
				join(e, protocol.DefaultJob, 2, c.scheme, floats)
				tr.run(t, e, drv)
				if len(drv.frames) != tr.members {
					t.Fatalf("%d data frames, want %d", len(drv.frames), tr.members)
				}
				for _, f := range drv.frames {
					tr.want.check(t, f)
				}
			})
		}
	}
}
