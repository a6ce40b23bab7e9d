package compress

import (
	"math"
	"testing"

	"iswitch/internal/protocol"
	"iswitch/internal/tensor/kernels"
)

func qCodec(n, per int) *Codec {
	return NewCodec(Config{Scheme: protocol.CompInt32Block}, n, per)
}

// TestEncodeDecodeRoundTrip: a value within the grid's range survives
// quantization with error at most half a grid step.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	const n, per = 64, 64
	c := qCodec(n, per)
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i-32) * 1e-4
	}
	q := c.EncodeQ(0, vals)
	dst := make([]float32, n)
	c.DecodeQ(0, q, 0, dst)
	step := scaleFor(c.Exp(0))
	for i := range vals {
		if d := math.Abs(float64(dst[i] - vals[i])); d > float64(step)/2 {
			t.Fatalf("elem %d: round-trip error %g exceeds half step %g", i, d, step/2)
		}
	}
}

// TestEncodeDeterministicWithinRound: re-encoding the same segment
// within a round (a retransmission) yields identical bits, and two
// codecs with the same history encode identically.
func TestEncodeDeterministicWithinRound(t *testing.T) {
	const n, per = 32, 32
	a, b := qCodec(n, per), qCodec(n, per)
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i))) * 0.01
	}
	q1 := append([]int32(nil), a.EncodeQ(0, vals)...)
	q2 := a.EncodeQ(0, vals)
	q3 := b.EncodeQ(0, vals)
	for i := range q1 {
		if q1[i] != q2[i] || q1[i] != q3[i] {
			t.Fatalf("elem %d: %d / %d / %d — encode not deterministic", i, q1[i], q2[i], q3[i])
		}
	}
}

// TestExponentAdaptation walks the speculative-scaling update: the
// next exponent is chosen so the observed aggregate magnitude lands
// near 2^(e'+gridBits), an all-zero round decays the exponent, and
// both ends clamp.
func TestExponentAdaptation(t *testing.T) {
	const n, per = 16, 16
	q := make([]int32, n)
	dst := make([]float32, n)

	cases := []struct {
		name  string
		maxq  int32
		shift uint8
		want  int // expected exp after DecodeQ+Advance, from DefaultInitExp
	}{
		// ilog2(8192)=13 ⇒ e' = e+shift+13-13 = e+shift.
		{"on-grid", 8192, 0, DefaultInitExp},
		{"on-grid-shifted", 8192, 5, DefaultInitExp + 5},
		// ilog2(1)=0 ⇒ e' = e - gridBits.
		{"tiny", 1, 0, DefaultInitExp - gridBits},
		// maxq=0 ⇒ decay.
		{"zero", 0, 0, DefaultInitExp - zeroDecay},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := qCodec(n, per)
			for i := range q {
				q[i] = 0
			}
			q[3] = tc.maxq
			c.DecodeQ(0, q, tc.shift, dst)
			c.Advance()
			if got := c.Exp(0); got != tc.want {
				t.Fatalf("exp after round: got %d want %d", got, tc.want)
			}
		})
	}

	t.Run("clamp-floor", func(t *testing.T) {
		c := qCodec(n, per)
		for i := range q {
			q[i] = 0
		}
		for r := 0; r < 100; r++ {
			c.DecodeQ(0, q, 0, dst)
			c.Advance()
		}
		if got := c.Exp(0); got != expFloor {
			t.Fatalf("exp after 100 silent rounds: got %d want floor %d", got, expFloor)
		}
	})
	t.Run("clamp-ceil", func(t *testing.T) {
		c := qCodec(n, per)
		for i := range q {
			q[i] = 0
		}
		q[0] = kernels.QuantMax
		for r := 0; r < 100; r++ {
			c.DecodeQ(0, q, 16, dst)
			c.Advance()
		}
		if got := c.Exp(0); got != expCeil {
			t.Fatalf("exp after 100 pegged rounds: got %d want ceil %d", got, expCeil)
		}
	})
}

// TestDecodeIdempotent: decoding the same segment twice (a re-served
// shadow copy after loss) yields the same floats and the same derived
// next exponent.
func TestDecodeIdempotent(t *testing.T) {
	const n, per = 16, 16
	c := qCodec(n, per)
	q := make([]int32, n)
	for i := range q {
		q[i] = int32(i*531 - 4000)
	}
	d1 := make([]float32, n)
	d2 := make([]float32, n)
	c.DecodeQ(0, q, 3, d1)
	next1 := c.nextExp[0]
	c.DecodeQ(0, q, 3, d2)
	if c.nextExp[0] != next1 {
		t.Fatalf("nextExp moved on re-decode: %d then %d", next1, c.nextExp[0])
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("elem %d: %v then %v — decode not idempotent", i, d1[i], d2[i])
		}
	}
}

// TestShiftFoldsExactly: decoding (q, shift) equals decoding the
// re-widened values (q<<shift, 0) — the narrowed sum has at most 15
// significand bits, so folding the shift into the scale is exact.
func TestShiftFoldsExactly(t *testing.T) {
	const n, per = 16, 16
	q := make([]int32, n)
	for i := range q {
		q[i] = int32(i*4001 - 30000)
	}
	wide := make([]int32, n)
	for i := range wide {
		wide[i] = q[i] << 6
	}
	a, b := qCodec(n, per), qCodec(n, per)
	d1 := make([]float32, n)
	d2 := make([]float32, n)
	a.DecodeQ(0, q, 6, d1)
	b.DecodeQ(0, wide, 0, d2)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("elem %d: shifted %v, widened %v", i, d1[i], d2[i])
		}
	}
}

// TestSelectTopKPartition: the selection holds exactly the k
// largest-magnitude elements, partitioned into per-segment ascending
// local indices with matching values.
func TestSelectTopKPartition(t *testing.T) {
	const n, per = 100, 32
	c := NewCodec(Config{Scheme: protocol.CompTopK, TopKFrac: 0.10}, n, per)
	grad := make([]float32, n)
	for i := range grad {
		grad[i] = float32((i*37)%101-50) * 0.01
	}
	c.SelectTopK(grad)

	segs := protocol.SegmentCountWith(n, per)
	total := 0
	var minKeptMag float32 = math.MaxFloat32
	selected := make(map[int]bool)
	for s := 0; s < segs; s++ {
		idx, vals := c.Sparse(uint64(s))
		if len(idx) != len(vals) {
			t.Fatalf("segment %d: %d indices, %d values", s, len(idx), len(vals))
		}
		for j, li := range idx {
			if j > 0 && idx[j-1] >= li {
				t.Fatalf("segment %d: local indices not ascending: %v", s, idx)
			}
			gi := s*per + int(li)
			if vals[j] != grad[gi] {
				t.Fatalf("segment %d entry %d: value %v, gradient[%d] %v", s, j, vals[j], gi, grad[gi])
			}
			selected[gi] = true
			if m := float32(math.Abs(float64(vals[j]))); m < minKeptMag {
				minKeptMag = m
			}
		}
		total += len(idx)
	}
	if want := 10; total != want {
		t.Fatalf("selected %d elements, want %d", total, want)
	}
	// No unselected element strictly exceeds the smallest kept magnitude.
	for i, v := range grad {
		if !selected[i] && float32(math.Abs(float64(v))) > minKeptMag {
			t.Fatalf("element %d (|%v|) skipped while smaller magnitude %v was kept", i, v, minKeptMag)
		}
	}
}

// TestSparsePrevRotation: after the next SelectTopK, SparsePrev serves
// the previous round's selection bit-identically.
func TestSparsePrevRotation(t *testing.T) {
	const n, per = 64, 32
	c := NewCodec(Config{Scheme: protocol.CompTopK, TopKFrac: 0.10}, n, per)
	g1 := make([]float32, n)
	g2 := make([]float32, n)
	for i := range g1 {
		g1[i] = float32(i) * 0.01
		g2[i] = float32(n-i) * 0.02
	}
	c.SelectTopK(g1)
	segs := protocol.SegmentCountWith(n, per)
	type sel struct {
		idx  []uint16
		vals []float32
	}
	first := make([]sel, segs)
	for s := range first {
		idx, vals := c.Sparse(uint64(s))
		first[s] = sel{append([]uint16(nil), idx...), append([]float32(nil), vals...)}
	}
	c.SelectTopK(g2)
	for s := range first {
		idx, vals := c.SparsePrev(uint64(s))
		if len(idx) != len(first[s].idx) {
			t.Fatalf("segment %d: prev has %d entries, original %d", s, len(idx), len(first[s].idx))
		}
		for j := range idx {
			if idx[j] != first[s].idx[j] || vals[j] != first[s].vals[j] {
				t.Fatalf("segment %d entry %d: prev (%d,%v), original (%d,%v)",
					s, j, idx[j], vals[j], first[s].idx[j], first[s].vals[j])
			}
		}
	}
}
