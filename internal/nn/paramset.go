package nn

import (
	"fmt"
	"math"

	"iswitch/internal/tensor"
)

// ParamSet groups the networks an agent trains (e.g. DDPG's actor and
// critic) behind one flat view — the gradient vector a worker ships to
// the switch and the weight vector every replica keeps in lockstep.
// Target networks are excluded: they are derived state, not trained
// parameters, and the paper's gradient traffic does not include them.
type ParamSet struct {
	nets  []*MLP
	opts  []Optimizer
	total int
}

// NewParamSet pairs each network with its optimizer.
func NewParamSet(nets []*MLP, opts []Optimizer) *ParamSet {
	if len(nets) != len(opts) {
		panic("nn: nets/opts length mismatch")
	}
	ps := &ParamSet{nets: nets, opts: opts}
	for _, n := range nets {
		ps.total += n.ParamCount()
	}
	return ps
}

// Len returns the combined number of trainable scalars.
func (ps *ParamSet) Len() int { return ps.total }

// ZeroGrads clears every network's gradient accumulator.
func (ps *ParamSet) ZeroGrads() {
	for _, n := range ps.nets {
		n.ZeroGrads()
	}
}

// ReadGrads concatenates all gradients into dst (len must equal Len).
func (ps *ParamSet) ReadGrads(dst []float32) {
	ps.scatterGather(dst, true, false)
}

// WriteGrads splits src back into each network's gradient storage.
func (ps *ParamSet) WriteGrads(src []float32) {
	ps.scatterGather(src, true, true)
}

// ReadParams concatenates all parameters into dst.
func (ps *ParamSet) ReadParams(dst []float32) {
	ps.scatterGather(dst, false, false)
}

// WriteParams overwrites each network's parameters from src.
func (ps *ParamSet) WriteParams(src []float32) {
	ps.scatterGather(src, false, true)
}

func (ps *ParamSet) scatterGather(buf []float32, grads, write bool) {
	if len(buf) != ps.total {
		panic(fmt.Sprintf("nn: buffer len %d, want %d", len(buf), ps.total))
	}
	off := 0
	for _, n := range ps.nets {
		var view []float32
		if grads {
			view = n.Grads()
		} else {
			view = n.Params()
		}
		if write {
			copy(view, buf[off:off+len(view)])
		} else {
			copy(buf[off:off+len(view)], view)
		}
		off += len(view)
	}
}

// Step writes the (already averaged) gradient into the networks and
// applies each network's optimizer.
func (ps *ParamSet) Step(avgGrad []float32) {
	ps.WriteGrads(avgGrad)
	for i, n := range ps.nets {
		ps.opts[i].Step(n.Params(), n.Grads())
	}
}

// ClipEachNorm rescales each network's segment of the flat gradient
// buffer independently so its Euclidean norm is at most c. Separate
// clipping keeps a large critic gradient from drowning out the policy
// gradient when both travel in one aggregated vector.
func (ps *ParamSet) ClipEachNorm(buf []float32, c float32) {
	if len(buf) != ps.total {
		panic(fmt.Sprintf("nn: buffer len %d, want %d", len(buf), ps.total))
	}
	off := 0
	for _, n := range ps.nets {
		seg := buf[off : off+n.ParamCount()]
		var s float64
		for _, x := range seg {
			s += float64(x) * float64(x)
		}
		norm := float32(math.Sqrt(s))
		if norm > c && norm > 0 {
			tensor.Scale(c/norm, seg)
		}
		off += n.ParamCount()
	}
}
