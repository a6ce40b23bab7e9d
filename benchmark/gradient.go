package main

import (
	"math"
	"runtime"
	"time"

	"iswitch/internal/sim"
)

// gridStep is the spacing of every generated gradient value. Values are
// small integer multiples of 2^-8, so float32 sums of up to a few
// thousand of them are exact whatever order the fabric adds them in,
// and the benchmark can demand bit-equal aggregates.
const (
	gridStep = 1.0 / 256
	gridSpan = 16 // values lie in [-gridSpan, gridSpan] steps
)

// gradients is one job's seeded inputs: a base vector per worker and
// their exact element-wise sum. Round r's gradient is the base rotated
// by r elements, so consecutive rounds differ (a stale or cross-round
// aggregate fails the check) while generation and checking stay plain
// copies and compares.
type gradients struct {
	n    int
	base [][]float32
	sum  []float32
}

// gridValue steps the xorshift64* state s (fast, seedable, and off the
// timed path) and returns the next value on the grid.
func gridValue(s *uint64) float32 {
	x := *s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*s = x
	return float32(int((x*0x2545F4914F6CDD1D)>>33)%(2*gridSpan+1)-gridSpan) * gridStep
}

func newGradients(seed int64, workers, n int) *gradients {
	g := &gradients{n: n, sum: make([]float32, n)}
	s := uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for w := 0; w < workers; w++ {
		b := make([]float32, n)
		for i := range b {
			b[i] = gridValue(&s)
			g.sum[i] += b[i]
		}
		g.base = append(g.base, b)
	}
	return g
}

func rotate(dst, src []float32, by int) {
	by %= len(src)
	copy(dst, src[by:])
	copy(dst[len(src)-by:], src[:by])
}

// fill writes worker w's round-r gradient into dst.
func (g *gradients) fill(dst []float32, w, r int) { rotate(dst, g.base[w], r) }

// matches reports whether got is round r's expected aggregate times
// scale, every element within tol (0 demands bit equality).
func (g *gradients) matches(got, want []float32, r int, scale, tol float32) bool {
	if len(got) != g.n {
		return false
	}
	by := r % g.n
	return closeTo(got[:g.n-by], want[by:], scale, tol) && closeTo(got[g.n-by:], want[:by], scale, tol)
}

func closeTo(got, want []float32, scale, tol float32) bool {
	for i, v := range got {
		if d := v - want[i]*scale; d > tol || d < -tol {
			return false
		}
	}
	return true
}

// A probe holds one kernel run's host-side measurements. The agents
// the benchmark injects share it; because simulated processes run one
// at a time it needs no lock.
type probe struct {
	k     *sim.Kernel // nil for the socket workload
	procs int         // live simulated processes when the first round began
	t0    time.Time   // set-up began
	first time.Time   // the first ComputeGradient call: set-up is over
	mem0  runtime.MemStats

	// own is host time spent inside the benchmark's own agent code
	// (generating and checking gradients) since first; it is taken out
	// of every run-phase time so the harness does not measure itself.
	own time.Duration
	// ends are the lead agent's round ends, as run-phase host time.
	ends []time.Duration

	attempted, failed int
}

func (p *probe) begin() {
	if p.first.IsZero() {
		if p.k != nil {
			p.procs = p.k.Procs()
		}
		runtime.ReadMemStats(&p.mem0)
		p.first = time.Now()
	}
}

// agent is the rl.Agent the benchmark hands to the training loops: it
// emits seeded gradients and checks every aggregate it is given.
type agent struct {
	p      *probe
	g      *gradients
	worker int
	// lead marks the one agent per run whose round ends are recorded.
	lead bool
	// fixed agents emit worker 0's base vector every round. The
	// asynchronous pipelines sum any H in-flight vectors, so only a
	// worker- and round-independent input has a known aggregate.
	fixed bool
	// tol is the per-element tolerance (0: exact). With a tolerance the
	// workers' aggregates must still be bit-identical to each other:
	// seen holds the first one applied for each of the two rounds that
	// can be in flight.
	tol  float32
	seen *[2]seenSum

	sent, applied int
}

func (a *agent) Name() string { return "benchmark" }
func (a *agent) GradLen() int { return a.g.n }

func (a *agent) ComputeGradient(dst []float32) {
	a.p.begin()
	start := time.Now()
	if a.fixed {
		copy(dst, a.g.base[0])
	} else {
		a.g.fill(dst, a.worker, a.sent)
	}
	a.sent++
	a.p.own += time.Since(start)
}

func (a *agent) ApplyAggregated(sum []float32, h int) {
	start := time.Now()
	p := a.p
	p.attempted++
	if !a.check(sum, h) {
		p.failed++
	}
	a.applied++
	now := time.Now()
	p.own += now.Sub(start)
	if a.lead {
		p.ends = append(p.ends, now.Sub(p.first)-p.own)
	}
}

func (a *agent) check(sum []float32, h int) bool {
	if a.fixed {
		return a.g.matches(sum, a.g.base[0], 0, float32(h), a.tol)
	}
	if !a.g.matches(sum, a.g.sum, a.applied, 1, a.tol) {
		return false
	}
	if a.seen == nil {
		return true
	}
	// A worker can apply round r+2 only after every worker applied
	// round r, so two slots are enough.
	slot := &a.seen[a.applied%2]
	if slot.sum == nil || slot.round != a.applied {
		slot.round, slot.sum = a.applied, append(slot.sum[:0], sum...)
		return true
	}
	for i, v := range sum {
		if math.Float32bits(v) != math.Float32bits(slot.sum[i]) {
			return false
		}
	}
	return true
}

type seenSum struct {
	round int
	sum   []float32
}

func (a *agent) ReadParams(dst []float32)  {}
func (a *agent) WriteParams(src []float32) {}
func (a *agent) DrainEpisodes() []float64  { return nil }
