package accel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"iswitch/internal/protocol"
)

func newTest(h uint32) *Accelerator {
	cfg := DefaultConfig()
	cfg.Threshold = h
	return New(cfg)
}

func TestIngestEmitsAtThreshold(t *testing.T) {
	a := newTest(4)
	for w := 0; w < 3; w++ {
		sum, done, _ := a.Ingest(0, []float32{1, 2, 3})
		if done || sum != nil {
			t.Fatalf("emitted after %d of 4 contributions", w+1)
		}
	}
	sum, done, _ := a.Ingest(0, []float32{1, 2, 3})
	if !done {
		t.Fatal("no emission at threshold")
	}
	want := []float32{4, 8, 12}
	for i := range want {
		if sum[i] != want[i] {
			t.Fatalf("sum = %v, want %v", sum, want)
		}
	}
	if a.Pending() != 0 {
		t.Fatalf("pending = %d after emission", a.Pending())
	}
}

func TestSegmentsAreIndependent(t *testing.T) {
	a := newTest(2)
	a.Ingest(0, []float32{1})
	a.Ingest(7, []float32{10})
	sum0, done0, _ := a.Ingest(0, []float32{2})
	if !done0 || sum0[0] != 3 {
		t.Fatalf("seg 0: done=%v sum=%v", done0, sum0)
	}
	sum7, done7, _ := a.Ingest(7, []float32{20})
	if !done7 || sum7[0] != 30 {
		t.Fatalf("seg 7: done=%v sum=%v", done7, sum7)
	}
}

func TestBufferZeroedBetweenRounds(t *testing.T) {
	a := newTest(2)
	a.Ingest(0, []float32{5})
	a.Ingest(0, []float32{5}) // emits 10, buffer must reset
	a.Ingest(0, []float32{1})
	sum, done, _ := a.Ingest(0, []float32{1})
	if !done || sum[0] != 2 {
		t.Fatalf("second round sum = %v (stale buffer?)", sum)
	}
}

func TestSetThreshold(t *testing.T) {
	a := newTest(4)
	if err := a.SetThreshold(2); err != nil {
		t.Fatal(err)
	}
	a.Ingest(0, []float32{1})
	_, done, _ := a.Ingest(0, []float32{1})
	if !done {
		t.Fatal("threshold update not applied")
	}
	if err := a.SetThreshold(0); err == nil {
		t.Fatal("accepted H=0")
	}
}

func TestReset(t *testing.T) {
	a := newTest(3)
	a.Ingest(0, []float32{1})
	a.Ingest(1, []float32{1})
	a.Reset()
	if a.Pending() != 0 {
		t.Fatalf("pending = %d after reset", a.Pending())
	}
	a.Ingest(0, []float32{2})
	a.Ingest(0, []float32{2})
	sum, done, _ := a.Ingest(0, []float32{2})
	if !done || sum[0] != 6 {
		t.Fatalf("post-reset sum = %v done=%v (counter not cleared)", sum, done)
	}
}

func TestFlushPartial(t *testing.T) {
	a := newTest(4)
	a.Ingest(3, []float32{1, 1})
	a.Ingest(3, []float32{2, 2})
	if count := a.CountOf(3); count != 2 {
		t.Fatalf("flush: count=%d", count)
	}
	sum, ok := a.Flush(3)
	if !ok || sum.Enc != protocol.CompNone {
		t.Fatalf("flush: ok=%v enc=%v", ok, sum.Enc)
	}
	if sum.Data[0] != 3 || sum.Data[1] != 3 {
		t.Fatalf("flush sum = %v", sum.Data)
	}
	if _, ok := a.Flush(3); ok {
		t.Fatal("second flush of same segment succeeded")
	}
}

func TestFlushAllOrdering(t *testing.T) {
	a := newTest(4)
	for _, s := range []uint64{9, 2, 5} {
		a.Ingest(s, []float32{1})
	}
	got := a.FlushAll()
	want := []uint64{2, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FlushAll order = %v, want %v", got, want)
		}
	}
	if a.Pending() != 0 {
		t.Fatal("segments remain after FlushAll")
	}
}

func TestLatencyScalesWithPayload(t *testing.T) {
	a := newTest(1)
	small := a.PacketLatency(8)   // one burst of payload
	large := a.PacketLatency(366) // full packet
	if small <= 0 || large <= small {
		t.Fatalf("latencies small=%v large=%v", small, large)
	}
	// 366 floats = 1464 bytes = 46 bursts; header = 50 bytes = 2 bursts;
	// pipeline 8 → 56 cycles at 200MHz = 280ns.
	want := 280 * time.Nanosecond
	if large != want {
		t.Fatalf("full-packet latency = %v, want %v", large, want)
	}
}

func TestStatsAccounting(t *testing.T) {
	a := newTest(2)
	a.Ingest(0, make([]float32, 366))
	a.Ingest(0, make([]float32, 366))
	a.Ingest(1, []float32{1})
	st := a.Stats()
	if st.PacketsIn != 3 || st.PacketsOut != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BurstsAdded != 46+46+1 {
		t.Fatalf("bursts = %d", st.BurstsAdded)
	}
	a.FlushAll()
	if a.Stats().Flushes != 1 {
		t.Fatalf("flushes = %d", a.Stats().Flushes)
	}
}

// Property: for any packet arrival interleaving across workers, the
// emitted sums equal the element-wise sum of worker contributions.
// Integer-valued floats make float32 addition exactly associative here.
func TestAggregationOrderInvariantQuick(t *testing.T) {
	f := func(seed int64, nWorkers8 uint8, nSegs8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nWorkers := int(nWorkers8%6) + 2 // 2..7
		nSegs := int(nSegs8%5) + 1       // 1..5
		segLen := 16

		// Worker contributions: small integers, exact in float32.
		contrib := make([][][]float32, nWorkers)
		for w := range contrib {
			contrib[w] = make([][]float32, nSegs)
			for s := range contrib[w] {
				v := make([]float32, segLen)
				for i := range v {
					v[i] = float32(rng.Intn(200) - 100)
				}
				contrib[w][s] = v
			}
		}
		// Random interleaving of (worker, seg) packet arrivals.
		type pkt struct{ w, s int }
		var order []pkt
		for w := 0; w < nWorkers; w++ {
			for s := 0; s < nSegs; s++ {
				order = append(order, pkt{w, s})
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		a := newTest(uint32(nWorkers))
		emitted := make(map[int][]float32)
		for _, pk := range order {
			sum, done, _ := a.Ingest(uint64(pk.s), contrib[pk.w][pk.s])
			if done {
				emitted[pk.s] = sum
			}
		}
		if len(emitted) != nSegs || a.Pending() != 0 {
			return false
		}
		for s := 0; s < nSegs; s++ {
			for i := 0; i < segLen; i++ {
				var want float32
				for w := 0; w < nWorkers; w++ {
					want += contrib[w][s][i]
				}
				if emitted[s][i] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// With arbitrary floats the sum depends on addition order only within
// float32 rounding; verify the result stays within a tight relative
// tolerance of the float64 reference.
func TestAggregationFloatTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const workers, n = 8, 512
	contrib := make([][]float32, workers)
	ref := make([]float64, n)
	for w := range contrib {
		contrib[w] = make([]float32, n)
		for i := range contrib[w] {
			contrib[w][i] = (rng.Float32()*2 - 1) * 10
			ref[i] += float64(contrib[w][i])
		}
	}
	a := newTest(workers)
	var sum []float32
	for w := 0; w < workers; w++ {
		var done bool
		sum, done, _ = a.Ingest(0, contrib[w])
		if done != (w == workers-1) {
			t.Fatalf("done=%v at worker %d", done, w)
		}
	}
	for i := range sum {
		if math.Abs(float64(sum[i])-ref[i]) > 1e-3 {
			t.Fatalf("element %d: %v vs reference %v", i, sum[i], ref[i])
		}
	}
}

func TestWholeVectorMatchesOnTheFly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const workers, n = 4, 300
	contrib := make([][]float32, workers)
	for w := range contrib {
		contrib[w] = make([]float32, n)
		for i := range contrib[w] {
			contrib[w][i] = float32(rng.Intn(100))
		}
	}
	wv := NewWholeVector(n, workers)
	a := newTest(workers)
	var fly []float32
	for w := 0; w < workers; w++ {
		if err := wv.Add(contrib[w]); err != nil {
			t.Fatal(err)
		}
		s, done, _ := a.Ingest(0, contrib[w])
		if done {
			fly = s
		}
	}
	sum, err := wv.Sum()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sum {
		if sum[i] != fly[i] {
			t.Fatalf("element %d: whole-vector %v vs on-the-fly %v", i, sum[i], fly[i])
		}
	}
}

func TestWholeVectorErrors(t *testing.T) {
	wv := NewWholeVector(4, 2)
	if err := wv.Add([]float32{1}); err == nil {
		t.Fatal("accepted wrong length")
	}
	if _, err := wv.Sum(); err == nil {
		t.Fatal("summed before ready")
	}
	wv.Add(make([]float32, 4))
	wv.Add(make([]float32, 4))
	if err := wv.Add(make([]float32, 4)); err == nil {
		t.Fatal("accepted extra vector")
	}
	if _, err := wv.Sum(); err != nil {
		t.Fatal(err)
	}
	// Reusable after Sum.
	if err := wv.Add(make([]float32, 4)); err != nil {
		t.Fatal(err)
	}
}

func TestSumLatency(t *testing.T) {
	d := SumLatency(1000, 4, 1e9)
	if d != 4*time.Microsecond {
		t.Fatalf("SumLatency = %v, want 4µs", d)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{BusWidthBits: 0, ClockHz: 1e6},
		{BusWidthBits: 100, ClockHz: 1e6},
		{BusWidthBits: 256, ClockHz: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", bad)
				}
			}()
			New(bad)
		}()
	}
	if DefaultConfig().AddersPerCycle() != 8 {
		t.Fatalf("adders per cycle = %d, want 8", DefaultConfig().AddersPerCycle())
	}
}
