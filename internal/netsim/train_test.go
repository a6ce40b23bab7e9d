package netsim

import (
	"testing"

	"iswitch/internal/perfmodel"
	"iswitch/internal/sim"
)

// A train is Send per frame with the headers made late: over ports with
// loss, DropNth, down windows and a per-job shaper, sending each train
// burst as one train or frame by frame must give every port the same
// TxPackets, TxBytes, Dropped, Policed and per-job bytes, the same
// kernel events, and the same arrivals (time, segment, bytes) in the
// same order.
func TestTrainMatchesEager(t *testing.T) {
	shaper := func() Shaper {
		s := perfmodel.NewEgressShaper()
		s.Limit(1, 2e9, 3000) // a quarter of the 8 Gb/s link
		s.Limit(3, 1e9, 1500)
		return s
	}
	var trains, policed, dropped uint64
	for seed := int64(1); seed <= 40; seed++ {
		s := newOrderScript(seed, 2+int(seed%4), 30)
		eager := playPorts(sim.NewKernel(), s, false, shaper)
		train := playPorts(sim.NewKernel(), s, true, shaper)
		if train.events != eager.events {
			t.Fatalf("seed %d: %d kernel events with trains, %d without", seed, train.events, eager.events)
		}
		if len(train.trace) != len(eager.trace) {
			t.Fatalf("seed %d: %d arrivals with trains, %d without", seed, len(train.trace), len(eager.trace))
		}
		for i := range eager.trace {
			if train.trace[i] != eager.trace[i] {
				t.Fatalf("seed %d: arrival %d is %+v with trains, %+v without", seed, i, train.trace[i], eager.trace[i])
			}
		}
		for p := range eager.counters {
			if train.counters[p] != eager.counters[p] {
				t.Fatalf("seed %d port %d: counters %+v with trains, %+v without", seed, p, train.counters[p], eager.counters[p])
			}
			for i, job := range orderJobs {
				if train.tx[p][i] != eager.tx[p][i] {
					t.Fatalf("seed %d port %d: job %d sent %d bytes with trains, %d without", seed, p, job, train.tx[p][i], eager.tx[p][i])
				}
			}
			policed += eager.counters[p].policed
			dropped += eager.counters[p].dropped
		}
		for _, b := range s.bursts {
			if b.train {
				trains++
			}
		}
	}
	if trains < 400 || policed == 0 || dropped == 0 {
		t.Fatalf("%d trains, %d frames policed, %d dropped: the scripts do not test a train's losses", trains, policed, dropped)
	}
}
