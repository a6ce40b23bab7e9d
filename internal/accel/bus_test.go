package accel

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// scanBus is the shared bus as a scan over every job's horizon: the
// reference SharedBus's leading pair must reproduce exactly.
type scanBus struct {
	horizon   map[uint16]time.Duration
	bursts    uint64
	contended uint64
	wait      time.Duration
}

func (b *scanBus) charge(now time.Duration, job uint16, d time.Duration) time.Duration {
	start := now
	for j, h := range b.horizon {
		if j != job && h > start {
			start = h
		}
	}
	finish := start + d
	if finish > b.horizon[job] {
		b.horizon[job] = finish
	}
	b.bursts++
	if start > now {
		b.contended++
		b.wait += start - now
	}
	return finish - now
}

// leader returns a job holding the largest horizon, and whether another
// job holds the same one.
func (b *scanBus) leader() (lead uint16, tied bool) {
	var top time.Duration
	for j, h := range b.horizon {
		switch {
		case h > top:
			lead, top, tied = j, h, false
		case h == top && h > 0:
			tied = true
		}
	}
	return lead, tied
}

// TestSharedBusMatchesScan runs seeded scripts of Charge and Forget
// over 1 to 64 jobs against the scan, on a coarse time grid so that
// horizons tie, and checks every latency and counter. The scripts
// forget the leader, charge forgotten jobs again and jump past every
// horizon; the test fails if they stop doing so.
func TestSharedBusMatchesScan(t *testing.T) {
	var ties, leaderForgets, recharges, idle int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		jobs := make([]uint16, n)
		for i := range jobs {
			jobs[i] = uint16(rng.Intn(2 * n)) // repeats and job 0 included
		}
		bus := NewSharedBus()
		ref := &scanBus{horizon: map[uint16]time.Duration{}}
		forgotten := map[uint16]bool{}
		now := time.Duration(0)
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(20); {
			case r == 0:
				lead, _ := ref.leader()
				bus.Forget(lead)
				delete(ref.horizon, lead)
				forgotten[lead] = true
				leaderForgets++
			case r == 1:
				job := jobs[rng.Intn(n)]
				bus.Forget(job)
				delete(ref.horizon, job)
				forgotten[job] = true
			case r == 2:
				for _, h := range ref.horizon {
					now = max(now, h)
				}
				now += time.Duration(1+rng.Intn(3)) * 10 * time.Nanosecond
				idle++
			default:
				now += time.Duration(rng.Intn(3)) * 10 * time.Nanosecond
				job := jobs[rng.Intn(n)]
				if forgotten[job] {
					delete(forgotten, job)
					recharges++
				}
				if _, tied := ref.leader(); tied {
					ties++
				}
				d := time.Duration(rng.Intn(4)) * 10 * time.Nanosecond
				want := ref.charge(now, job, d)
				if got := bus.Charge(now, job, d); got != want {
					t.Fatalf("seed %d step %d: job %d at %v charged %v, scan %v", seed, step, job, now, got, want)
				}
			}
			if bus.Bursts != ref.bursts || bus.Contended != ref.contended || bus.WaitTime != ref.wait {
				t.Fatalf("seed %d step %d: bursts/contended/wait %d/%d/%v, scan %d/%d/%v", seed, step,
					bus.Bursts, bus.Contended, bus.WaitTime, ref.bursts, ref.contended, ref.wait)
			}
		}
		for _, j := range jobs {
			if got, want := bus.HorizonOf(j), ref.horizon[j]; got != want {
				t.Fatalf("seed %d: job %d horizon %v, scan %v", seed, j, got, want)
			}
		}
	}
	if ties < 1000 || leaderForgets < 500 || recharges < 500 || idle < 500 {
		t.Fatalf("scripts too tame: %d ties, %d leader forgets, %d re-charges, %d idle jumps",
			ties, leaderForgets, recharges, idle)
	}
}

// TestSharedBusChargeAllocFree pins the per-frame cost of tenancy: once
// its jobs are admitted, charging the bus allocates nothing.
func TestSharedBusChargeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	bus := NewSharedBus()
	for j := uint16(1); j <= 64; j++ {
		bus.Admit(j)
	}
	now := time.Duration(0)
	if n := testing.AllocsPerRun(100, func() {
		for j := uint16(1); j <= 64; j++ {
			now += 10 * time.Nanosecond
			bus.Charge(now, j, 280*time.Nanosecond)
		}
	}); n != 0 {
		t.Fatalf("64 charges allocated %.1f times, want 0", n)
	}
}

// BenchmarkSharedBusCharge measures one data frame's bus charge at a
// switch carrying 1, 8 or 64 jobs whose bursts interleave.
func BenchmarkSharedBusCharge(b *testing.B) {
	for _, jobs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			bus := NewSharedBus()
			now := time.Duration(0)
			for j := 1; j <= jobs; j++ {
				bus.Charge(now, uint16(j), 280*time.Nanosecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 10 * time.Nanosecond
				bus.Charge(now, uint16(1+i%jobs), 280*time.Nanosecond)
			}
		})
	}
}
