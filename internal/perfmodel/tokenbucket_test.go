package perfmodel

import (
	"testing"
	"time"
)

func TestTokenBucketTakeAtPolices(t *testing.T) {
	// 8 Mbit/s = 1 MB/s, 1000 B burst.
	tb := NewTokenBucket(8e6, 1000)

	// The burst is admitted; the next frame is refused, not delayed.
	if !tb.TakeAt(0, 1000) {
		t.Fatal("burst frame refused")
	}
	if tb.TakeAt(0, 1000) {
		t.Fatal("over-rate frame admitted")
	}
	// A refusal charges nothing: after 0.5 ms the bucket holds 500 B,
	// so a 500 B frame passes but a 501 B frame does not.
	if !tb.TakeAt(500*time.Microsecond, 500) {
		t.Fatal("refill not credited after refusal")
	}
	if tb.TakeAt(500*time.Microsecond, 1) {
		t.Fatal("empty bucket admitted a frame")
	}
	// Refill caps at the burst: after a long idle only 1000 B fit.
	if !tb.TakeAt(time.Second, 1000) {
		t.Fatal("post-idle burst refused")
	}
	if tb.TakeAt(time.Second, 1) {
		t.Fatal("refill exceeded the burst cap")
	}
}

func TestEgressShaperAdmitPolices(t *testing.T) {
	s := NewEgressShaper()
	s.Limit(3, 8e6, 1000)

	// Jobs without buckets are always admitted and never counted.
	for _, job := range []uint16{0, 1, 7} {
		if !s.Admit(0, job, 1_000_000) {
			t.Fatalf("unbucketed job %d policed", job)
		}
	}
	if s.Policed != 0 {
		t.Fatalf("Policed = %d before any bucketed traffic", s.Policed)
	}

	// The bucketed job is refused once its burst is spent.
	if !s.Admit(0, 3, 1000) {
		t.Fatal("burst frame policed")
	}
	if s.Admit(0, 3, 1000) {
		t.Fatal("over-rate frame admitted")
	}
	if s.Policed != 1 || s.PolicedByJob[3] != 1 {
		t.Fatalf("policer stats = %d total / %v by job", s.Policed, s.PolicedByJob)
	}

	if !s.Limited(3) || s.Limited(4) {
		t.Fatal("Limited misreports bucket presence")
	}
	s.Forget(3)
	if s.Limited(3) {
		t.Fatal("Forget left the bucket installed")
	}
}
