package perfmodel

import "time"

// Token-bucket egress shaping: the enforcement half of the fairness
// story. JainFairness measures how wire bytes were shared; a TokenBucket
// bounds how they CAN be shared — a job whose weight entitles it to a
// fraction of a link is given a bucket refilling at that fraction of
// the line rate, and every frame it transmits must first draw its wire
// bytes from the bucket. The model is deterministic lazy virtual time
// (no randomness, no background refill process): tokens accrue from
// the elapsed time at each call. Enforcement is policing (TakeAt): an
// uncovered frame is refused and charged nothing.

// TokenBucket is one job's budget on one egress port.
type TokenBucket struct {
	bytesPerSec float64
	burst       float64 // bucket depth in bytes
	tokens      float64 // current level
	last        time.Duration
}

// NewTokenBucket creates a full bucket refilling at rateBitsPerSec with
// burstBytes of depth. Rate and burst must be positive.
func NewTokenBucket(rateBitsPerSec, burstBytes float64) *TokenBucket {
	if rateBitsPerSec <= 0 {
		panic("perfmodel: token bucket needs a positive rate")
	}
	if burstBytes <= 0 {
		panic("perfmodel: token bucket needs a positive burst")
	}
	return &TokenBucket{bytesPerSec: rateBitsPerSec / 8, burst: burstBytes, tokens: burstBytes}
}

// TakeAt refills the bucket to virtual time now and consumes n bytes
// only if the level covers them, reporting whether it did — policer
// semantics: an over-rate frame is refused outright (and charged
// nothing) instead of being granted a delayed release: delaying an
// over-rate tenant's frames in the switch egress port's FIFO would
// head-of-line block every other tenant behind its backlog, while
// policing drops only the offender's excess.
func (tb *TokenBucket) TakeAt(now time.Duration, n int) bool {
	if elapsed := now - tb.last; elapsed > 0 {
		tb.tokens += tb.bytesPerSec * elapsed.Seconds()
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	if now > tb.last {
		tb.last = now
	}
	if tb.tokens < float64(n) {
		return false
	}
	tb.tokens -= float64(n)
	return true
}

// EgressShaper maps jobs to token buckets on one egress port. Jobs
// without a bucket (the default job 0 included) are never policed, so a
// shaper-armed port carrying only unshaped traffic behaves exactly like
// an unshaped port.
type EgressShaper struct {
	buckets map[uint16]*TokenBucket

	// Policed counts frames refused by Admit, per job and in total —
	// the enforcement evidence the isolation experiment gates on (a
	// compliant tenant must show zero).
	Policed      uint64
	PolicedByJob map[uint16]uint64
}

// NewEgressShaper returns a shaper with no buckets installed.
func NewEgressShaper() *EgressShaper {
	return &EgressShaper{buckets: make(map[uint16]*TokenBucket)}
}

// Limit installs (or replaces) a job's bucket: rateBitsPerSec of refill
// and burstBytes of depth.
func (s *EgressShaper) Limit(job uint16, rateBitsPerSec, burstBytes float64) {
	s.buckets[job] = NewTokenBucket(rateBitsPerSec, burstBytes)
}

// Forget removes a job's bucket (the job leaves the fabric).
func (s *EgressShaper) Forget(job uint16) { delete(s.buckets, job) }

// Limited reports whether a job has a bucket installed.
func (s *EgressShaper) Limited(job uint16) bool { return s.buckets[job] != nil }

// Admit implements the netsim policer hook: true when the job's bucket
// covers the frame (or the job has no bucket), false when the frame
// must be dropped at egress.
func (s *EgressShaper) Admit(now time.Duration, job uint16, n int) bool {
	tb := s.buckets[job]
	if tb == nil {
		return true
	}
	if tb.TakeAt(now, n) {
		return true
	}
	s.Policed++
	if s.PolicedByJob == nil {
		s.PolicedByJob = make(map[uint16]uint64)
	}
	s.PolicedByJob[job]++
	return false
}
