package engine

import (
	"testing"
	"time"

	"iswitch/internal/protocol"
)

// backoffReference is the simulated worker's Help timer as it stood
// before the rule moved into the client engine, kept verbatim as the
// reference: base doubled per level (capped at 16× base) plus a jitter
// hashed from the worker index, the round and the level.
func backoffReference(base time.Duration, idx int, round uint64, level int) time.Duration {
	lvl := min(level, 6)
	to := min(base<<uint(lvl), 16*base)
	h := (uint64(idx)+1)*0x9e3779b97f4a7c15 ^ round*0xbf58476d1ce4e5b9 ^ uint64(lvl)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return to + time.Duration(h%uint64(to/4+1))
}

// Wait is the old backoff to the nanosecond, so the simulated worker's
// virtual time does not move: every level, rounds on both sides of the
// round-tag wrap, eight keys and three bases.
func TestHelpTimerMatchesBackoff(t *testing.T) {
	rounds := []uint64{0, 1, 2, 3, 4, 5,
		protocol.RoundTagMod - 1, protocol.RoundTagMod, protocol.RoundTagMod + 1, 3*protocol.RoundTagMod + 2}
	for _, base := range []time.Duration{time.Nanosecond, 3 * time.Millisecond, 5 * time.Second} {
		for key := 0; key < 8; key++ {
			var c Client
			c.Init(&emissions{t: t, self: clientAddr}, clientAddr, switchAddr, 0, fuzzN, fuzzPer,
				protocol.CompNone, Recovery{Timeout: base, Key: uint64(key)})
			for _, round := range rounds {
				for level := 0; level <= 9; level++ {
					c.round, c.level = round, level
					if got, want := c.Wait(), backoffReference(base, key, round, level); got != want {
						t.Fatalf("base %v key %d round %d level %d: Wait %v, want %v", base, key, round, level, got, want)
					}
				}
			}
		}
	}
	var off Client
	off.Init(&emissions{t: t, self: clientAddr}, clientAddr, switchAddr, 0, fuzzN, fuzzPer, protocol.CompNone, Recovery{})
	if w := off.Wait(); w != 0 {
		t.Fatalf("recovery off: Wait %v, want 0", w)
	}
}

// The verdicts of an expired timer, event by event: what counts toward
// failover (no data and no Ack), what counts toward giving up (no share
// of the aggregate), what resets each, and that failover is sticky.
func TestHelpTimerVerdicts(t *testing.T) {
	const expire, ack, share, failover = "expire", "ack", "share", "failover"
	type step struct {
		event string
		want  Verdict // for expire
		level int     // after the step
	}
	cases := []struct {
		name string
		rec  Recovery
		seq  []step
	}{
		{"failover at FailoverAfter", Recovery{FailoverAfter: 3}, []step{
			{expire, Helped, 1}, {expire, Helped, 2}, {expire, FailOver, 3}, {expire, FailOver, 4}}},
		{"an Ack resets fruitless, not level", Recovery{FailoverAfter: 2, GiveUpAfter: 4}, []step{
			{expire, Helped, 1}, {ack, 0, 1}, {expire, Helped, 2}, {ack, 0, 2}, {expire, Helped, 3},
			{ack, 0, 3}, {expire, GiveUp, 4}}},
		{"data resets both", Recovery{FailoverAfter: 2, GiveUpAfter: 3}, []step{
			{expire, Helped, 1}, {share, 0, 0}, {expire, Helped, 1}, {expire, FailOver, 2},
			{share, 0, 0}, {expire, Helped, 1}}},
		{"give up at the bound", Recovery{GiveUpAfter: 3}, []step{
			{expire, Helped, 1}, {expire, Helped, 2}, {expire, GiveUp, 3}, {expire, GiveUp, 4}}},
		{"no failover after Failover", Recovery{FailoverAfter: 1}, []step{
			{expire, FailOver, 1}, {failover, 0, 0}, {expire, Helped, 1}, {expire, Helped, 2}, {expire, Helped, 3}}},
		{"neither bound: Help forever", Recovery{}, []step{
			{expire, Helped, 1}, {expire, Helped, 2}, {expire, Helped, 3}, {expire, Helped, 4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &emissions{t: t, self: clientAddr}
			var c Client
			tc.rec.Timeout = time.Millisecond
			c.Init(rec, clientAddr, switchAddr, 0, fuzzN, fuzzPer, protocol.CompNone, tc.rec)
			c.Upload(make([]float32, fuzzN), -1)
			c.Expect()
			seg := uint64(0)
			for i, st := range tc.seq {
				rec.out = nil
				switch st.event {
				case expire:
					v, helps, _ := c.Expire()
					if v != st.want {
						t.Fatalf("step %d: verdict %d, want %d", i, v, st.want)
					}
					if wantHelps := c.asm.Remaining(); v == Helped && (helps != wantHelps || len(rec.out) != helps) {
						t.Fatalf("step %d: %d Helps (%d sent), want one per missing segment, %d", i, helps, len(rec.out), wantHelps)
					} else if v != Helped && len(rec.out) != 0 {
						t.Fatalf("step %d: verdict %d sent %+v", i, v, rec.out)
					}
				case ack:
					c.Take(protocol.NewControl(switchAddr, clientAddr, protocol.ActionAck, protocol.AckOK))
				case share:
					lo, hi := protocol.SegmentRangeWith(fuzzN, seg, fuzzPer)
					c.Take(protocol.NewData(switchAddr, clientAddr, protocol.TagSeg(c.Round(), seg), make([]float32, hi-lo)))
					seg++
				case failover:
					c.Failover(switchAddr)
				}
				if c.level != st.level {
					t.Fatalf("step %d (%s): level %d, want %d", i, st.event, c.level, st.level)
				}
			}
		})
	}
}
