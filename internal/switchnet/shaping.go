package switchnet

import (
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
)

// Egress shaping: the switch-side installation of per-job token
// buckets. The scheduler decides each job's weighted share of each
// port (which jobs actually contend there); this file just owns the
// per-port shaper instances and converts a fractional share into an
// absolute rate against the port's line speed.

// LimitJobEgressOn caps one job's share of one egress port of this
// switch: the job's frames on that port draw from a token bucket
// refilling at frac of the line rate with burstBytes of depth. Installs
// the port's shaper on first use; repeated calls replace the job's
// bucket. frac is clamped to (0, 1].
func (is *ISwitch) LimitJobEgressOn(port *netsim.Port, job protocol.JobID, frac, burstBytes float64) {
	if job == protocol.DefaultJob {
		return // the default job is never shaped
	}
	if frac <= 0 || burstBytes <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	if is.shapers == nil {
		is.shapers = make(map[*netsim.Port]*perfmodel.EgressShaper)
	}
	sh := is.shapers[port]
	if sh == nil {
		sh = perfmodel.NewEgressShaper()
		is.shapers[port] = sh
		port.SetShaper(sh)
	}
	sh.Limit(uint16(job), frac*port.Config().BitsPerSecond, burstBytes)
}

// ShaperOn returns the shaper installed on one of this switch's ports
// (nil if the port is unshaped) — observability for experiments.
func (is *ISwitch) ShaperOn(port *netsim.Port) *perfmodel.EgressShaper {
	if is.shapers == nil {
		return nil
	}
	return is.shapers[port]
}
