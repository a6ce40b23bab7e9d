// Package switchnet puts the iSwitch engine (internal/engine: the
// paper's control plane and in-switch aggregation, §3.2–3.4) on the
// simulated network: a tap diverts ToS-tagged packets out of a
// netsim.Switch's normal forwarding path into the engine, and the
// engine's emissions leave through the switch's ports in virtual time —
// all without disturbing regular traffic. The fabric builders pair every
// plain topology with such a switch per aggregation level.
package switchnet

import (
	"time"

	"iswitch/internal/engine"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
)

// ISwitch augments a netsim.Switch with the iSwitch engine: it is the
// engine's discrete-event driver. The augmentation is a
// "bump-in-the-wire": the tap hands the engine only the ToS-tagged
// packets addressed to this switch; everything else follows the normal
// lookup tables. Jobs, membership, thresholds, recovery and preemption
// are the embedded engine's (AdmitJob, Membership, ForceThreshold,
// SetLivenessHorizon, PreemptJob, …), as are the activity counters.
type ISwitch struct {
	*engine.Engine
	sw *netsim.Switch

	// shapers holds the per-port egress shapers installed by
	// LimitJobEgressOn (nil until the first limit; see shaping.go).
	shapers map[*netsim.Port]*perfmodel.EgressShaper

	parent protocol.Addr // the next level up, reached through uplink
	uplink *netsim.Port  // nil on the root; broadcasts from the parent arrive here
}

// attach builds the iSwitch extension on top of sw as a root level.
// addr is the switch's own protocol address (used as the source of
// aggregated packets and as the destination its children send to).
func attach(sw *netsim.Switch, addr protocol.Addr) *ISwitch {
	is := &ISwitch{sw: sw}
	is.Engine = engine.New(addr, (*driver)(is))
	sw.SetTap(is.tap)
	return is
}

// Switch returns the underlying forwarding switch.
func (is *ISwitch) Switch() *netsim.Switch { return is.sw }

// Uplink returns this switch's port toward its parent level (nil on the
// root); the parent's port for the same link is its Peer.
func (is *ISwitch) Uplink() *netsim.Port { return is.uplink }

// tap is the data-plane intercept. It runs in kernel context after the
// switch's forwarding-pipeline delay.
func (is *ISwitch) tap(pkt *protocol.Packet, in *netsim.Port) bool {
	return is.Handle(pkt, is.uplink != nil && in == is.uplink)
}

// driver is the ISwitch as its engine sees it (engine.Driver), kept off
// the ISwitch's own method set: frames leave along the switch's normal
// forwarding path or its uplink, and the accelerator's latency is an
// event on the switch's kernel.
type driver ISwitch

func (d *driver) Forward(pkt *protocol.Packet, dst protocol.Addr) { d.sw.Forward(pkt, dst) }
func (d *driver) SendUp(pkt *protocol.Packet)                     { d.uplink.Send(pkt) }
func (d *driver) Now() time.Duration                              { return d.sw.Kernel().Now() }
func (d *driver) After(t time.Duration, fn func())                { d.sw.Kernel().After(t, fn) }
