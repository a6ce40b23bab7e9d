package core

import (
	"fmt"

	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/sim"
	"iswitch/internal/switchnet"
)

// The builder API. A ClusterSpec names a topology and an aggregation
// mode as data; Validate says whether the pairing is supported and Build
// turns it into a running cluster. Build is the only constructor.

// Topology selects the physical fabric.
type Topology int

const (
	// TopoStar is one switch with every worker (and any server) on it.
	TopoStar Topology = iota
	// TopoTree is the two-level rack hierarchy: ToRs under one root.
	TopoTree
	// TopoThreeTier is the ToR → AGG → Core hierarchy of Figure 10.
	TopoThreeTier
	// TopoFatTree is the k-ary fat-tree (in-switch mode only).
	TopoFatTree
)

func (t Topology) String() string {
	switch t {
	case TopoStar:
		return "star"
	case TopoTree:
		return "tree"
	case TopoThreeTier:
		return "3tier"
	case TopoFatTree:
		return "fattree"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Mode selects the aggregation strategy running over the fabric.
type Mode int

const (
	// ModeISW is in-switch aggregation (the paper's system).
	ModeISW Mode = iota
	// ModePS is the synchronous parameter server baseline.
	ModePS
	// ModeAsyncPS is the asynchronous parameter server baseline: the
	// same cluster without the synchronous server processes (Run spawns
	// the asynchronous ones).
	ModeAsyncPS
	// ModeAllReduce is the Ring-AllReduce baseline.
	ModeAllReduce
)

func (m Mode) String() string {
	switch m {
	case ModeISW:
		return "isw"
	case ModePS:
		return "ps"
	case ModeAsyncPS:
		return "async-ps"
	case ModeAllReduce:
		return "allreduce"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ClusterSpec is the declarative description Build consumes.
type ClusterSpec struct {
	Topology Topology
	Mode     Mode

	// Workers is the worker count (star and tree topologies; tree pairs
	// it with PerRack and tolerates a partial last rack). Three-tier and
	// fat-tree derive their count from the fabric shape instead.
	Workers int
	// PerRack is the rack width for TopoTree.
	PerRack int
	// AGGs, ToRsPerAGG, HostsPerToR shape TopoThreeTier.
	AGGs, ToRsPerAGG, HostsPerToR int
	// KAry, HostsPerEdge shape TopoFatTree (k pods of k/2 edge switches).
	KAry, HostsPerEdge int

	// ModelFloats is the gradient length.
	ModelFloats int
	// Shards is the parameter-server host count, each owning a contiguous
	// slice of the model (0 or 1: the paper's single host). PS modes only.
	Shards int

	// Compression selects the gradient wire scheme for the whole job
	// (CompNone: the paper's raw float32). Validate documents which
	// mode×scheme pairings are supported. For ModeISW the value is
	// copied into the ISW config (and a non-zero ISWConfig.Compression
	// on a spec with CompNone is honoured), so either field may name the
	// scheme.
	Compression protocol.Compression

	// Link is the worker access link (zero value: 10 GbE). Uplink feeds
	// ToR→root / ToR→AGG / edge→AGG tiers and CoreLink the AGG→core tier;
	// each zero value inherits the next-lower tier's config (so a spec
	// naming only Link runs a uniform fabric — note the legacy tree
	// constructors always named their uplink explicitly, typically 40 GbE).
	Link, Uplink, CoreLink netsim.LinkConfig

	// Exactly the config matching Mode is consulted; nil selects the
	// defaults (DefaultISWConfig and friends).
	ISW *ISWConfig
	PS  *PSConfig
	AR  *ARConfig

	// Dedup arms the contributor bitmap on every aggregation switch —
	// the prerequisite for targeted (non-storm) loss recovery, shadow
	// slots notwithstanding. In-switch mode only.
	Dedup bool
	// LivenessHorizon, when positive, lets a switch evict a contributor
	// not heard from for this long while resolving a Help — how a round
	// completes over the survivors after a permanent worker crash.
	// In-switch mode only; implies Dedup.
	LivenessHorizon sim.Time

	// Faults, when non-nil, is applied to the built cluster
	// (Cluster.ApplyFaults) before Build returns.
	Faults *netsim.FaultPlan
}

// Cluster is Build's result: the spec, the kernel, and exactly one of
// the mode-specific cluster handles populated.
type Cluster struct {
	Spec ClusterSpec
	k    *sim.Kernel

	ISW *ISWCluster
	PS  *PSCluster
	AR  *ARCluster
}

// Client returns worker i's aggregation handle, whichever mode is live.
func (c *Cluster) Client(i int) Service {
	switch {
	case c.ISW != nil:
		return c.ISW.Client(i)
	case c.PS != nil:
		return c.PS.Client(i)
	case c.AR != nil:
		return c.AR.Client(i)
	}
	panic("core: empty Cluster")
}

// Workers returns the worker hosts, whichever mode is live.
func (c *Cluster) Workers() []*netsim.Host {
	switch {
	case c.ISW != nil:
		return c.ISW.Workers()
	case c.PS != nil:
		return c.PS.Workers()
	case c.AR != nil:
		return c.AR.Workers()
	}
	panic("core: empty Cluster")
}

// Switches returns the aggregation switches (in-switch mode; empty for
// the baselines, which run over plain forwarding switches).
func (c *Cluster) Switches() []*switchnet.ISwitch {
	if c.ISW != nil {
		return c.ISW.Switches()
	}
	return nil
}

// WithWorkload returns the spec with the config of its Mode calibrated
// to workload w (PSConfigFor, ARConfigFor or ISWConfigFor), replacing
// any config the spec named for that mode.
func (s ClusterSpec) WithWorkload(w perfmodel.Workload) ClusterSpec {
	switch s.Mode {
	case ModePS, ModeAsyncPS:
		cfg := PSConfigFor(w)
		s.PS = &cfg
	case ModeAllReduce:
		cfg := ARConfigFor(w)
		s.AR = &cfg
	case ModeISW:
		cfg := ISWConfigFor(w)
		s.ISW = &cfg
	}
	return s
}

// scheme resolves the spec's effective compression: the spec-level
// field wins; a ModeISW spec may instead name it on the ISW config.
func (s ClusterSpec) scheme() protocol.Compression {
	if s.Compression != protocol.CompNone {
		return s.Compression
	}
	if s.Mode == ModeISW && s.ISW != nil {
		return s.ISW.Compression
	}
	return protocol.CompNone
}

// ResolveFabric checks the topology's shape fields and returns the spec
// with the fabric defaults filled in: a zero Link is 10 GbE, a zero
// Uplink inherits Link, a zero CoreLink inherits Uplink, and a PerRack
// of 0 puts every worker in one rack. A shape past what netsim's address
// plans can number is rejected here, so it never reaches a builder. It is
// the one copy of all three that Validate, Build and BuildFabric share.
func (s ClusterSpec) ResolveFabric() (ClusterSpec, error) {
	switch s.Topology {
	case TopoStar, TopoTree:
		if s.Workers <= 0 {
			return s, fmt.Errorf("core: %v needs Workers > 0, got %d", s.Topology, s.Workers)
		}
		if s.PerRack < 0 {
			return s, fmt.Errorf("core: PerRack must not be negative, got %d (0 puts every worker in one rack)", s.PerRack)
		}
		if s.PerRack == 0 {
			s.PerRack = s.Workers
		}
		perSwitch, racks := s.Workers, 1
		if s.Topology == TopoTree { // whole racks are wired, used or not
			perSwitch, racks = s.PerRack, (s.Workers-1)/s.PerRack+1
		}
		if perSwitch > netsim.MaxHostsPerSwitch {
			return s, fmt.Errorf("core: %v puts %d workers on one switch; the address plan numbers at most %d", s.Topology, perSwitch, netsim.MaxHostsPerSwitch)
		}
		if racks > netsim.MaxRacks {
			return s, fmt.Errorf("core: tree needs %d racks of %d for %d workers; the address plan numbers at most %d", racks, s.PerRack, s.Workers, netsim.MaxRacks)
		}
	case TopoThreeTier:
		if s.AGGs <= 0 || s.ToRsPerAGG <= 0 || s.HostsPerToR <= 0 {
			return s, fmt.Errorf("core: 3tier needs positive AGGs, ToRsPerAGG and HostsPerToR, got %d/%d/%d", s.AGGs, s.ToRsPerAGG, s.HostsPerToR)
		}
		if s.HostsPerToR > netsim.MaxHostsPerSwitch {
			return s, fmt.Errorf("core: 3tier puts %d workers on one ToR; the address plan numbers at most %d", s.HostsPerToR, netsim.MaxHostsPerSwitch)
		}
		if s.AGGs > netsim.MaxThreeTierToRs/s.ToRsPerAGG { // AGGs × ToRsPerAGG, safe from overflow
			return s, fmt.Errorf("core: 3tier has %d AGGs x %d ToRs; the address plan numbers at most %d ToRs", s.AGGs, s.ToRsPerAGG, netsim.MaxThreeTierToRs)
		}
	case TopoFatTree:
		if s.KAry < 2 || s.KAry%2 != 0 || s.HostsPerEdge <= 0 {
			return s, fmt.Errorf("core: fattree needs an even KAry >= 2 and HostsPerEdge > 0, got %d/%d", s.KAry, s.HostsPerEdge)
		}
		if s.KAry > netsim.MaxFatTreeK || s.HostsPerEdge > netsim.MaxFatTreeHostsPerEdge {
			return s, fmt.Errorf("core: fattree k=%d with %d hosts per edge is past the address plan's k <= %d and %d hosts per edge", s.KAry, s.HostsPerEdge, netsim.MaxFatTreeK, netsim.MaxFatTreeHostsPerEdge)
		}
	default:
		return s, fmt.Errorf("core: unknown topology %v", s.Topology)
	}
	if s.Link == (netsim.LinkConfig{}) {
		s.Link = netsim.TenGbE()
	}
	if s.Uplink == (netsim.LinkConfig{}) {
		s.Uplink = s.Link
	}
	if s.CoreLink == (netsim.LinkConfig{}) {
		s.CoreLink = s.Uplink
	}
	return s, nil
}

// BuildFabric constructs the iSwitch-enabled fabric the spec's topology
// fields describe (ResolveFabric's shape rules and link defaults apply;
// nothing else of the spec is read). It is the one place a Topology
// turns into switches: Build runs one job over the result,
// multijob.NewFabricFromSpec shares it between tenants.
func (s ClusterSpec) BuildFabric(k *sim.Kernel) (*switchnet.Fabric, error) {
	s, err := s.ResolveFabric()
	if err != nil {
		return nil, err
	}
	switch s.Topology {
	case TopoStar:
		return switchnet.BuildStar(k, s.Workers, s.Link), nil
	case TopoTree:
		return switchnet.BuildTreeN(k, s.Workers, s.PerRack, s.Link, s.Uplink), nil
	case TopoThreeTier:
		return switchnet.BuildThreeTier(k, s.AGGs, s.ToRsPerAGG, s.HostsPerToR, s.Link, s.Uplink, s.CoreLink), nil
	default: // ResolveFabric admits no fifth topology
		return switchnet.BuildFatTree(k, s.KAry, s.HostsPerEdge, s.Link, s.Uplink, s.CoreLink), nil
	}
}

// Validate checks that the spec describes a cluster Build can construct:
// a known topology and mode with positive shape fields, a supported
// topology×mode pairing, a shard count the PS modes can honour, a
// segment that fits a packet, and a compression scheme the mode's
// datapath implements. Each rejection says
// why. Build panics on a spec that fails; drivers handed a user-written
// spec call Validate first and report the error.
func (s ClusterSpec) Validate() error {
	if s.ModelFloats <= 0 {
		return fmt.Errorf("core: ModelFloats must be positive, got %d", s.ModelFloats)
	}
	if _, err := s.ResolveFabric(); err != nil {
		return err
	}
	switch s.Mode {
	case ModeISW:
	case ModePS, ModeAsyncPS, ModeAllReduce:
		if s.Topology != TopoStar && s.Topology != TopoTree {
			return fmt.Errorf("core: %v over %v is not supported: the baselines run over plain forwarding switches, which are built for the star and two-level tree fabrics only", s.Mode, s.Topology)
		}
		if s.Mode == ModeAllReduce && s.Workers < 2 {
			return fmt.Errorf("core: Ring-AllReduce needs at least 2 workers, got %d", s.Workers)
		}
	default:
		return fmt.Errorf("core: unknown mode %v", s.Mode)
	}
	if s.Shards < 0 || s.Shards > maxPSShards {
		return fmt.Errorf("core: Shards must be in [0, %d], got %d", maxPSShards, s.Shards)
	}
	if s.Shards > 1 {
		if s.Mode != ModePS && s.Mode != ModeAsyncPS {
			return fmt.Errorf("core: Shards = %d applies to the parameter-server modes only (got %v)", s.Shards, s.Mode)
		}
		if s.Topology != TopoStar {
			return fmt.Errorf("core: a sharded parameter server over %v is not supported: the sharded baseline is defined and tested with every shard host on the workers' own switch (star)", s.Topology)
		}
	}

	if s.ISW != nil && (s.ISW.FloatsPerPacket < 0 || s.ISW.FloatsPerPacket > protocol.FloatsPerPacket) {
		return fmt.Errorf("core: ISW.FloatsPerPacket must be in [0, %d] (0: the MTU-filling default), got %d: a segment travels in one packet", protocol.FloatsPerPacket, s.ISW.FloatsPerPacket)
	}
	scheme := s.scheme()
	if !scheme.Valid() {
		return fmt.Errorf("core: unknown compression scheme Compression(%d)", uint8(scheme))
	}
	switch scheme {
	case protocol.CompFP16:
		if s.Mode == ModeAllReduce {
			return fmt.Errorf("core: fp16 compression is not supported under %v: the scheme needs a single aggregation point that re-rounds emissions (in-switch or parameter server); the ring splices raw float32 chunks between peers", s.Mode)
		}
		if s.Shards > 1 {
			return fmt.Errorf("core: fp16 compression with %d parameter-server shards is not supported: fp16 over the parameter server is defined and tested for the single host only", s.Shards)
		}
	case protocol.CompInt32Block:
		if s.Mode != ModeISW {
			return fmt.Errorf("core: int32block compression requires ModeISW (got %v): only the in-switch integer datapath has the saturating adders and emission narrowing the wire format assumes", s.Mode)
		}
	case protocol.CompTopK:
		if s.Mode != ModeISW {
			return fmt.Errorf("core: topk compression requires ModeISW (got %v): the sparse scatter-add lives in the switch accelerator", s.Mode)
		}
		if s.ISW != nil && s.ISW.FloatsPerPacket != 0 && s.ISW.FloatsPerPacket != protocol.FloatsPerPacket {
			return fmt.Errorf("core: topk compression requires the default per-packet payload (%d floats): block-local sparse indices are sized to the MTU segment grid, got %d", protocol.FloatsPerPacket, s.ISW.FloatsPerPacket)
		}
	}
	return nil
}

// Build constructs the cluster a spec describes. It panics on a spec
// that fails Validate or whose fault plan does not apply (construction
// is test/experiment setup; errors there are programming mistakes).
func Build(k *sim.Kernel, spec ClusterSpec) *Cluster {
	if err := spec.Validate(); err != nil {
		panic("core: Build: " + err.Error())
	}
	c := &Cluster{Spec: spec, k: k}
	spec, _ = spec.ResolveFabric() // Validate checked the shape
	switch spec.Mode {
	case ModeISW:
		c.ISW = buildISW(k, spec)
	case ModePS, ModeAsyncPS:
		c.PS = buildPS(k, spec)
	case ModeAllReduce:
		c.AR = buildAR(k, spec)
	}

	if spec.Faults != nil {
		if err := c.ApplyFaults(spec.Faults); err != nil {
			panic("core: Build: " + err.Error())
		}
	}
	return c
}

// buildISW, buildPS and buildAR take a spec ResolveFabric has filled in.
func buildISW(k *sim.Kernel, spec ClusterSpec) *ISWCluster {
	cfg := DefaultISWConfig()
	if spec.ISW != nil {
		cfg = *spec.ISW
	}
	cfg.Compression = spec.scheme()
	fab, _ := spec.BuildFabric(k) // Validate checked the shape
	c := &ISWCluster{
		workers: fab.Workers, n: spec.ModelFloats, h: len(fab.Workers), cfg: cfg,
		Fabric: fab,
	}
	for i := range fab.Workers {
		c.target = append(c.target, fab.Leaf(i).Addr())
	}
	if spec.Dedup || spec.LivenessHorizon > 0 {
		for _, is := range c.Switches() {
			is.SetDedup(true)
			if spec.LivenessHorizon > 0 {
				is.SetLivenessHorizon(spec.LivenessHorizon)
			}
		}
	}
	if cfg.Compression != protocol.CompNone {
		// Pin the scheme on every aggregation level: parent switches
		// never see a worker Join, yet must interpret and re-emit their
		// children's partials under the job's wire format.
		for _, is := range c.Switches() {
			is.SetCompression(cfg.Job, cfg.Compression, uint64(spec.ModelFloats))
		}
	}
	return c
}

// plainFabric wires the baselines' workers over plain forwarding
// switches and returns them with a function that attaches one more host
// (a parameter-server shard): on the workers' switch for a star, on the
// root for a tree.
func plainFabric(k *sim.Kernel, spec ClusterSpec) ([]*netsim.Host, func(protocol.Addr) *netsim.Host) {
	link, uplink := spec.Link, spec.Uplink
	if spec.Topology == TopoStar {
		// AttachHost appends to star.Hosts, not to the returned slice.
		star := netsim.BuildStar(k, spec.Workers, link)
		return star.Hosts, func(a protocol.Addr) *netsim.Host { return star.AttachHost(k, a, link) }
	}
	tr := netsim.BuildRacksN(k, spec.Workers, spec.PerRack, link, uplink)
	return tr.Hosts, func(a protocol.Addr) *netsim.Host { return tr.AttachRootHost(k, a, uplink) }
}

// buildPS wires the workers plus the shard servers and, for ModePS,
// spawns the synchronous server processes.
func buildPS(k *sim.Kernel, spec ClusterSpec) *PSCluster {
	c := &PSCluster{n: spec.ModelFloats, cfg: defaultPSConfig(), scheme: spec.scheme()}
	if spec.PS != nil {
		c.cfg = *spec.PS
	}
	workers, attach := plainFabric(k, spec)
	c.workers = workers
	totalSegs := protocol.SegmentCount(spec.ModelFloats)
	nShards := min(max(spec.Shards, 1), totalSegs) // a shard owns at least one whole segment
	for s := 0; s < nShards; s++ {
		first, end := s*totalSegs/nShards, (s+1)*totalSegs/nShards
		lo, _ := protocol.SegmentRange(c.n, uint64(first))
		_, hi := protocol.SegmentRange(c.n, uint64(end-1))
		c.shards = append(c.shards, &psShard{srv: attach(psShardAddr(s)), lo: lo, hi: hi,
			segBase: uint64(first), asm: make(map[protocol.Addr]*protocol.Assembler)})
	}
	c.Server = c.shards[0].srv
	if spec.Mode == ModePS {
		for s := range c.shards {
			c.startServer(k, s)
		}
	}
	return c
}

// buildAR wires the ring's workers; the ring follows worker index
// order, so on a tree rack boundaries add root-switch crossings.
func buildAR(k *sim.Kernel, spec ClusterSpec) *ARCluster {
	c := &ARCluster{n: spec.ModelFloats, cfg: defaultARConfig()}
	if spec.AR != nil {
		c.cfg = *spec.AR
	}
	c.workers, _ = plainFabric(k, spec)
	return c
}

// ApplyFaults installs a declarative fault plan onto the built cluster:
// link faults resolve worker indices to NIC port pairs, crash schedules
// attach to the in-switch clients, and switch failures are timed onto
// the kernel. Call before Run (fault times are absolute virtual times;
// the kernel is at 0 during setup).
func (c *Cluster) ApplyFaults(fp *netsim.FaultPlan) error {
	if err := fp.Validate(); err != nil {
		return err
	}
	workers := c.Workers()
	for _, lf := range fp.Links {
		if lf.Worker >= len(workers) {
			return fmt.Errorf("core: link fault worker %d out of range (%d workers)", lf.Worker, len(workers))
		}
		up := workers[lf.Worker].Port()
		fp.ApplyLink(lf, up, up.Peer())
	}
	if len(fp.Crashes) > 0 || len(fp.Switches) > 0 {
		if c.ISW == nil {
			return fmt.Errorf("core: crash/switch faults need the in-switch mode")
		}
	}
	for _, cf := range fp.Crashes {
		if cf.Worker >= len(workers) {
			return fmt.Errorf("core: crash fault worker %d out of range (%d workers)", cf.Worker, len(workers))
		}
		if c.ISW.cfg.RecoveryTimeout <= 0 {
			return fmt.Errorf("core: crash faults need ISWConfig.RecoveryTimeout armed")
		}
		c.ISW.scheduleCrash(cf)
	}
	if len(fp.Switches) > 0 {
		switches := c.ISW.Switches()
		if c.ISW.cfg.FailoverAfter <= 0 {
			return fmt.Errorf("core: switch faults need ISWConfig.FailoverAfter armed")
		}
		for _, sf := range fp.Switches {
			if sf.Switch >= len(switches) {
				return fmt.Errorf("core: switch fault index %d out of range (%d switches)", sf.Switch, len(switches))
			}
			targets := switches
			if sf.Switch >= 0 {
				targets = switches[sf.Switch : sf.Switch+1]
			}
			for _, is := range targets {
				is := is
				c.k.After(sf.At, is.Fail)
			}
		}
	}
	return nil
}
