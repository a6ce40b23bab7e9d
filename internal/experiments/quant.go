package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"iswitch/internal/core"
	"iswitch/internal/engine"
	"iswitch/internal/netsim"
	"iswitch/internal/perfmodel"
	"iswitch/internal/protocol"
	"iswitch/internal/rl"
	"iswitch/internal/sim"
)

// Quantized/sparse aggregation sweep: the compression tentpole measured
// two ways. The DES side runs an oversubscribed fat-tree under every
// wire scheme and records round time and access-link bytes (the ≥1.5×
// speedup / ≥1.9× byte-cut acceptance gates live on the int32block
// cell). The ablation side trains real RL agents (DQN, A2C, PPO, DDPG)
// through the shipping protocol in memory, four engine.Clients and one
// root engine.Engine, and records the aggregate's accuracy against the
// exact sum, the wire bytes a worker uploads, and the drift a short
// training trajectory accumulates versus the uncompressed run.

// QuantCell is one DES sweep cell.
type QuantCell struct {
	Scheme     string
	Workers    int
	Iterations int

	Total    time.Duration // virtual makespan
	MeanIter time.Duration
	// AccessBytes counts both directions of every worker access link —
	// where the per-element wire format shows up undiluted.
	AccessBytes uint64

	// Speedup and ByteRatio are relative to the CompNone cell.
	Speedup   float64
	ByteRatio float64
}

// QuantAblationRow is one workload×scheme accuracy measurement.
type QuantAblationRow struct {
	Workload string
	Scheme   string
	// RelErr is the final-round aggregate's relative L2 error against
	// the exact float32 sum (after the int32block grid has adapted).
	RelErr float64
	// UploadBytes is the wire bytes of the data frames worker 0 sent
	// in the final round.
	UploadBytes uint64
	// ParamDrift is the relative L2 distance between the final
	// parameters of a short training run under this scheme and the
	// uncompressed run's.
	ParamDrift float64
}

// QuantData is the full sweep.
type QuantData struct {
	Cells    []QuantCell
	Ablation []QuantAblationRow
}

// DES sweep shape: a KAry=4 fat-tree with 2 hosts per edge switch (16
// workers) over a uniform 10 GbE fabric, carrying a DQN-scale model
// (6.4 MB) — the shape where wire bytes dominate the round and the
// calibrated 500 µs per-round client cost (perfmodel.ISWWorkerBase)
// no longer hides the transport.
const (
	quantModelFloats = 1_600_000
	quantIterations  = 8
	quantKAry        = 4
	quantHostsPer    = 2
)

// runQuantCell measures one scheme on the fat-tree.
func runQuantCell(scheme protocol.Compression) QuantCell {
	cluster := core.Build(sim.NewKernel(), core.ClusterSpec{
		Topology:     core.TopoFatTree,
		Mode:         core.ModeISW,
		KAry:         quantKAry,
		HostsPerEdge: quantHostsPer,
		ModelFloats:  quantModelFloats,
		Link:         netsim.TenGbE(),
		Compression:  scheme,
	})
	wl := perfmodel.Workload{LocalCompute: 50 * time.Microsecond, WeightUpdate: 20 * time.Microsecond}
	stats := simRun(wl, cluster, core.Job{Iterations: quantIterations})
	workers := cluster.Workers()
	cell := QuantCell{Scheme: scheme.String(), Workers: len(workers), Iterations: quantIterations,
		Total: stats.Total, MeanIter: stats.MeanIter()}
	for _, h := range workers {
		cell.AccessBytes += h.Port().TxBytes + h.Port().Peer().TxBytes
	}
	return cell
}

// --- Accuracy ablation on real RL gradients -------------------------

const (
	quantAblWorkers = 4
	quantAblRounds  = 6
)

// quantNet joins quantAblWorkers engine.Clients to one root
// engine.Engine in memory, as the engine's Driver and every client's
// Sender: a frame reaches its destination the moment it is sent, and
// the accelerator's latency is not modelled. Worker w sits at
// 10.0.0.(w+1).
type quantNet struct {
	sw      *engine.Engine
	clients [quantAblWorkers]engine.Client
	// upload counts the wire bytes of each worker's data frames.
	upload [quantAblWorkers]uint64
}

func (q *quantNet) Forward(pkt *protocol.Packet, dst protocol.Addr) { q.clients[dst.IP[3]-1].Take(pkt) }
func (q *quantNet) SendUp(*protocol.Packet)                         { panic("quant: a root engine sent a frame up") }
func (q *quantNet) Now() time.Duration                              { return 0 }
func (q *quantNet) After(_ time.Duration, fn func())                { fn() }

func (q *quantNet) Send(pkt *protocol.Packet) {
	if pkt.IsData() {
		q.upload[pkt.Src.IP[3]-1] += uint64(pkt.WireLen())
	}
	if !q.sw.Handle(pkt, false) {
		pkt.Release()
	}
}

func (q *quantNet) SendTrain(t *engine.Train) { t.SendEach(q) }

// quantTrainRun trains quantAblWorkers copies of a workload agent for
// quantAblRounds synchronous rounds, aggregating through the shipping
// protocol under scheme, and returns worker 0's final parameters plus
// the final round's aggregate error against the exact sum and worker
// 0's upload bytes in that round.
func quantTrainRun(name string, scheme protocol.Compression) (params []float32, relErr float64, upload uint64) {
	agents := make([]rl.Agent, quantAblWorkers)
	for i := range agents {
		a, err := rl.NewWorkloadAgent(name, 42, int64(900+i))
		if err != nil {
			panic(err)
		}
		agents[i] = a
	}
	n := agents[0].GradLen()
	swAddr := protocol.AddrFrom(10, 0, 0, 254, 7000)
	q := &quantNet{}
	q.sw = engine.New(swAddr, q)
	for w := range q.clients {
		self := protocol.AddrFrom(10, 0, 0, byte(1+w), 7000)
		q.clients[w].Init(q, self, swAddr, protocol.DefaultJob, n, 0, scheme, engine.Recovery{})
		q.clients[w].Join()
	}

	grads := make([][]float32, quantAblWorkers)
	for w := range grads {
		grads[w] = make([]float32, n)
	}
	exact := make([]float64, n)
	for r := 0; r < quantAblRounds; r++ {
		clear(exact)
		q.upload = [quantAblWorkers]uint64{}
		for w, a := range agents {
			a.ComputeGradient(grads[w])
			for i, v := range grads[w] {
				exact[i] += float64(v)
			}
			q.clients[w].Expect()
		}
		for w := range q.clients {
			q.clients[w].Upload(grads[w], -1)
		}
		for w, a := range agents {
			if !q.clients[w].Complete() {
				panic(fmt.Sprintf("quant: %s/%v round %d incomplete at worker %d", name, scheme, r, w))
			}
			sum := q.clients[w].Finish()
			if w == 0 {
				var errN, refN float64
				for i := range exact {
					d := float64(sum[i]) - exact[i]
					errN += d * d
					refN += exact[i] * exact[i]
				}
				relErr = math.Sqrt(errN) / (math.Sqrt(refN) + 1e-30)
			}
			a.ApplyAggregated(sum, quantAblWorkers)
		}
	}
	params = make([]float32, n)
	agents[0].ReadParams(params)
	return params, relErr, q.upload[0]
}

// quantAblation measures every workload×scheme pair.
func quantAblation() []QuantAblationRow {
	var rows []QuantAblationRow
	for _, name := range rl.Workloads() {
		ref, _, refBytes := quantTrainRun(name, protocol.CompNone)
		rows = append(rows, QuantAblationRow{Workload: name, Scheme: "none", UploadBytes: refBytes})
		for _, scheme := range []protocol.Compression{protocol.CompFP16, protocol.CompInt32Block, protocol.CompTopK} {
			params, relErr, upload := quantTrainRun(name, scheme)
			var dN, rN float64
			for i := range params {
				d := float64(params[i] - ref[i])
				dN += d * d
				rN += float64(ref[i]) * float64(ref[i])
			}
			rows = append(rows, QuantAblationRow{
				Workload: name, Scheme: scheme.String(), RelErr: relErr,
				UploadBytes: upload, ParamDrift: math.Sqrt(dN) / (math.Sqrt(rN) + 1e-30),
			})
		}
	}
	return rows
}

// quantSweep runs the DES cells, one per scheme, and fills in the
// ratios against the CompNone cell.
func quantSweep() []QuantCell {
	schemes := []protocol.Compression{protocol.CompNone, protocol.CompFP16,
		protocol.CompInt32Block, protocol.CompTopK}
	cells := parMap(len(schemes), func(i int) QuantCell { return runQuantCell(schemes[i]) })
	base := cells[0]
	for i := range cells {
		if base.MeanIter > 0 {
			cells[i].Speedup = float64(base.MeanIter) / float64(cells[i].MeanIter)
		}
		if cells[i].AccessBytes > 0 {
			cells[i].ByteRatio = float64(base.AccessBytes) / float64(cells[i].AccessBytes)
		}
	}
	return cells
}

// RunQuant runs the full sweep.
func RunQuant() QuantData {
	return QuantData{Cells: quantSweep(), Ablation: quantAblation()}
}

// Quant renders the sweep as an experiment result.
func Quant() Result { return renderQuant(RunQuant()) }

func renderQuant(d QuantData) Result {
	var b strings.Builder
	fmt.Fprintf(&b, "Compressed aggregation on a k=%d fat-tree, %d hosts/edge (%d workers),\n",
		quantKAry, quantHostsPer, quantKAry*(quantKAry/2)*quantHostsPer)
	fmt.Fprintf(&b, "uniform 10 GbE, %d-float model, %d iterations.\n\n", quantModelFloats, quantIterations)
	fmt.Fprintf(&b, "%-11s %12s %14s %8s %7s\n", "Scheme", "mean iter ms", "access MB", "speedup", "bytes")
	for _, c := range d.Cells {
		fmt.Fprintf(&b, "%-11s %12s %14.2f %7.2fx %6.2fx\n",
			c.Scheme, ms(c.MeanIter), float64(c.AccessBytes)/1e6, c.Speedup, c.ByteRatio)
	}
	b.WriteString("\nAccuracy on real RL gradients (4 workers, final of 6 rounds):\n")
	fmt.Fprintf(&b, "%-6s %-11s %12s %12s %12s\n", "Bench", "scheme", "rel err", "upload KB", "param drift")
	for _, r := range d.Ablation {
		fmt.Fprintf(&b, "%-6s %-11s %12.3e %12.1f %12.3e\n",
			r.Workload, r.Scheme, r.RelErr, float64(r.UploadBytes)/1e3, r.ParamDrift)
	}
	b.WriteString("\nint32block is exactly associative on the switch: the speedup column is\n")
	b.WriteString("bit-reproducible under any arrival order (see core's order-invariance test).\n")
	b.WriteString("topk cuts upload bytes only — switch emissions are dense raw float32, and\n")
	b.WriteString("the broadcast leg is the round's bottleneck, so its round time matches none.\n")
	return Result{ID: "quant",
		Title: "Quantized and sparse in-switch aggregation sweep", Text: b.String()}
}
