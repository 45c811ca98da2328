package gonoc

// One benchmark per table/figure of the paper (see DESIGN.md's
// per-experiment index), plus micro-benchmarks of the substrates the
// figures run on. The figure benches use reduced cycle counts so the
// full suite stays tractable; cmd/nocfigs regenerates the figures at
// publication scale.

import (
	"context"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"gonoc/internal/analysis"
	"gonoc/internal/core"
	"gonoc/internal/exp"
	"gonoc/internal/noc"
	"gonoc/internal/routing"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/telemetry"
	"gonoc/internal/topology"
)

// benchOpts are the reduced settings shared by the figure benchmarks.
// One replication keeps the benches comparable with the seed numbers;
// cmd/nocfigs defaults to three for real CI95 columns.
func benchOpts() exp.FigureOpts {
	return exp.FigureOpts{
		Sizes:            []int{8},
		LoadFractions:    []float64{0.5, 1.25},
		UniformFlitRates: []float64{0.1, 0.4},
		Warmup:           300,
		Measure:          2500,
		Seed:             1,
		Reps:             1,
	}
}

// BenchmarkFig2Diameter regenerates Figure 2 (network diameter vs N).
func BenchmarkFig2Diameter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := core.Fig2Diameter(4, 64)
		if len(t.Series) != 5 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig3AvgDistance regenerates Figure 3 (E[D] vs N).
func BenchmarkFig3AvgDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := core.Fig3AvgDistance(4, 64)
		if len(t.Series) != 5 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig5Validation regenerates Figure 5 (analytic vs simulated
// average distance).
func BenchmarkFig5Validation(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig5Validation(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6HotspotThroughput regenerates Figure 6 (throughput, one
// hot-spot destination).
func BenchmarkFig6HotspotThroughput(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6HotspotThroughput(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7HotspotLatency regenerates Figure 7 (latency, one
// hot-spot destination).
func BenchmarkFig7HotspotLatency(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig7HotspotLatency(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8DoubleHotspotThroughput regenerates Figure 8
// (throughput, two hot-spot destinations, placements A/B/C).
func BenchmarkFig8DoubleHotspotThroughput(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig8DoubleHotspotThroughput(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9DoubleHotspotLatency regenerates Figure 9 (latency, two
// hot-spot destinations).
func BenchmarkFig9DoubleHotspotLatency(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9DoubleHotspotLatency(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10UniformThroughput regenerates Figure 10 (throughput,
// homogeneous uniform traffic).
func BenchmarkFig10UniformThroughput(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig10UniformThroughput(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11UniformLatency regenerates Figure 11 (latency,
// homogeneous uniform traffic).
func BenchmarkFig11UniformLatency(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11UniformLatency(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkCounts verifies and times the Section-2 link-count
// table (2N ring, 3N spidergon, 2(m-1)n+2(n-1)m mesh) across sizes.
func BenchmarkLinkCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 4; n <= 64; n += 2 {
			if topology.LinkCount(topology.MustRing(n)) != analysis.LinkCountRing(n) {
				b.Fatal("ring link count")
			}
			if topology.LinkCount(topology.MustSpidergon(n)) != analysis.LinkCountSpidergon(n) {
				b.Fatal("spidergon link count")
			}
			c, r := analysis.IdealMeshDims(n)
			if topology.LinkCount(topology.MustMesh(c, r)) != analysis.LinkCountMesh(c, r) {
				b.Fatal("mesh link count")
			}
		}
	}
}

// BenchmarkAblationBuffers sweeps the output queue depth (the buffer
// tuning the paper reports as having "marginal impact on the peak
// performances") and reports saturated throughput per depth.
func BenchmarkAblationBuffers(b *testing.B) {
	for _, depth := range []int{1, 3, 6} {
		depth := depth
		b.Run(benchName("outbuf", depth), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				s := core.NewScenario(core.Spidergon, 16, core.UniformTraffic, 0.4/6)
				s.Config.OutBufCap = depth
				s.Warmup, s.Measure = 300, 2500
				r, err := core.Run(s)
				if err != nil {
					b.Fatal(err)
				}
				tput = r.Throughput
			}
			b.ReportMetric(tput, "flits/cycle")
		})
	}
}

// BenchmarkAblationPacketLen sweeps the packet length at constant flit
// load — the paper's packet-format axis.
func BenchmarkAblationPacketLen(b *testing.B) {
	for _, plen := range []int{2, 6, 12} {
		plen := plen
		b.Run(benchName("flits", plen), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				s := core.NewScenario(core.Spidergon, 16, core.UniformTraffic, 0)
				s.Config.PacketLen = plen
				s.Lambda = 0.3 / float64(plen)
				s.Warmup, s.Measure = 300, 2500
				r, err := core.Run(s)
				if err != nil {
					b.Fatal(err)
				}
				lat = r.MeanLatency
			}
			b.ReportMetric(lat, "cycles/packet")
		})
	}
}

// BenchmarkAblationSwitching compares the three switching disciplines
// of Section 2's design discussion (wormhole vs virtual cut-through vs
// store-and-forward) at equal load and reports mean latency.
func BenchmarkAblationSwitching(b *testing.B) {
	for _, mode := range []noc.Switching{noc.Wormhole, noc.VirtualCutThrough, noc.StoreAndForward} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				s := core.NewScenario(core.Spidergon, 16, core.UniformTraffic, 0.02)
				s.Config.Switching = mode
				s.Config.OutBufCap = 6
				s.Warmup, s.Measure = 300, 2500
				r, err := core.Run(s)
				if err != nil {
					b.Fatal(err)
				}
				lat = r.MeanLatency
			}
			b.ReportMetric(lat, "cycles/packet")
		})
	}
}

// BenchmarkAblationRouting compares the paper's XY dimension order
// against YX on a hot-spotted mesh and reports throughput.
func BenchmarkAblationRouting(b *testing.B) {
	for _, order := range []struct{ name, routing string }{{"xy", ""}, {"yx", "yx"}} {
		b.Run(order.name, func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				s := core.NewScenario(core.Mesh, 16, core.HotSpotTraffic, 2.0/(15.0*6.0))
				s.HotSpots = []int{15}
				s.Routing = order.routing
				s.Warmup, s.Measure = 300, 2500
				r, err := core.Run(s)
				if err != nil {
					b.Fatal(err)
				}
				tput = r.Throughput
			}
			b.ReportMetric(tput, "flits/cycle")
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- engine benchmarks and the perf-regression gate ---

// engineScenario is the perf-gate workload: a mesh-8x8 uniform sweep
// point at the given fraction of the analytic saturation bound (0.5
// flits/cycle/source). The measured saturation is about 0.28, so the
// "knee" (0.9, i.e. 0.45) runs about 1.6x past it with source queues
// growing for the whole run; only "low" (0.25) is below saturation.
func engineScenario(frac float64) core.Scenario {
	topo := topology.MustMesh(8, 8)
	bound := analysis.UniformSaturationBound(topo) // flits/cycle/source
	s := core.NewScenario(core.Mesh, 64, core.UniformTraffic, frac*bound/6)
	s.Warmup, s.Measure = 300, 3000
	return s
}

// BenchmarkEngineMesh8x8 times the activity-driven engine (with its
// idle fast-forward) on the paper's largest mesh, below saturation and
// past it: the low-load points show what worklists and fast-forward
// save, the saturated point guards the cost when every router is busy.
func BenchmarkEngineMesh8x8(b *testing.B) {
	loads := []struct {
		name string
		frac float64
	}{{"low15", 0.15}, {"low25", 0.25}, {"saturated", 1.5}}
	for _, load := range loads {
		s := engineScenario(load.frac)
		b.Run(load.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPerfGate feeds the tracked perf-regression gate
// (bench-baseline.json + cmd/benchgate, run by `make bench-check`).
// The gated metrics are deterministic work counters — worklist visits
// per simulated cycle, the fraction of cycles actually ticked (not
// fast-forwarded), and steady-state allocator traffic per delivered
// packet — so the gate is immune to host speed and CI noise: a >15%
// regression means the active sets, the idle fast-forward, or the
// zero-allocation hot path (packet pool, pooled kernel events, batched
// generator arrivals, workspace reuse) genuinely lost ground, not that
// the runner was slow.
func BenchmarkPerfGate(b *testing.B) {
	loads := []struct {
		name   string
		frac   float64
		shards int
	}{
		{"idle", 0, 0},
		{"low", 0.25, 0},
		{"knee", 0.9, 0}, // 90 % of the analytic bound, ~1.6x past measured saturation
		{"saturated", 1.5, 0},
		// The parallel point runs the knee workload domain-decomposed
		// across 4 router shards. Its gated counters must equal the
		// serial knee's (the shards visit exactly the same worklists);
		// the wall-clock speedup over the serial engine is reported
		// alongside but deliberately NOT gated — it depends on the
		// host's core count, which the deterministic gate must not.
		{"knee-parallel", 0.9, 4},
		// The telemetry point re-runs the knee with per-cycle capture
		// streaming to io.Discard: its work and allocation counters
		// must match the plain knee's baselines (capture is free on
		// the hot path), and the encoded telemetry bytes per simulated
		// cycle is itself a gated deterministic counter — the encoding
		// getting fatter is a regression the gate catches.
		{"knee-telemetry", 0.9, 0},
	}
	for _, load := range loads {
		s := engineScenario(load.frac)
		s.StepParallel = load.shards
		var telStats telemetry.Stats
		if load.name == "knee-telemetry" {
			s.Telemetry = &telemetry.Options{W: io.Discard, Stats: &telStats}
		}
		if load.frac == 0 {
			// The idle point gates the fast-forward itself: traffic so
			// sparse the network fully drains between arrivals, so most
			// cycles are skipped and ticked-frac sits far below 1 — a
			// broken fast-forward drives it to 1.0 and trips the gate
			// (at the other points ticked-frac ~1 and only visits/cycle
			// has headroom).
			s = core.NewScenario(core.Spidergon, 16, core.UniformTraffic, 0.0005)
			s.Warmup, s.Measure = 0, 20000
		}
		b.Run(load.name, func(b *testing.B) {
			// One workspace across iterations: the first run warms the
			// packet pool and event records, later runs reuse them — the
			// steady state of a campaign, which is what the allocation
			// metrics below gate.
			var ws core.Workspace
			var perf noc.PerfStats
			for i := 0; i < b.N; i++ {
				var err error
				if _, perf, err = ws.RunPerf(s); err != nil {
					b.Fatal(err)
				}
			}
			cycles := float64(s.Warmup + s.Measure + 1)
			b.ReportMetric(float64(perf.RouterVisits)/cycles, "visits/cycle")
			b.ReportMetric((cycles-float64(perf.SkippedCycles))/cycles, "ticked-frac")
			// Live simulation-state footprint per router at end of run:
			// arena records and stamps at the population high-water mark
			// plus buffer/mask/queue residency. Length-based, so exactly
			// reproducible across hosts and Go versions — gated like the
			// work counters, pinning the compactness of the handle-based
			// arena layout.
			b.ReportMetric(float64(perf.LiveStateBytes)/float64(s.Nodes), "live-bytes/router")
			if s.Telemetry != nil {
				b.ReportMetric(float64(telStats.Bytes)/cycles, "telemetry-bytes/cycle")
			}
			if load.shards > 0 {
				// The fused engine's synchronization budget, normalized
				// by ticked (non-fast-forwarded) cycles: exactly one
				// barrier per multi-shard cycle. The credit discipline
				// resolves every boundary link decision inside the pass
				// (speculatively on a cycle-start credit, or via a
				// point-to-point pops-done wait on credit exhaustion);
				// the credit split (speculative deliveries vs
				// zero-credit defers per cycle) is reported and gated
				// too: all are deterministic work counters, so the gate
				// pins them where wall-clock speedup would be host noise.
				ticked := cycles - float64(perf.SkippedCycles)
				b.ReportMetric(float64(perf.Barriers)/ticked, "barriers/cycle")
				b.ReportMetric(float64(perf.SpeculativeDeliveries)/ticked, "spec-deliveries/cycle")
				b.ReportMetric(float64(perf.CreditDefers)/ticked, "credit-defers/cycle")
			}

			// Steady-state allocation metrics: one further run on the
			// warmed workspace, bracketed by exact allocator counters
			// (runtime.MemStats.Mallocs/TotalAlloc, not sampled). The
			// simulation is single-threaded and deterministic, so the
			// counts are reproducible across hosts like the work counters
			// above; the settling GC keeps collector scavenging out of
			// the bracket.
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, _, err := ws.RunPerf(s)
			if err != nil {
				b.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			pkts := float64(res.EjectedPackets)
			if pkts == 0 {
				b.Fatal("degenerate gate point: nothing ejected")
			}
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/pkts, "allocs/packet")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/pkts, "bytes/packet")

			if load.shards > 0 {
				// Report-only wall metric: the measured intra-scenario
				// speedup of the parallel engine over the serial active
				// engine on this host (best of three warmed runs each).
				// On a single-core runner this sits at or below 1; on a
				// machine with >= shards cores the target is >= 2x at 4
				// shards. The gate ignores it — see bench-baseline.json.
				// Off the benchmark clock: these seven extra runs must
				// not inflate the bench's own ns/op.
				b.StopTimer()
				defer b.StartTimer()
				serial := s
				serial.StepParallel = 0
				var wsSerial core.Workspace
				if _, _, err := wsSerial.RunPerf(serial); err != nil {
					b.Fatal(err)
				}
				best := func(ws *core.Workspace, sc core.Scenario) time.Duration {
					bestDur := time.Duration(math.MaxInt64)
					for i := 0; i < 3; i++ {
						t0 := time.Now()
						if _, _, err := ws.RunPerf(sc); err != nil {
							b.Fatal(err)
						}
						if d := time.Since(t0); d < bestDur {
							bestDur = d
						}
					}
					return bestDur
				}
				serialDur := best(&wsSerial, serial)
				parDur := best(&ws, s)
				b.ReportMetric(float64(load.shards), "shards")
				b.ReportMetric(serialDur.Seconds()/parDur.Seconds(), "speedup")
				// Raw best-of-3 wall times plus the host parallelism that
				// produced them, so bench-speedup.json archives enough to
				// interpret the speedup figure (and to diff wall-time
				// across commits on the same runner). All report-only.
				b.ReportMetric(float64(serialDur.Nanoseconds()), "serial-wall-ns")
				b.ReportMetric(float64(parDur.Nanoseconds()), "parallel-wall-ns")
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
				b.ReportMetric(float64(runtime.NumCPU()), "numcpu")
			}
		})
	}

	// The warm-replay point gates the campaign stack instead of the
	// engine: a FileCache holding twice the replications the campaign
	// asks for is opened and replayed into a JSONL sink, simulating
	// nothing. Allocator traffic per replayed point is then what
	// expansion, cache open, lookup and emission cost — a per-point
	// topology build in expansion, or an open that decodes entries
	// nobody looks up, multiplies it.
	b.Run("replay-warm", func(b *testing.B) {
		c := exp.Campaign{
			Name:       "replay-warm",
			Topologies: []core.TopologyKind{core.Ring, core.Spidergon, core.Mesh},
			Nodes:      []int{16, 64},
			Traffics:   []exp.TrafficSpec{{Kind: core.UniformTraffic}},
			FlitRates:  []float64{0.02, 0.04, 0.06, 0.08},
			Reps:       8,
			Seed:       1,
			Measure:    50,
		}
		dir := b.TempDir()
		fill, err := exp.OpenFileCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := (exp.Runner{Parallel: 2, Cache: fill}).Run(context.Background(), c); err != nil {
			b.Fatal(err)
		}
		if err := fill.Close(); err != nil {
			b.Fatal(err)
		}
		c.Reps = 4 // a prefix of each cell's seed stream: all cached
		points := len(c.Topologies) * len(c.Nodes) * len(c.FlitRates) * c.Reps
		replay := func() {
			fc, err := exp.OpenFileCache(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer fc.Close()
			if _, err := (exp.Runner{Parallel: 2, Cache: fc}).Run(context.Background(), c, exp.NewJSONLWriter(io.Discard)); err != nil {
				b.Fatal(err)
			}
			if fc.Hits() != points || fc.Misses() != 0 {
				b.Fatalf("warm replay: %d hits, %d misses of %d points", fc.Hits(), fc.Misses(), points)
			}
		}
		for i := 0; i < b.N; i++ {
			replay()
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		replay()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(points), "allocs/point")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(points), "bytes/point")
	})
}

// --- substrate micro-benchmarks ---

// BenchmarkNetworkStep measures the per-cycle cost of a loaded 16-node
// Spidergon network.
func BenchmarkNetworkStep(b *testing.B) {
	s := topology.MustSpidergon(16)
	net, err := noc.NewNetwork(s, routing.NewSpidergonRouting(s), noc.DefaultConfig(), stats.NewCollector(0))
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			src := rng.Intn(16)
			dst := rng.Intn(16)
			if src != dst {
				_ = net.Inject(src, dst)
			}
		}
		net.Step()
	}
}

// nopHandler is the event target of BenchmarkKernelSchedule.
type nopHandler struct{}

func (nopHandler) Fire(int) {}

// BenchmarkKernelSchedule measures event scheduling + dispatch.
func BenchmarkKernelSchedule(b *testing.B) {
	k := sim.NewKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleEvent(k.Now()+1, 0, nopHandler{}, 0)
		k.Step()
	}
}

// BenchmarkRoutingDecision measures one across-first routing decision.
func BenchmarkRoutingDecision(b *testing.B) {
	s := topology.MustSpidergon(32)
	a := routing.NewSpidergonRouting(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Route(i%32, (i+11)%32, 0)
	}
}

// BenchmarkBFSDiameter measures the exact-diameter computation used by
// the analytic figures on the largest studied size.
func BenchmarkBFSDiameter(b *testing.B) {
	m := topology.MustIrregularMesh(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if topology.Diameter(m) < 1 {
			b.Fatal("bad diameter")
		}
	}
}

// BenchmarkDependencyGraph measures the deadlock-freedom proof on a
// 16-node spidergon.
func BenchmarkDependencyGraph(b *testing.B) {
	s := topology.MustSpidergon(16)
	a := routing.NewSpidergonRouting(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := routing.CheckDeadlockFree(a, s); err != nil {
			b.Fatal(err)
		}
	}
}
