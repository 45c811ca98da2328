package main

import (
	"fmt"
	"math"
	"time"

	"gonoc/internal/core"
	"gonoc/internal/noc"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/telemetry"
	"gonoc/internal/traffic"
)

// tracedSim runs one scenario the way core.Workspace.RunPerf does, but
// assembled from the layers' public pieces so the benchmark can time each
// call across a layer boundary: Scenario.Build + noc.NewNetwork, the
// traffic generator, and a sim.Ticker whose tick phases wrap Network.Step
// and Recorder.Sample in stopwatches. Like a Workspace it keeps the
// network, kernel and collector across runs of one geometry. It exists
// only for the traced run; end-to-end numbers come from core.Workspace.
type tracedSim struct {
	geo    geometry
	net    *noc.Network
	col    *stats.Collector
	kernel *sim.Kernel
	gen    *traffic.Generator
	rec    *telemetry.Recorder
}

// geometry is what a built network depends on (core keeps the same key
// private as Scenario.networkKey).
type geometry struct {
	topo              core.TopologyKind
	nodes, cols, rows int
	routing           string
	cfg               noc.Config
}

// simTrace is what one traced run measured.
type simTrace struct {
	built    bool          // the network was built, not reset
	runUntil time.Duration // Kernel.RunUntil wall
	step     stopwatch     // Network.Step, per ticked cycle
	sample   stopwatch     // Recorder.Sample, per ticked cycle
	events   uint64        // Kernel.Processed
	perf     noc.PerfStats
	shards   int
	tel      telemetry.Stats

	// The observables compared against the untraced core.Result.
	injected, ejected, linkTraversals uint64
	throughput, meanLatency, meanHops float64
}

func (d *tracedSim) run(s core.Scenario, tr *tracer, parent int) (simTrace, error) {
	var st simTrace
	if err := s.Validate(); err != nil {
		return st, err
	}
	build := tr.begin("core.build", parent)
	geo := geometry{s.Topo, s.Nodes, s.Cols, s.Rows, s.Routing, s.Config}
	if d.net != nil && d.geo == geo {
		d.net.Reset()
		d.col.Reset(s.Warmup)
		d.kernel.Reset()
	} else {
		topo, alg, err := s.Build()
		if err != nil {
			return st, err
		}
		d.col = stats.NewCollector(s.Warmup)
		if d.net, err = noc.NewNetwork(topo, alg, s.Config, d.col); err != nil {
			d.net = nil
			return st, err
		}
		d.kernel = sim.NewKernel()
		d.geo = geo
		st.built = true
	}
	net, col, kernel := d.net, d.col, d.kernel
	tr.end(build)

	start := tr.begin("traffic.start", parent)
	pattern, err := s.Pattern()
	if err != nil {
		return st, err
	}
	d.gen, err = traffic.RenewGenerator(d.gen, kernel, net, pattern, s.Process, s.Lambda, s.Seed)
	if err != nil {
		return st, err
	}
	d.gen.Start()
	tr.end(start)

	switch {
	case s.StepParallel > 0:
		net.SetShards(s.StepParallel)
		net.SetEngine(noc.EngineParallel)
	case s.StepParallel < 0:
		net.SetShards(0)
		if net.Shards() > 1 {
			net.SetEngine(noc.EngineParallel)
		} else {
			net.SetEngine(s.Engine)
		}
	default:
		net.SetEngine(s.Engine)
	}
	defer net.StopWorkers()
	st.shards = 1
	if net.Engine() == noc.EngineParallel {
		st.shards = net.Shards()
	}

	ticker := sim.NewTicker(kernel, 1)
	ticker.OnTick(func(uint64) { st.step.time(net.Step) })
	if s.Telemetry != nil && s.Telemetry.W != nil {
		spec := telemetry.Spec{Nodes: s.Nodes, Links: len(net.Topology().Channels()), ChunkLen: telemetry.DefaultChunkLen}
		if d.rec == nil || d.rec.Spec() != spec {
			if d.rec, err = telemetry.NewRecorder(spec); err != nil {
				return st, err
			}
		}
		if err := d.rec.Start(s.Telemetry.W); err != nil {
			return st, err
		}
		rec := d.rec
		ticker.OnTick(func(uint64) {
			st.sample.time(func() {
				tv := net.Telemetry()
				rec.Sample(net.Cycle()-1, tv.Occ, tv.Inj, tv.Ej, tv.Link)
			})
		})
	}
	total := sim.Time(s.Warmup + s.Measure)
	if eng := net.Engine(); eng == noc.EngineActive || eng == noc.EngineParallel {
		// Idle fast-forward, exactly as RunPerf paces the ticker.
		ticker.OnPace(func(_ uint64, next sim.Time) sim.Time {
			if !net.Quiescent() {
				return next
			}
			arrival := kernel.NextEventTime()
			if arrival <= next {
				return next
			}
			wake := sim.Time(math.Ceil(float64(arrival)))
			if wake > total+1 {
				wake = total + 1
			}
			net.SkipTo(uint64(wake))
			return wake
		})
	}
	ticker.Start()

	loop := tr.begin("sim.RunUntil", parent)
	t0 := time.Now()
	kernel.RunUntil(total)
	t1 := time.Now()
	tr.end(loop)
	st.runUntil = t1.Sub(t0)
	tr.batch("noc.step", loop, t0, t1, st.step.calls, st.step.busy)
	if st.sample.calls > 0 {
		tr.batch("telemetry.sample", loop, t0, t1, st.sample.calls, st.sample.busy)
	}

	finish := tr.begin("core.finish", parent)
	defer tr.end(finish)
	net.SkipTo(uint64(total) + 1)
	if st.sample.calls > 0 {
		if err := d.rec.Flush(); err != nil {
			return st, err
		}
		st.tel = d.rec.Stats()
	}
	if err := net.CheckConservation(); err != nil {
		return st, fmt.Errorf("%s: %w", s.Label(), err)
	}
	st.events = kernel.Processed()
	st.perf = net.Perf()
	st.injected, st.ejected = col.PacketsInjected(), col.PacketsEjected()
	st.throughput, st.meanLatency, st.meanHops = col.Throughput(), col.MeanLatency(), col.MeanHops()
	for _, v := range net.ChannelTraversals() {
		st.linkTraversals += v
	}
	return st, nil
}

// matches reports whether the traced run measured what core.Run did: the
// re-assembled loop must be the same simulation, bit for bit.
func (st simTrace) matches(r core.Result) error {
	if st.injected != r.InjectedPackets || st.ejected != r.EjectedPackets || st.linkTraversals != r.LinkTraversals ||
		st.throughput != r.Throughput || !sameFloat(st.meanLatency, r.MeanLatency) || !sameFloat(st.meanHops, r.MeanHops) {
		return fmt.Errorf("traced driver diverged from core.Run on %s: ejected %d vs %d, link traversals %d vs %d",
			r.Scenario.Label(), st.ejected, r.EjectedPackets, st.linkTraversals, r.LinkTraversals)
	}
	return nil
}

func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// nopChain is the no-op sim.Handler behind the est. sim.ns_per_event
// probe: each firing only schedules its successor, so a run times the
// kernel's schedule + dispatch path at a steady queue depth.
type nopChain struct {
	k    *sim.Kernel
	left int
}

func (c *nopChain) Fire(arg int) {
	if c.left > 0 {
		c.left--
		c.k.ScheduleEvent(c.k.Now()+1, 0, c, arg)
	}
}

// probeKernel returns est. ns per kernel event with `depth` pending
// events, the queue depth of a depth-node network's generator.
func probeKernel(events, depth int) float64 {
	k := sim.NewKernel()
	c := &nopChain{k: k, left: events - depth}
	for i := 0; i < depth; i++ {
		k.ScheduleEvent(sim.Time(i)/sim.Time(depth), 0, c, i)
	}
	t0 := time.Now()
	k.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(k.Processed())
}

// probeCollector returns est. ns per delivered packet spent in
// stats.Collector (one PacketInjected + one PacketEjected).
func probeCollector(packets int) float64 {
	col := stats.NewCollector(0)
	plen := noc.DefaultConfig().PacketLen
	t0 := time.Now()
	for i := 0; i < packets; i++ {
		c := uint64(i)
		col.PacketInjected(c+2, plen)
		col.PacketEjected(c+20, c, c+2, plen, 5)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(packets)
}
