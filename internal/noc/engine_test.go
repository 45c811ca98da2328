package noc

import (
	"fmt"
	"testing"

	"gonoc/internal/routing"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

// stateFingerprint summarises everything observable about a network at
// one cycle boundary: the packet counters, per-channel traversals, and
// per-node buffer occupancy.
func stateFingerprint(n *Network) string {
	return fmt.Sprintf("cycle=%d created=%d injected=%d ejected=%d queued=%d inflight=%d idle=%d links=%v occ=%v",
		n.Cycle(), n.CreatedPackets(), n.InjectedPackets(), n.EjectedPackets(),
		n.QueuedPackets(), n.InFlightFlits(), n.IdleCycles(), n.ChannelTraversals(), n.OccupancySnapshot())
}

// The engine must track the frozen sweep reference cycle for cycle, not
// just at the end of a run: any divergence in arbitration order changes
// the buffer occupancy fingerprint the same cycle it happens, and with it
// the digest. The worklist-load gauge is hashed alongside; the reference
// derived it by walking the buffers.
func TestEnginesAgreeCycleByCycle(t *testing.T) {
	s := topology.MustSpidergon(16)
	n := goldenNet(t, s, routing.NewSpidergonRouting(s), DefaultConfig())
	fp := newFingerprints()
	rng := sim.NewRNG(7)
	for cycle := 0; cycle < 4000; cycle++ {
		if rng.Bernoulli(0.3) {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src != dst {
				if err := n.Inject(src, dst); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.Step()
		fp.add(n, n.ActiveNodes())
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(10000); err != nil {
		t.Fatal(err)
	}
	fp.add(n)
	checkGolden(t, "cycle-by-cycle", fp.sum())
}

// Fuzz-style equivalence: random topologies, switching modes, buffer
// geometries, interface rates and injection streams must never separate
// the engine from the frozen reference. Each trial also proves the
// worklist invariants via CheckConservation.
func TestEnginesAgreeRandomized(t *testing.T) {
	master := sim.NewRNG(42)
	for trial := 0; trial < 12; trial++ {
		rng := master.Split()
		var topo topology.Topology
		var alg routing.Algorithm
		switch rng.Intn(3) {
		case 0:
			r := topology.MustRing(8 + 2*rng.Intn(5))
			topo, alg = r, routing.NewRingRouting(r)
		case 1:
			s := topology.MustSpidergon(8 + 4*rng.Intn(3))
			topo, alg = s, routing.NewSpidergonRouting(s)
		default:
			m := topology.MustMesh(3+rng.Intn(2), 3+rng.Intn(2))
			topo, alg = m, routing.NewMeshXY(m)
		}
		cfg := DefaultConfig()
		cfg.PacketLen = 2 + rng.Intn(6)
		cfg.OutBufCap = 1 + rng.Intn(6)
		cfg.SinkRate = 1 + rng.Intn(2)
		cfg.InjectRate = 1 + rng.Intn(2)
		if rng.Bernoulli(0.5) {
			cfg.Switching = VirtualCutThrough
			if cfg.OutBufCap < cfg.PacketLen {
				cfg.OutBufCap = cfg.PacketLen
			}
		}
		n := goldenNet(t, topo, alg, cfg)
		nodes := topo.Nodes()
		rate := 0.05 + 0.4*rng.Float64()
		for cycle := 0; cycle < 1500; cycle++ {
			if rng.Bernoulli(rate) {
				src, dst := rng.Intn(nodes), rng.Intn(nodes)
				if src != dst {
					_ = n.Inject(src, dst)
				}
			}
			n.Step()
		}
		fp := newFingerprints()
		fp.add(n)
		checkGolden(t, fmt.Sprintf("randomized/trial-%d", trial), fp.sum())
		if err := n.CheckConservation(); err != nil {
			t.Fatalf("trial %d (%s, %v): %v", trial, topo.Name(), cfg, err)
		}
	}
}

// SkipTo must be exactly equivalent to stepping an idle network: both
// engines, fast-forwarded across a quiescent gap, must agree with a
// twin that stepped through it — round-robin rotations included (the
// injections after the gap land differently if any rotation drifts).
func TestSkipToMatchesIdleStepping(t *testing.T) {
	for _, eng := range []Engine{EngineActive, EngineParallel} {
		skip, step := newSpidergonNet(t, 16, DefaultConfig()), newSpidergonNet(t, 16, DefaultConfig())
		if eng == EngineParallel {
			skip.SetShards(3)
			step.SetShards(3)
			defer skip.StopWorkers()
			defer step.StopWorkers()
		}
		skip.SetEngine(eng)
		step.SetEngine(eng)
		load := func(n *Network) {
			for i := 0; i < 5; i++ {
				if err := n.Inject(i, i+7); err != nil {
					t.Fatal(err)
				}
			}
			for c := 0; c < 200; c++ {
				n.Step()
			}
			if !n.Quiescent() {
				t.Fatal("network failed to drain before the gap")
			}
		}
		load(skip)
		load(step)
		skip.SkipTo(skip.Cycle() + 777)
		for c := 0; c < 777; c++ {
			step.Step()
		}
		load(skip)
		load(step)
		if fa, fb := stateFingerprint(skip), stateFingerprint(step); fa != fb {
			t.Fatalf("%v: SkipTo diverged from idle stepping:\nskip: %s\nstep: %s", eng, fa, fb)
		}
	}
}

// The worklist invariant checker must actually catch a stranded flit.
func TestCheckActiveInvariantsCatchesStranding(t *testing.T) {
	s := topology.MustSpidergon(16)
	net, err := NewNetwork(s, routing.NewSpidergonRouting(s), DefaultConfig(), stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Inject(0, 5); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		net.Step()
	}
	if net.InFlightFlits() == 0 {
		t.Fatal("expected in-flight flits")
	}
	// Knock every router off the worklists behind the engine's back.
	net.wl.ej.clear()
	net.wl.sw.clear()
	net.wl.out.clear()
	if err := net.CheckConservation(); err == nil {
		t.Fatal("conservation check missed a stranded flit")
	}
}
