package core

import (
	"fmt"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/sim"
)

// runGolden executes s on the production path — the activity-driven
// engine with its idle fast-forward, and the packet pool — and checks
// the result against the digest the retired sweep engine recorded with
// pooling off. Engine and pooling were the two knobs documented as
// result-neutral; the frozen digests keep that proof for every golden
// and randomized scenario.
func runGolden(t *testing.T, name string, s Scenario) Result {
	t.Helper()
	r, err := Run(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Label(), err)
	}
	checkResult(t, name, r)
	return r
}

// The golden cross-engine matrix: the paper's three topologies at a
// load below the knee, at the knee, and past saturation, under both
// wormhole and virtual cut-through. Run output — every serialized field
// of Result, hence every figure the exp stack derives from it — must
// match what the reference engine produced.
func TestGoldenCrossEngineMatrix(t *testing.T) {
	type load struct {
		name   string
		lambda float64
	}
	loads := []load{
		{"low", 0.01},       // ~0.06 flits/cycle/source: mostly idle
		{"knee", 0.05},      // near the throughput flattening
		{"saturated", 0.15}, // well past saturation
	}
	for _, topo := range []TopologyKind{Ring, Spidergon, Mesh} {
		for _, ld := range loads {
			for _, sw := range []noc.Switching{noc.Wormhole, noc.VirtualCutThrough} {
				s := NewScenario(topo, 16, UniformTraffic, ld.lambda)
				s.Warmup, s.Measure = 200, 1500
				s.Config.Switching = sw
				if sw != noc.Wormhole {
					s.Config.OutBufCap = s.Config.PacketLen
				}
				t.Run(string(topo)+"/"+ld.name+"/"+sw.String(), func(t *testing.T) {
					r := runGolden(t, t.Name(), s)
					if ld.name != "low" && r.EjectedPackets == 0 {
						t.Fatal("degenerate run: nothing ejected")
					}
				})
			}
		}
	}
	// Hot-spot traffic exercises the ejection-port bottleneck paths.
	hs := NewScenario(Spidergon, 16, HotSpotTraffic, 0.03)
	hs.HotSpots = []int{5}
	hs.Warmup, hs.Measure = 200, 1500
	t.Run("spidergon/hotspot", func(t *testing.T) { runGolden(t, t.Name(), hs) })
}

// Fuzz-style scenario equivalence: random draws over the full scenario
// space (topology family, node count, traffic, switching, interface
// rates, arrival process) must keep the engine bit-identical to the
// frozen reference.
func TestGoldenCrossEngineRandomScenarios(t *testing.T) {
	rng := sim.NewRNG(2026)
	topos := []TopologyKind{Ring, Spidergon, Mesh, Torus}
	for trial := 0; trial < 10; trial++ {
		s := NewScenario(topos[rng.Intn(len(topos))], 8+4*rng.Intn(3), UniformTraffic, 0.005+0.08*rng.Float64())
		if s.Topo == Spidergon && s.Nodes%4 != 0 {
			s.Nodes = 16
		}
		if rng.Bernoulli(0.3) {
			s.Traffic = HotSpotTraffic
			s.HotSpots = []int{rng.Intn(s.Nodes)}
		}
		if rng.Bernoulli(0.3) {
			s.Process = 1 // Bernoulli arrivals: a kernel event every cycle
		}
		if rng.Bernoulli(0.4) {
			s.Config.Switching = noc.VirtualCutThrough
			s.Config.OutBufCap = s.Config.PacketLen
		}
		s.Config.SinkRate = 1 + rng.Intn(2)
		s.Config.InjectRate = 1 + rng.Intn(2)
		s.Warmup = 100 + 50*rng.Uint64()%200
		s.Measure = 500 + rng.Uint64()%1000
		s.Seed = rng.Uint64()
		runGolden(t, fmt.Sprintf("%s/trial-%d", t.Name(), trial), s)
	}
}

// The fast-forward must actually fire at low load (the whole point of
// the refactor) and never at saturation.
func TestIdleFastForwardEngages(t *testing.T) {
	s := NewScenario(Spidergon, 16, UniformTraffic, 0.0005)
	s.Warmup, s.Measure = 0, 20000
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	_, perf, err := RunPerf(s)
	if err != nil {
		t.Fatal(err)
	}
	if perf.SkippedCycles < 10000 {
		t.Fatalf("expected most of the %d cycles skipped at near-zero load, got %d", s.Measure, perf.SkippedCycles)
	}

	sat := NewScenario(Spidergon, 16, UniformTraffic, 0.15)
	sat.Warmup, sat.Measure = 100, 2000
	_, perf, err = RunPerf(sat)
	if err != nil {
		t.Fatal(err)
	}
	// Only the startup gap before the first arrival may be skipped.
	if perf.SkippedCycles > 10 {
		t.Fatalf("fast-forward fired %d cycles at saturation", perf.SkippedCycles)
	}
}
