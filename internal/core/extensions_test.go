package core

import (
	"math"
	"strings"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/routing"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

// Every geometry Validate accepts is proven routable: each topology
// kind × Routing value at small sizes builds an algorithm that delivers
// every pair, has an acyclic channel dependency graph, and — all of the
// paper's algorithms and YX being documented minimal — takes shortest
// paths. Retired topologies and routing names fail Validate.
func TestAcceptedGeometriesRoutable(t *testing.T) {
	kinds := []TopologyKind{Ring, Spidergon, Mesh, IrregularMesh, FactorMesh}
	accepted := map[string]int{}
	for _, kind := range kinds {
		for _, override := range []string{"", "yx"} {
			for _, n := range []int{4, 6, 8, 9, 12, 13, 16, 20} {
				s := NewScenario(kind, n, UniformTraffic, 0.01)
				s.Routing = override
				if s.Validate() != nil {
					continue
				}
				topo, alg, err := s.Build()
				if err != nil {
					t.Fatalf("%s routing %q: Validate accepts what Build rejects: %v", s.Label(), override, err)
				}
				for _, check := range []func(routing.Algorithm, topology.Topology) error{
					routing.CheckConnected, routing.CheckDeadlockFree, routing.CheckMinimal,
				} {
					if err := check(alg, topo); err != nil {
						t.Errorf("%s routing %q: %v", s.Label(), override, err)
					}
				}
				accepted[string(kind)+"/"+override]++
			}
		}
	}
	for _, want := range []string{"ring/", "spidergon/", "mesh/", "mesh/yx", "imesh/", "imesh/yx", "fmesh/", "fmesh/yx"} {
		if accepted[want] == 0 {
			t.Errorf("no %s geometry accepted", want)
		}
	}
	for _, key := range []string{"ring/yx", "spidergon/yx"} {
		if accepted[key] != 0 {
			t.Errorf("%d %s geometries accepted", accepted[key], key)
		}
	}

	rejected := []Scenario{
		NewScenario("torus", 16, UniformTraffic, 0.01),
		NewScenario("chordal", 16, UniformTraffic, 0.01),
		func() Scenario { s := NewScenario(IrregularMesh, 13, UniformTraffic, 0.01); s.Routing = "yx"; return s }(),
		func() Scenario { s := NewScenario(Ring, 8, UniformTraffic, 0.01); s.Routing = "yx"; return s }(),
	}
	for _, override := range []string{"xy", "west-first", "table", "hyperspace"} {
		s := NewScenario(Mesh, 16, UniformTraffic, 0.01)
		s.Routing = override
		rejected = append(rejected, s)
	}
	for _, s := range rejected {
		if err := s.Validate(); err == nil {
			t.Errorf("%s routing %q accepted", s.Label(), s.Routing)
		}
	}
}

func TestRoutingOverridesRunEquivalently(t *testing.T) {
	// XY and YX are both minimal on a full mesh: under light uniform
	// load their mean hop counts agree and everything is delivered.
	var hops []float64
	for _, override := range []string{"", "yx"} {
		s := NewScenario(Mesh, 16, UniformTraffic, 0.005)
		s.Routing = override
		s.Warmup, s.Measure = 500, 6000
		r, err := Run(s)
		if err != nil {
			t.Fatalf("%q: %v", override, err)
		}
		if r.EjectedPackets == 0 {
			t.Fatalf("%q: nothing delivered", override)
		}
		hops = append(hops, r.MeanHops)
	}
	for i := 1; i < len(hops); i++ {
		if math.Abs(hops[i]-hops[0]) > 0.15*hops[0] {
			t.Fatalf("hop counts diverge across minimal algorithms: %v", hops)
		}
	}
}

func TestResultCostAndUtilizationFields(t *testing.T) {
	s := NewScenario(Spidergon, 8, UniformTraffic, 0.01)
	s.Warmup, s.Measure = 200, 4000
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkTraversals == 0 {
		t.Fatal("no link traversals recorded")
	}
	if r.MeanLinkUtil <= 0 || r.MaxLinkUtil < r.MeanLinkUtil || r.MaxLinkUtil > 1 {
		t.Fatalf("utilisation fields inconsistent: mean %v max %v", r.MeanLinkUtil, r.MaxLinkUtil)
	}
	// Energy per packet = 6 * (hops*1 + (hops+1)*1.5) under defaults.
	want := 6 * (r.MeanHops + (r.MeanHops+1)*1.5)
	if math.Abs(r.EnergyPerPacket-want) > 1e-9 {
		t.Fatalf("energy per packet %v, want %v", r.EnergyPerPacket, want)
	}
	if r.TotalEnergy != r.EnergyPerPacket*float64(r.EjectedPackets) {
		t.Fatal("total energy inconsistent")
	}
}

func TestEnergyOrderingRingWorst(t *testing.T) {
	// Uniform traffic: ring's higher hop count costs more energy per
	// packet than spidergon's at equal N — the paper's energy argument.
	energy := map[TopologyKind]float64{}
	for _, kind := range []TopologyKind{Ring, Spidergon} {
		s := NewScenario(kind, 16, UniformTraffic, 0.01)
		s.Warmup, s.Measure = 300, 4000
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		energy[kind] = r.EnergyPerPacket
	}
	if energy[Ring] <= energy[Spidergon] {
		t.Fatalf("ring energy %v not above spidergon %v", energy[Ring], energy[Spidergon])
	}
}

func TestSwitchingModesInScenario(t *testing.T) {
	// VCT matches wormhole at light load; SAF is slower. All deliver.
	lat := map[noc.Switching]float64{}
	for _, mode := range []noc.Switching{noc.Wormhole, noc.VirtualCutThrough, noc.StoreAndForward} {
		s := NewScenario(Spidergon, 16, UniformTraffic, 0.004)
		s.Config.Switching = mode
		s.Config.OutBufCap = 6
		s.Warmup, s.Measure = 300, 6000
		r, err := Run(s)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if r.EjectedPackets == 0 {
			t.Fatalf("%v: nothing delivered", mode)
		}
		lat[mode] = r.MeanLatency
	}
	if math.Abs(lat[noc.Wormhole]-lat[noc.VirtualCutThrough]) > 0.15*lat[noc.Wormhole] {
		t.Fatalf("light-load VCT %v far from wormhole %v", lat[noc.VirtualCutThrough], lat[noc.Wormhole])
	}
	if lat[noc.StoreAndForward] < 1.5*lat[noc.Wormhole] {
		t.Fatalf("SAF latency %v not clearly above wormhole %v", lat[noc.StoreAndForward], lat[noc.Wormhole])
	}
}

func TestPlotRendersAllSeries(t *testing.T) {
	tab := &Table{Title: "plot-demo", XName: "load"}
	a := &stats.Series{Name: "alpha"}
	b := &stats.Series{Name: "beta"}
	for i := 0; i < 10; i++ {
		a.Append(float64(i), float64(i*i))
		b.Append(float64(i), float64(10-i))
	}
	tab.Add(a)
	tab.Add(b)
	out := tab.Plot(40, 10)
	for _, want := range []string{"plot-demo", "alpha", "beta", "x: load", "o", "x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 14 {
		t.Fatalf("plot too short: %d lines", len(lines))
	}
}

func TestPlotEmptyAndDegenerate(t *testing.T) {
	tab := &Table{Title: "empty", XName: "x"}
	if !strings.Contains(tab.Plot(40, 10), "no data") {
		t.Fatal("empty plot should say so")
	}
	// Single point: bounds degenerate but must not panic.
	s := &stats.Series{Name: "pt"}
	s.Append(1, 1)
	tab.Add(s)
	if out := tab.Plot(5, 3); out == "" { // tiny sizes clamp up
		t.Fatal("degenerate plot empty")
	}
}

func TestPlotClampsTinySizes(t *testing.T) {
	tab := &Table{Title: "t", XName: "x"}
	s := &stats.Series{Name: "s"}
	s.Append(0, 0)
	s.Append(1, 1)
	tab.Add(s)
	out := tab.Plot(1, 1)
	if !strings.Contains(out, "t") {
		t.Fatal("clamped plot broken")
	}
}

func TestPermutationTrafficKinds(t *testing.T) {
	for _, perm := range []string{"bit-complement", "bit-reverse", "neighbor"} {
		s := NewScenario(Spidergon, 16, PermutationTraffic, 0.01)
		s.Permutation = perm
		s.Warmup, s.Measure = 200, 3000
		r, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", perm, err)
		}
		if r.EjectedPackets == 0 {
			t.Fatalf("%s: nothing delivered", perm)
		}
	}
	// Transpose runs on a square mesh and every delivered packet took
	// the |x-y| exchange path.
	s := NewScenario(Mesh, 16, PermutationTraffic, 0.01)
	s.Permutation = "transpose"
	s.Warmup, s.Measure = 200, 3000
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.EjectedPackets == 0 {
		t.Fatal("transpose delivered nothing")
	}
	// Transpose on a non-square mesh is rejected.
	s = NewScenario(Mesh, 8, PermutationTraffic, 0.01)
	s.Permutation = "transpose"
	if err := s.Validate(); err == nil {
		t.Fatal("transpose on 2x4 accepted")
	}
	// Unknown permutation rejected.
	s = NewScenario(Ring, 8, PermutationTraffic, 0.01)
	s.Permutation = "mystery"
	if err := s.Validate(); err == nil {
		t.Fatal("unknown permutation accepted")
	}
}

func TestBitComplementStressesBisection(t *testing.T) {
	// Bit-complement pairs opposite halves, forcing every packet across
	// the bisection: the ring suffers far more than the spidergon,
	// whose across links serve exactly this pattern.
	tput := map[TopologyKind]float64{}
	for _, kind := range []TopologyKind{Ring, Spidergon} {
		s := NewScenario(kind, 16, PermutationTraffic, 0.05)
		s.Permutation = "bit-complement"
		s.Warmup, s.Measure = 500, 5000
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		tput[kind] = r.Throughput
	}
	if tput[Spidergon] <= tput[Ring] {
		t.Fatalf("spidergon %v not above ring %v on bit-complement", tput[Spidergon], tput[Ring])
	}
}
