// Package core packages the paper's study as a library: simulation
// scenarios (topology × traffic × injection rate), a deterministic
// runner with warm-up handling, parallel parameter sweeps, the paper's
// hot-spot placements, and generators that rebuild every figure of the
// evaluation section as a table.
package core

import (
	"fmt"
	"sync"

	"gonoc/internal/analysis"
	"gonoc/internal/noc"
	"gonoc/internal/routing"
	"gonoc/internal/telemetry"
	"gonoc/internal/topology"
	"gonoc/internal/traffic"
)

// TopologyKind selects the interconnect family of a scenario.
type TopologyKind string

// Topology families available to scenarios. Ring, Spidergon and Mesh
// are the paper's subjects; IrregularMesh is its "real mesh";
// FactorMesh is the most-balanced exact factorisation of N.
const (
	Ring          TopologyKind = "ring"
	Spidergon     TopologyKind = "spidergon"
	Mesh          TopologyKind = "mesh"
	IrregularMesh TopologyKind = "imesh"
	FactorMesh    TopologyKind = "fmesh"
)

// TrafficKind selects the destination pattern of a scenario.
type TrafficKind string

// Traffic patterns: the paper's homogeneous uniform scenario and the
// hot-spot scenarios (HotSpots lists the targets), plus fixed
// permutation workloads (Permutation names the pattern).
const (
	UniformTraffic     TrafficKind = "uniform"
	HotSpotTraffic     TrafficKind = "hotspot"
	PermutationTraffic TrafficKind = "permutation"
)

// Scenario is one fully specified simulation: build it with the
// defaults from NewScenario and adjust fields before calling Run.
type Scenario struct {
	// Topo and Nodes select the interconnect. For Mesh, Cols/Rows may
	// pin exact dimensions; otherwise the most balanced factorisation
	// of Nodes is used.
	Topo  TopologyKind
	Nodes int
	Cols  int
	Rows  int

	// Traffic selects the destination pattern; HotSpots lists target
	// nodes for HotSpotTraffic; Permutation names the pattern for
	// PermutationTraffic: "bit-complement", "bit-reverse",
	// "neighbor" (ring successor) or "transpose" (square meshes).
	Traffic     TrafficKind
	HotSpots    []int
	Permutation string

	// Lambda is the per-source packet injection rate (packets/cycle);
	// multiply by Config.PacketLen for the paper's flits/cycle axis.
	Lambda float64
	// Routing selects the mesh family's dimension order: "" is the
	// paper's XY, "yx" its YX twin (full meshes only). Ring and
	// Spidergon accept only "", their single paper algorithm.
	Routing string
	// Process selects Poisson (paper) or Bernoulli arrivals.
	Process traffic.Process

	// Warmup cycles are simulated but excluded from measurement;
	// Measure cycles follow.
	Warmup  uint64
	Measure uint64

	// Seed makes the run reproducible.
	Seed uint64

	// Config is the node geometry (buffers, packet length, port rates).
	Config noc.Config

	// Engine selects the Step implementation when StepParallel is zero:
	// the default activity-driven engine or the domain-decomposed
	// parallel one. The engines are result-equivalent bit for bit
	// (proven by the golden tests), so Engine is excluded from the cache
	// key and from the serialized scenario — it changes how fast a
	// result is computed, never what it is.
	Engine noc.Engine `json:"-"`

	// StepParallel, when positive, runs Network.Step domain-decomposed
	// across that many router shards (noc.EngineParallel), overriding
	// Engine; when negative, the shard count is chosen automatically
	// (min(GOMAXPROCS, routers/4), collapsing to the serial engine when
	// that is 1). Zero keeps the configured engine — campaigns
	// default to spending the machine on scenario-level parallelism.
	// Like Engine it is excluded from the cache key and the serialized
	// scenario: the parallel engine is bit-identical to the serial one
	// at every shard count (proven by the golden parallel matrix), so
	// the knob changes wall-clock time, never results. Use it for lone
	// long-running points — near and past saturation — where
	// campaign-level parallelism has nothing left to parallelize.
	StepParallel int `json:"-"`

	// Telemetry, when non-nil with a writer, streams a per-cycle
	// capture of the network's probe counters (occupancy, per-node
	// injection/ejection, link traversals) to Telemetry.W in the
	// chunked delta format of internal/telemetry. Like Engine it is
	// excluded from the cache key and serialization: capture observes
	// the run without perturbing it — results and engine work counters
	// are bit-identical with telemetry on or off, and the capture
	// itself is bit-identical across engines and shard counts (proven
	// by the telemetry golden tests). Ticked cycles emit one sample
	// each; cycles elided by idle fast-forward emit none, which the
	// cycle series records as a delta gap.
	Telemetry *telemetry.Options `json:"-"`
}

// NewScenario returns a scenario with the paper's defaults: Poisson
// arrivals, 6-flit packets, 3-flit output buffers, 1-flit input
// buffers, 1000 warm-up and 10000 measured cycles.
func NewScenario(topo TopologyKind, nodes int, tk TrafficKind, lambda float64) Scenario {
	return Scenario{
		Topo:    topo,
		Nodes:   nodes,
		Traffic: tk,
		Lambda:  lambda,
		Process: traffic.Poisson,
		Warmup:  1000,
		Measure: 10000,
		Seed:    1,
		Config:  noc.DefaultConfig(),
	}
}

// Build constructs the topology and routing algorithm of the scenario.
func (s Scenario) Build() (topology.Topology, routing.Algorithm, error) {
	if s.Routing != "" && s.Topo != Mesh && s.Topo != IrregularMesh && s.Topo != FactorMesh {
		return nil, nil, fmt.Errorf("core: routing override %q only applies to the mesh family", s.Routing)
	}
	switch s.Topo {
	case Ring:
		r, err := topology.NewRing(s.Nodes)
		if err != nil {
			return nil, nil, err
		}
		return r, routing.NewRingRouting(r), nil
	case Spidergon:
		sg, err := topology.NewSpidergon(s.Nodes)
		if err != nil {
			return nil, nil, err
		}
		return sg, routing.NewSpidergonRouting(sg), nil
	case Mesh:
		cols, rows := s.Cols, s.Rows
		if cols <= 0 || rows <= 0 {
			cols, rows = analysis.IdealMeshDims(s.Nodes)
		}
		if cols*rows != s.Nodes {
			return nil, nil, fmt.Errorf("core: mesh %dx%d does not cover %d nodes", cols, rows, s.Nodes)
		}
		m, err := topology.NewMesh(cols, rows)
		if err != nil {
			return nil, nil, err
		}
		return meshWithRouting(m, s.Routing)
	case IrregularMesh:
		m, err := topology.NewIrregularMesh(s.Nodes)
		if err != nil {
			return nil, nil, err
		}
		return meshWithRouting(m, s.Routing)
	case FactorMesh:
		m, err := topology.NewFactorMesh(s.Nodes)
		if err != nil {
			return nil, nil, err
		}
		return meshWithRouting(m, s.Routing)
	default:
		return nil, nil, fmt.Errorf("core: unknown topology kind %q", s.Topo)
	}
}

// meshWithRouting resolves the Routing override on the mesh family.
func meshWithRouting(m *topology.Mesh, override string) (topology.Topology, routing.Algorithm, error) {
	switch override {
	case "":
		return m, routing.NewMeshXY(m), nil
	case "yx":
		a, err := routing.NewMeshYX(m)
		if err != nil {
			return nil, nil, err
		}
		return m, a, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown mesh routing override %q", override)
	}
}

// Pattern constructs the scenario's destination pattern.
func (s Scenario) Pattern() (traffic.Pattern, error) {
	switch s.Traffic {
	case UniformTraffic:
		return traffic.Uniform{N: s.Nodes}, nil
	case HotSpotTraffic:
		if len(s.HotSpots) == 0 {
			return nil, fmt.Errorf("core: hotspot traffic without targets")
		}
		for _, h := range s.HotSpots {
			if h < 0 || h >= s.Nodes {
				return nil, fmt.Errorf("core: hotspot target %d out of range", h)
			}
		}
		return traffic.HotSpot{Targets: s.HotSpots, N: s.Nodes}, nil
	case PermutationTraffic:
		switch s.Permutation {
		case "bit-complement":
			return traffic.BitComplement(s.Nodes), nil
		case "bit-reverse":
			return traffic.BitReverse(s.Nodes), nil
		case "neighbor":
			return traffic.NeighborRing(s.Nodes, 1), nil
		case "transpose":
			cols, rows := s.Cols, s.Rows
			if cols <= 0 || rows <= 0 {
				cols, rows = analysis.IdealMeshDims(s.Nodes)
			}
			m, err := topology.NewMesh(cols, rows)
			if err != nil {
				return nil, err
			}
			return traffic.Transpose(m)
		default:
			return nil, fmt.Errorf("core: unknown permutation %q", s.Permutation)
		}
	default:
		return nil, fmt.Errorf("core: unknown traffic kind %q", s.Traffic)
	}
}

// Validate returns the first configuration error of the scenario.
func (s Scenario) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("core: %d nodes", s.Nodes)
	}
	if s.Lambda < 0 {
		return fmt.Errorf("core: negative lambda %v", s.Lambda)
	}
	if s.Measure == 0 {
		return fmt.Errorf("core: zero measurement window")
	}
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if _, err := s.Pattern(); err != nil {
		return err
	}
	return s.buildable()
}

// geometry is everything Build reads from a scenario.
type geometry struct {
	topo              TopologyKind
	nodes, cols, rows int
	routing           string
}

// buildVerdicts remembers Build's error (nil: it builds) per geometry,
// so validating the thousands of replications and rate points of a
// campaign constructs each distinct interconnect once instead of once
// per point. Build is a pure function of the geometry, which is what
// makes the memo invisible; it is emptied when full so that a process
// fed unbounded distinct geometries cannot grow it without limit.
var buildVerdicts = struct {
	sync.Mutex
	m map[geometry]error
}{m: make(map[geometry]error)}

const maxBuildVerdicts = 1024

// buildable reports whether Build would succeed, constructing the
// topology only the first time a geometry is asked about.
func (s Scenario) buildable() error {
	g := geometry{s.Topo, s.Nodes, s.Cols, s.Rows, s.Routing}
	buildVerdicts.Lock()
	err, known := buildVerdicts.m[g]
	buildVerdicts.Unlock()
	if known {
		return err
	}
	_, _, err = s.Build()
	buildVerdicts.Lock()
	if len(buildVerdicts.m) >= maxBuildVerdicts {
		clear(buildVerdicts.m)
	}
	buildVerdicts.m[g] = err
	buildVerdicts.Unlock()
	return err
}

// Label renders a short scenario identifier for tables and logs.
func (s Scenario) Label() string {
	return fmt.Sprintf("%s-%d/%s λ=%.4g", s.Topo, s.Nodes, s.Traffic, s.Lambda)
}
