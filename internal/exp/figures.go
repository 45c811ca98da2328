package exp

import (
	"context"
	"fmt"

	"gonoc/internal/analysis"
	"gonoc/internal/core"
	"gonoc/internal/noc"
	"gonoc/internal/stats"
)

// The simulated paper figures (5 through 11) are regenerated here as
// campaign grids: every curve point is a grid cell replicated Reps
// times under split seeds, so each table value carries a cross-
// replication mean and CI95 half-width. The analytic figures (2, 3)
// stay in internal/core — they need no simulation.

// FigureOpts parameterises the figure regenerators. Zero-value fields
// fall back to the defaults of DefaultFigureOpts, which match the
// paper's ranges (8–32 nodes, loads from well below to well past
// saturation).
type FigureOpts struct {
	// Sizes lists the node counts N simulated for Figures 5-11.
	Sizes []int
	// LoadFractions, for the hot-spot figures, are multiples of the
	// analytic saturation rate λ_sat = k·sink/(sources·flits) at which
	// each curve is sampled.
	LoadFractions []float64
	// UniformFlitRates, for the homogeneous figures, are per-source
	// injection rates in flits/cycle (the paper's x axis) sampled
	// identically for every topology.
	UniformFlitRates []float64
	// Warmup and Measure are the per-run cycle counts.
	Warmup, Measure uint64
	// Seed derives all run seeds.
	Seed uint64
	// Reps is the number of replications behind every figure point;
	// the CI95 columns summarise across them.
	Reps int
	// Parallel bounds concurrent simulations; <= 0 selects GOMAXPROCS.
	Parallel int
	// CITarget, when positive, adds replications per point until the
	// CI95 half-width is within CITarget of the mean (see Runner).
	CITarget float64
	// MaxReps caps adaptive replications per point (see Runner).
	MaxReps int
	// Cache, when set, replays previously measured grid points instead
	// of re-simulating them (see Runner).
	Cache Cache
}

// DefaultFigureOpts returns the ranges used by cmd/nocfigs: the paper's
// node counts, a load grid spanning 0.2×–1.6× saturation, and three
// replications per point.
func DefaultFigureOpts() FigureOpts {
	return FigureOpts{
		Sizes:            []int{8, 16, 24, 32},
		LoadFractions:    []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.6},
		UniformFlitRates: []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5},
		Warmup:           2000,
		Measure:          20000,
		Seed:             1,
		Reps:             3,
	}
}

func (o FigureOpts) withDefaults() FigureOpts {
	d := DefaultFigureOpts()
	if len(o.Sizes) == 0 {
		o.Sizes = d.Sizes
	}
	if len(o.LoadFractions) == 0 {
		o.LoadFractions = d.LoadFractions
	}
	if len(o.UniformFlitRates) == 0 {
		o.UniformFlitRates = d.UniformFlitRates
	}
	if o.Warmup == 0 {
		o.Warmup = d.Warmup
	}
	if o.Measure == 0 {
		o.Measure = d.Measure
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.Reps <= 0 {
		o.Reps = d.Reps
	}
	return o
}

// runner builds the campaign runner the figure's grids execute on.
func (o FigureOpts) runner() Runner {
	return Runner{Parallel: o.Parallel, Cache: o.Cache, CITarget: o.CITarget, MaxReps: o.MaxReps}
}

// campaign seeds a figure campaign with the options' run parameters.
func (o FigureOpts) campaign(name string) Campaign {
	return Campaign{
		Name:    name,
		Reps:    o.Reps,
		Seed:    o.Seed,
		Warmup:  o.Warmup,
		Measure: o.Measure,
	}
}

// topoSet is the trio the paper simulates.
var topoSet = []core.TopologyKind{core.Ring, core.Spidergon, core.Mesh}

// evenSize rounds n up to even (spidergon requires it) so one size list
// serves all topologies.
func evenSize(n int) int {
	if n%2 == 1 {
		return n + 1
	}
	return n
}

// evenSizes normalizes and dedups the option's size list.
func evenSizes(sizes []int) []int {
	var out []int
	seen := map[int]bool{}
	for _, n := range sizes {
		e := evenSize(n)
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// Fig5Validation regenerates Figure 5: the analytically estimated
// average distance against the simulation-measured mean hop count,
// under light uniform traffic, for each topology and size. The
// simulated columns carry CI95 half-widths across replications.
func Fig5Validation(ctx context.Context, o FigureOpts) (*core.Table, error) {
	o = o.withDefaults()
	sizes := evenSizes(o.Sizes)
	c := o.campaign("fig5")
	c.Topologies = topoSet
	c.Nodes = sizes
	c.Traffics = []TrafficSpec{{Kind: core.UniformTraffic}}
	// The seed study samples λ = 0.01 packets/cycle; campaigns speak
	// flits/cycle, so scale by the packet length.
	c.FlitRates = []float64{0.01 * float64(noc.DefaultConfig().PacketLen)}

	aggs, err := o.runner().Run(ctx, c)
	if err != nil {
		return nil, err
	}

	t := &core.Table{Title: "Figure 5: analytical and simulation-based average network distances (hops)", XName: "N"}
	analytic := map[core.TopologyKind]*stats.Series{}
	sim := map[core.TopologyKind]*stats.Series{}
	for _, kind := range topoSet {
		analytic[kind] = &stats.Series{Name: "analytic-" + string(kind)}
		sim[kind] = &stats.Series{Name: "sim-" + string(kind)}
	}
	for _, kind := range topoSet {
		for _, n := range sizes {
			var an float64
			switch kind {
			case core.Ring:
				an = analysis.RingAvgDistanceExact(n)
			case core.Spidergon:
				an = analysis.SpidergonAvgDistanceExact(n)
			case core.Mesh:
				cols, rows := analysis.IdealMeshDims(n)
				an = analysis.MeshAvgDistanceExact(cols, rows)
			}
			analytic[kind].Append(float64(n), an)
		}
	}
	for _, a := range aggs {
		sim[a.Topo].AppendCI(float64(a.Nodes), a.MeanHops.Mean, a.MeanHops.CI95)
	}
	for _, kind := range topoSet {
		t.Add(analytic[kind])
	}
	for _, kind := range topoSet {
		t.Add(sim[kind])
	}
	return t, nil
}

// Fig6HotspotThroughput regenerates Figure 6: aggregate NoC throughput
// versus injection rate with a single hot-spot destination. Mesh curves
// come in corner- and center-target variants, since the paper samples
// "different points on the Mesh topology".
func Fig6HotspotThroughput(ctx context.Context, o FigureOpts) (*core.Table, error) {
	return hotspotFigure(ctx, o, 1, "Figure 6: NoC throughput, one hot-spot destination node", false)
}

// Fig7HotspotLatency regenerates Figure 7: mean packet latency under a
// single hot-spot destination.
func Fig7HotspotLatency(ctx context.Context, o FigureOpts) (*core.Table, error) {
	return hotspotFigure(ctx, o, 1, "Figure 7: NoC latency, one hot-spot destination node", true)
}

// Fig8DoubleHotspotThroughput regenerates Figure 8: throughput with two
// hot-spot destinations across the paper's placements.
func Fig8DoubleHotspotThroughput(ctx context.Context, o FigureOpts) (*core.Table, error) {
	return hotspotFigure(ctx, o, 2, "Figure 8: NoC throughput, two hot-spot destination nodes", false)
}

// Fig9DoubleHotspotLatency regenerates Figure 9: latency with two
// hot-spot destinations.
func Fig9DoubleHotspotLatency(ctx context.Context, o FigureOpts) (*core.Table, error) {
	return hotspotFigure(ctx, o, 2, "Figure 9: NoC latency, two hot-spot destination nodes", true)
}

// hotspotFigure runs the single- or double-hot-spot grid as one
// campaign per curve (each curve's rate grid is a fraction ladder of
// its own analytic saturation rate), executed as a single batch.
func hotspotFigure(ctx context.Context, o FigureOpts, k int, title string, latency bool) (*core.Table, error) {
	o = o.withDefaults()
	plen := noc.DefaultConfig().PacketLen
	var names []string
	var campaigns []Campaign
	for _, n := range evenSizes(o.Sizes) {
		for _, kind := range topoSet {
			for _, v := range hotspotVariants(kind, n, k) {
				lamSat := analysis.HotspotSaturationLambda(len(v.targets), 1, n-len(v.targets), plen)
				rates := make([]float64, len(o.LoadFractions))
				for i, f := range o.LoadFractions {
					rates[i] = f * lamSat * float64(plen)
				}
				name := fmt.Sprintf("%s-%d%s", kind, n, v.suffix)
				c := o.campaign(name)
				c.Topologies = []core.TopologyKind{kind}
				c.Nodes = []int{n}
				c.Traffics = []TrafficSpec{{Kind: core.HotSpotTraffic, HotSpots: v.targets, Label: "hotspot" + v.suffix}}
				c.FlitRates = rates
				names = append(names, name)
				campaigns = append(campaigns, c)
			}
		}
	}
	aggs, err := o.runner().RunAll(ctx, campaigns)
	if err != nil {
		return nil, err
	}
	return curveTable(title, names, aggs, latency), nil
}

// curveTable folds aggregates into one series per campaign name, in
// the given order, carrying the CI95 half-width of each point.
func curveTable(title string, names []string, aggs []Aggregate, latency bool) *core.Table {
	t := &core.Table{Title: title, XName: "injection rate (flits/cycle/source)"}
	series := map[string]*stats.Series{}
	for _, name := range names {
		series[name] = &stats.Series{Name: name}
		t.Add(series[name])
	}
	for _, a := range aggs {
		s, ok := series[a.Campaign]
		if !ok {
			continue
		}
		m := a.Throughput
		if latency {
			m = a.Latency
		}
		s.AppendCI(a.FlitRate, m.Mean, m.CI95)
	}
	return t
}

// hotspotVariant names one target placement for a topology.
type hotspotVariant struct {
	suffix  string
	targets []int
}

// hotspotVariants enumerates the paper's placements: for k=1, ring and
// spidergon use node 0 (symmetric), the mesh is sampled at corner and
// center; for k=2 the §3.1.2 scenarios A/B (and C on meshes).
func hotspotVariants(kind core.TopologyKind, n, k int) []hotspotVariant {
	meshFamily := kind == core.Mesh || kind == core.FactorMesh || kind == core.IrregularMesh
	if k == 1 {
		if meshFamily {
			return []hotspotVariant{
				{suffix: "-corner", targets: []int{core.SingleHotspot(kind, n, false, 0, 0)}},
				{suffix: "-center", targets: []int{core.SingleHotspot(kind, n, true, 0, 0)}},
			}
		}
		return []hotspotVariant{{suffix: "", targets: []int{0}}}
	}
	placements := []core.Placement{core.PlacementA, core.PlacementB}
	if meshFamily {
		placements = append(placements, core.PlacementC)
	}
	var out []hotspotVariant
	for _, p := range placements {
		targets, err := core.DoubleHotspots(kind, n, p, 0, 0)
		if err != nil {
			continue
		}
		out = append(out, hotspotVariant{suffix: fmt.Sprintf("-%c", p), targets: targets})
	}
	return out
}

// Fig10UniformThroughput regenerates Figure 10: aggregate throughput
// under the homogeneous uniform scenario, sampled at identical
// injection rates for every topology.
func Fig10UniformThroughput(ctx context.Context, o FigureOpts) (*core.Table, error) {
	return uniformFigure(ctx, o, "Figure 10: NoC throughput, homogeneous sources and destinations", false)
}

// Fig11UniformLatency regenerates Figure 11: mean latency under the
// homogeneous uniform scenario.
func Fig11UniformLatency(ctx context.Context, o FigureOpts) (*core.Table, error) {
	return uniformFigure(ctx, o, "Figure 11: NoC latency, homogeneous sources and destinations", true)
}

// uniformFigure runs the homogeneous grid as one campaign crossing
// topologies × sizes × rates, then splits the aggregates into one
// curve per (topology, size).
func uniformFigure(ctx context.Context, o FigureOpts, title string, latency bool) (*core.Table, error) {
	o = o.withDefaults()
	sizes := evenSizes(o.Sizes)
	c := o.campaign("uniform")
	c.Topologies = topoSet
	c.Nodes = sizes
	c.Traffics = []TrafficSpec{{Kind: core.UniformTraffic}}
	c.FlitRates = o.UniformFlitRates

	aggs, err := o.runner().Run(ctx, c)
	if err != nil {
		return nil, err
	}

	t := &core.Table{Title: title, XName: "injection rate (flits/cycle/source)"}
	series := map[string]*stats.Series{}
	for _, n := range sizes {
		for _, kind := range topoSet {
			name := fmt.Sprintf("%s-%d", kind, n)
			series[name] = &stats.Series{Name: name}
			t.Add(series[name])
		}
	}
	for _, a := range aggs {
		s, ok := series[fmt.Sprintf("%s-%d", a.Topo, a.Nodes)]
		if !ok {
			continue
		}
		m := a.Throughput
		if latency {
			m = a.Latency
		}
		s.AppendCI(a.FlitRate, m.Mean, m.CI95)
	}
	return t, nil
}
