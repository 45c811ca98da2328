package gonoc_test

import (
	"context"
	"fmt"
	"log"

	"gonoc/internal/core"
	"gonoc/internal/exp"
)

// Simulate a 16-node Spidergon NoC under uniform traffic and print its
// throughput and latency: the minimal end-to-end use of the library.
func Example_quickstart() {
	// A scenario bundles topology, traffic and the paper's node
	// geometry (6-flit packets, 3-flit output queues, 1-flit input
	// buffers, Poisson sources).
	s := core.NewScenario(core.Spidergon, 16, core.UniformTraffic, 0.02)
	s.Warmup = 1000   // cycles excluded from measurement
	s.Measure = 10000 // measured cycles
	s.Seed = 42       // reruns reproduce results exactly

	r, err := core.Run(s)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("topology        %s\n", r.TopologyName)
	fmt.Printf("offered load    %.3f flits/cycle\n", r.OfferedFlitRate)
	fmt.Printf("throughput      %.3f flits/cycle\n", r.Throughput)
	fmt.Printf("mean latency    %.1f cycles\n", r.MeanLatency)
	fmt.Printf("mean hops       %.2f (analytic E[D] = 2.60)\n", r.MeanHops)
	fmt.Printf("delivered       %d packets\n", r.EjectedPackets)
	// Output:
	// topology        spidergon-16
	// offered load    1.920 flits/cycle
	// throughput      1.915 flits/cycle
	// mean latency    11.8 cycles
	// mean hops       2.62 (analytic E[D] = 2.60)
	// delivered       3192 packets
}

// One declarative exp.Campaign reproduces a Figure-8-style grid:
// throughput and latency under two hot-spot destinations (placement A)
// across Ring, Spidergon and Mesh, with replicated seeds and 95%
// confidence intervals. The runner simulates the grid points in
// parallel, and the aggregates are identical at every parallelism.
func Example_campaign() {
	// The whole figure grid is one value: topologies × node counts ×
	// traffic × rates × replications. The reduced cycle counts keep the
	// example fast; raise Warmup/Measure for publication numbers.
	campaign := exp.Campaign{
		Name:       "figure8-demo",
		Topologies: []core.TopologyKind{core.Ring, core.Spidergon, core.Mesh},
		Nodes:      []int{16},
		Traffics: []exp.TrafficSpec{
			{Kind: core.HotSpotTraffic, Placement: core.PlacementA},
		},
		FlitRates: []float64{0.02, 0.05, 0.08, 0.11, 0.14},
		Reps:      3,
		Seed:      7,
		Warmup:    500,
		Measure:   5000,
	}
	aggs, err := exp.Runner{}.Run(context.Background(), campaign)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Figure-8-style grid: two hot-spot targets (placement A), N=16")
	fmt.Printf("%-14s %9s %22s %22s\n", "topology", "flits/cyc", "throughput (±CI95)", "latency (±CI95)")
	for _, a := range aggs {
		fmt.Printf("%-14s %9.3f %13.4f ±%7.4f %13.2f ±%7.2f\n",
			fmt.Sprintf("%s-%d", a.Topo, a.Nodes), a.FlitRate,
			a.Throughput.Mean, a.Throughput.CI95,
			a.Latency.Mean, a.Latency.CI95)
	}
	// Output:
	// Figure-8-style grid: two hot-spot targets (placement A), N=16
	// topology       flits/cyc     throughput (±CI95)        latency (±CI95)
	// ring-16            0.020        0.2772 ± 0.0408         13.78 ±   1.00
	// ring-16            0.050        0.7150 ± 0.1010         15.28 ±   0.32
	// ring-16            0.080        1.0636 ± 0.1476         17.56 ±   1.66
	// ring-16            0.110        1.5579 ± 0.0921         28.87 ±   6.70
	// ring-16            0.140        1.8488 ± 0.0625        126.67 ±  69.07
	// spidergon-16       0.020        0.2959 ± 0.0188         10.98 ±   0.13
	// spidergon-16       0.050        0.7115 ± 0.0699         12.49 ±   0.80
	// spidergon-16       0.080        1.1395 ± 0.0559         15.47 ±   0.15
	// spidergon-16       0.110        1.5305 ± 0.0975         24.05 ±  10.32
	// spidergon-16       0.140        1.8420 ± 0.0553        133.92 ±  13.61
	// mesh-16            0.020        0.2772 ± 0.0137         11.77 ±   0.68
	// mesh-16            0.050        0.6800 ± 0.0963         13.17 ±   0.97
	// mesh-16            0.080        1.1240 ± 0.0837         15.87 ±   1.82
	// mesh-16            0.110        1.5129 ± 0.0344         23.19 ±   3.26
	// mesh-16            0.140        1.8684 ± 0.0260        124.92 ± 146.92
}
