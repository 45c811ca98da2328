package noc

import (
	"testing"

	"gonoc/internal/routing"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

func TestChannelTraversalCounts(t *testing.T) {
	// One packet 0 -> 2 on a ring: 6 flits over channels 0->1 and 1->2.
	net := newRingNet(t, 8)
	if err := net.Inject(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.Drain(200); err != nil {
		t.Fatal(err)
	}
	tr := net.ChannelTraversals()
	c01, _ := topology.ChannelBetween(net.Topology(), 0, 1)
	c12, _ := topology.ChannelBetween(net.Topology(), 1, 2)
	if tr[c01.ID] != 6 || tr[c12.ID] != 6 {
		t.Fatalf("traversals = %d,%d, want 6,6", tr[c01.ID], tr[c12.ID])
	}
	// No other channel moved a flit.
	total := uint64(0)
	for _, v := range tr {
		total += v
	}
	if total != 12 {
		t.Fatalf("total traversals = %d, want 12", total)
	}
}

func TestChannelUtilizationBounds(t *testing.T) {
	net := newSpidergonNet(t, 8, DefaultConfig())
	rng := newTestRNG(3)
	for c := 0; c < 1000; c++ {
		if rng.next()%5 == 0 {
			src, dst := int(rng.next()%8), int(rng.next()%8)
			if src != dst {
				_ = net.Inject(src, dst)
			}
		}
		net.Step()
	}
	for id, u := range net.ChannelUtilization() {
		if u < 0 || u > 1 {
			t.Fatalf("channel %d utilisation %v out of [0,1]", id, u)
		}
	}
	s := net.Utilization()
	if s.Max < s.Mean || s.Mean <= 0 {
		t.Fatalf("summary inconsistent: %+v", s)
	}
	if s.P90 < s.P50 {
		t.Fatalf("quantiles inverted: %+v", s)
	}
}

func TestHotspotConcentratesUtilization(t *testing.T) {
	// Under hot-spot traffic the max channel (into the target) carries
	// far more than the mean — the paper's destination bottleneck made
	// visible per link.
	net := newSpidergonNet(t, 12, DefaultConfig())
	rng := newTestRNG(7)
	const target = 5
	for c := 0; c < 4000; c++ {
		for node := 0; node < 12; node++ {
			if node != target && rng.next()%40 == 0 {
				_ = net.Inject(node, target)
			}
		}
		net.Step()
	}
	s := net.Utilization()
	if s.Max < 3*s.Mean {
		t.Fatalf("no concentration: max %v vs mean %v", s.Max, s.Mean)
	}
	if s.MaxChannel.Dst != target {
		t.Fatalf("hottest channel %v does not enter the hot-spot", s.MaxChannel)
	}
}

func TestOccupancySnapshot(t *testing.T) {
	net := newRingNet(t, 8)
	for i := 0; i < 5; i++ {
		_ = net.Inject(0, 4)
	}
	net.StepN(3)
	occ := net.OccupancySnapshot()
	total := 0
	for _, v := range occ {
		total += v
	}
	if total != net.InFlightFlits() {
		t.Fatalf("snapshot sum %d != in-flight %d", total, net.InFlightFlits())
	}
}

func TestAdaptiveWestFirstNetwork(t *testing.T) {
	// End-to-end: west-first adaptive routing on a mesh network
	// delivers everything, never deadlocks, and under a skewed load
	// spreads eastbound traffic across both minimal dimensions.
	m := topology.MustMesh(4, 4)
	alg, err := routing.NewMeshWestFirst(m)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(m, alg, DefaultConfig(), stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	rng := newTestRNG(11)
	for c := 0; c < 3000; c++ {
		for node := 0; node < 16; node++ {
			if rng.next()%20 == 0 {
				dst := int(rng.next() % 16)
				if dst != node {
					_ = net.Inject(node, dst)
				}
			}
		}
		net.Step()
		if net.IdleCycles() > 100 && net.InFlightFlits() > 0 {
			t.Fatal("adaptive mesh deadlocked")
		}
	}
	if err := net.Drain(100000); err != nil {
		t.Fatal(err)
	}
	if net.EjectedPackets() != net.CreatedPackets() {
		t.Fatalf("delivered %d of %d", net.EjectedPackets(), net.CreatedPackets())
	}
}

func TestAdaptiveSpreadsLoadVsXY(t *testing.T) {
	// Heavy corner-to-corner eastbound flow: adaptive west-first should
	// use at least as many distinct channels as deterministic XY.
	run := func(adaptive bool) int {
		m := topology.MustMesh(4, 4)
		var alg routing.Algorithm
		if adaptive {
			a, err := routing.NewMeshWestFirst(m)
			if err != nil {
				t.Fatal(err)
			}
			alg = a
		} else {
			alg = routing.NewMeshXY(m)
		}
		net, err := NewNetwork(m, alg, DefaultConfig(), stats.NewCollector(0))
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2000; c++ {
			_ = net.Inject(0, 15)
			_ = net.Inject(1, 15)
			net.Step()
		}
		used := 0
		for _, v := range net.ChannelTraversals() {
			if v > 0 {
				used++
			}
		}
		return used
	}
	xy, wf := run(false), run(true)
	if wf < xy {
		t.Fatalf("adaptive used %d channels, xy used %d", wf, xy)
	}
}
