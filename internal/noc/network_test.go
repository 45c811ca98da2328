package noc

import (
	"fmt"
	"strings"
	"testing"

	"gonoc/internal/routing"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

// newRingNet builds a small ring network with paper-default config.
func newRingNet(t *testing.T, n int) *Network {
	t.Helper()
	r := topology.MustRing(n)
	net, err := NewNetwork(r, routing.NewRingRouting(r), DefaultConfig(), stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func newSpidergonNet(t *testing.T, n int, cfg Config) *Network {
	t.Helper()
	s := topology.MustSpidergon(n)
	net, err := NewNetwork(s, routing.NewSpidergonRouting(s), cfg, stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func newMeshNet(t *testing.T, c, r int, cfg Config) *Network {
	t.Helper()
	m := topology.MustMesh(c, r)
	net, err := NewNetwork(m, routing.NewMeshXY(m), cfg, stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{PacketLen: 0, OutBufCap: 3, InBufCap: 1, SinkRate: 1, InjectRate: 1},
		{PacketLen: 6, OutBufCap: 0, InBufCap: 1, SinkRate: 1, InjectRate: 1},
		{PacketLen: 6, OutBufCap: 3, InBufCap: 0, SinkRate: 1, InjectRate: 1},
		{PacketLen: 6, OutBufCap: 3, InBufCap: 1, SinkRate: 0, InjectRate: 1},
		{PacketLen: 6, OutBufCap: 3, InBufCap: 1, SinkRate: 1, InjectRate: 0},
		{PacketLen: 6, OutBufCap: 3, InBufCap: 1, SinkRate: 1, InjectRate: 1, SourceQueueCap: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.PacketLen != 6 {
		t.Error("paper uses 6-flit packets")
	}
	if c.OutBufCap != 3 {
		t.Error("paper uses 3-flit output buffers")
	}
	if c.InBufCap != 1 {
		t.Error("paper uses 1-flit input buffers")
	}
}

// TestFlitAndPacketStrings pins the diagnostic text flitString and
// pktString render for flits resident in a real network's buffers:
// head, body and tail of 3-flit worms (one of them on the dateline VC)
// and the lone head+tail flit of a 1-flit packet. Panics and
// conservation errors quote these strings.
func TestFlitAndPacketStrings(t *testing.T) {
	snapshot := func(plen, cycles int, pairs ...[2]int) []string {
		cfg := DefaultConfig()
		cfg.PacketLen = plen
		r := topology.MustRing(8)
		net, err := NewNetwork(r, routing.NewRingRouting(r), cfg, stats.NewCollector(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if err := net.Inject(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
		net.StepN(cycles)
		var out []string
		for _, rt := range net.routers {
			_ = rt.eachFlit(func(h flitH) error {
				out = append(out, fmt.Sprintf("r%d %s | %s", rt.node, net.flitString(h), net.pktString(h.pkt())))
				return nil
			})
		}
		return out
	}
	check := func(got, want []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("rendered\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	check(snapshot(3, 5, [2]int{0, 3}, [2]int{6, 1}), []string{
		"r0 pkt1 6->1 len=3 flit 1 (body) vc1 | pkt1 6->1 len=3",
		"r0 pkt1 6->1 len=3 flit 0 (head) vc1 | pkt1 6->1 len=3",
		"r1 pkt0 0->3 len=3 flit 2 (tail) vc0 | pkt0 0->3 len=3",
		"r2 pkt0 0->3 len=3 flit 1 (body) vc0 | pkt0 0->3 len=3",
		"r2 pkt0 0->3 len=3 flit 0 (head) vc0 | pkt0 0->3 len=3",
		"r7 pkt1 6->1 len=3 flit 2 (tail) vc1 | pkt1 6->1 len=3",
	})
	check(snapshot(1, 1, [2]int{0, 3}, [2]int{6, 1}), []string{
		"r0 pkt0 0->3 len=1 flit 0 (head+tail) vc0 | pkt0 0->3 len=1",
		"r6 pkt1 6->1 len=1 flit 0 (head+tail) vc0 | pkt1 6->1 len=1",
	})
}

func TestInjectValidation(t *testing.T) {
	net := newRingNet(t, 8)
	if err := net.Inject(0, 0); err == nil {
		t.Error("self-injection accepted")
	}
	if err := net.Inject(-1, 3); err == nil {
		t.Error("negative source accepted")
	}
	if err := net.Inject(0, 8); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if err := net.Inject(0, 3); err != nil {
		t.Errorf("valid injection refused: %v", err)
	}
}

func TestSourceQueueBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SourceQueueCap = 2
	r := topology.MustRing(8)
	net, err := NewNetwork(r, routing.NewRingRouting(r), cfg, stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Inject(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.Inject(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.Inject(0, 3); err != ErrSourceQueueFull {
		t.Fatalf("third inject: %v, want ErrSourceQueueFull", err)
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	net := newRingNet(t, 8)
	if err := net.Inject(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := net.Drain(200); err != nil {
		t.Fatal(err)
	}
	if net.EjectedPackets() != 1 {
		t.Fatalf("ejected = %d", net.EjectedPackets())
	}
	col := net.Collector()
	if col.PacketsEjected() != 1 {
		t.Fatal("collector missed the packet")
	}
	if col.MeanHops() != 3 {
		t.Fatalf("hops = %v, want 3", col.MeanHops())
	}
}

// Latency lower bound: a lone packet's latency is
// injection wait (1: head leaves NI in cycle of creation) +
// hops link traversals + per-hop switch stages + serialization of the
// remaining flits at the sink. Just assert the exact value once to pin
// the pipeline timing, then assert the analytic lower bound holds
// elsewhere.
func TestLonePacketLatencyPinned(t *testing.T) {
	net := newRingNet(t, 8)
	if err := net.Inject(0, 1); err != nil { // 1 hop
		t.Fatal(err)
	}
	if err := net.Drain(100); err != nil {
		t.Fatal(err)
	}
	lat := net.Collector().MeanLatency()
	// Cycle 0: head injected into outVC. Cycle 1: head crosses link.
	// Cycle 2: head ejected; flit k ejected at cycle 2+k; tail (k=5)
	// at cycle 7. Latency = 7 - 0 = 7.
	if lat != 7 {
		t.Fatalf("lone packet latency = %v, want 7", lat)
	}
}

func TestLatencyLowerBound(t *testing.T) {
	// For any single packet: latency >= hops + packetLen (pipeline depth
	// + serialization).
	for _, hops := range []int{1, 2, 3, 4} {
		net := newRingNet(t, 10)
		if err := net.Inject(0, hops); err != nil {
			t.Fatal(err)
		}
		if err := net.Drain(300); err != nil {
			t.Fatal(err)
		}
		lat := net.Collector().MeanLatency()
		if lat < float64(hops+6) {
			t.Fatalf("hops=%d latency %v below bound %d", hops, lat, hops+6)
		}
	}
}

func TestWormholeNoInterleaving(t *testing.T) {
	// Two packets from different sources to the same next-hop channel:
	// their flits must not interleave within an output queue. We can't
	// observe queues directly, but interleaving would corrupt switching
	// state and panic or mis-deliver; drive the scenario hard and check
	// conservation and delivery.
	net := newSpidergonNet(t, 8, DefaultConfig())
	for i := 0; i < 20; i++ {
		if err := net.Inject(1, 3); err != nil {
			t.Fatal(err)
		}
		if err := net.Inject(0, 3); err != nil {
			t.Fatal(err)
		}
		net.Step()
	}
	if err := net.Drain(5000); err != nil {
		t.Fatal(err)
	}
	if net.EjectedPackets() != 40 {
		t.Fatalf("ejected %d of 40", net.EjectedPackets())
	}
}

func TestHopsMatchRoutingDistance(t *testing.T) {
	s := topology.MustSpidergon(12)
	alg := routing.NewSpidergonRouting(s)
	for src := 0; src < 12; src++ {
		for dst := 0; dst < 12; dst++ {
			if src == dst {
				continue
			}
			net, err := NewNetwork(s, alg, DefaultConfig(), stats.NewCollector(0))
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Inject(src, dst); err != nil {
				t.Fatal(err)
			}
			if err := net.Drain(500); err != nil {
				t.Fatalf("%d->%d: %v", src, dst, err)
			}
			want := float64(s.Distance(src, dst))
			if got := net.Collector().MeanHops(); got != want {
				t.Fatalf("%d->%d hops = %v, want %v", src, dst, got, want)
			}
		}
	}
}

func TestConservationUnderLoad(t *testing.T) {
	net := newMeshNet(t, 4, 4, DefaultConfig())
	rng := newTestRNG(42)
	for cycle := 0; cycle < 500; cycle++ {
		for node := 0; node < 16; node++ {
			if rng.next()%10 == 0 { // ~0.1 packets/node/cycle: saturating
				dst := int(rng.next() % 16)
				if dst != node {
					if err := net.Inject(node, dst); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		net.Step()
		if cycle%100 == 0 {
			if err := net.CheckConservation(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := net.Drain(20000); err != nil {
		t.Fatal(err)
	}
	if net.EjectedPackets() != net.CreatedPackets() {
		t.Fatalf("created %d != ejected %d", net.CreatedPackets(), net.EjectedPackets())
	}
}

// testRNG is a tiny deterministic generator private to the tests (the
// real simulations use internal/sim's RNG; this avoids the dependency).
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed} }
func (r *testRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func TestNoDeadlockRingSaturated(t *testing.T) {
	testNoDeadlock(t, func() *Network { return newRingNet(t, 8) }, 8)
}

func TestNoDeadlockSpidergonSaturated(t *testing.T) {
	testNoDeadlock(t, func() *Network { return newSpidergonNet(t, 12, DefaultConfig()) }, 12)
}

func TestNoDeadlockMeshSaturated(t *testing.T) {
	testNoDeadlock(t, func() *Network { return newMeshNet(t, 4, 3, DefaultConfig()) }, 12)
}

// testNoDeadlock floods every node with uniform random traffic far past
// saturation and asserts the network keeps making progress and fully
// drains afterwards — the runtime counterpart of the CDG proof.
func testNoDeadlock(t *testing.T, mk func() *Network, n int) {
	t.Helper()
	net := mk()
	rng := newTestRNG(7)
	for cycle := 0; cycle < 2000; cycle++ {
		for node := 0; node < n; node++ {
			if rng.next()%4 == 0 { // 0.25 packets/cycle/node: far beyond capacity
				dst := int(rng.next() % uint64(n))
				if dst != node {
					_ = net.Inject(node, dst)
				}
			}
		}
		net.Step()
		if net.IdleCycles() > 100 && net.InFlightFlits() > 0 {
			t.Fatalf("no flit movement for %d cycles with %d flits in flight: deadlock",
				net.IdleCycles(), net.InFlightFlits())
		}
	}
	if err := net.Drain(200000); err != nil {
		t.Fatal(err)
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestHotspotSaturatesAtSinkRate(t *testing.T) {
	// Figure 6's central claim: with one hot-spot destination the
	// absorbed throughput caps at the sink consumption rate (1
	// flit/cycle), regardless of topology.
	for _, mk := range []func() *Network{
		func() *Network { return newRingNet(t, 8) },
		func() *Network { return newSpidergonNet(t, 8, DefaultConfig()) },
		func() *Network { return newMeshNet(t, 2, 4, DefaultConfig()) },
	} {
		net := mk()
		rng := newTestRNG(99)
		const hotspot = 3
		cfg := net.Config()
		_ = cfg
		for cycle := 0; cycle < 4000; cycle++ {
			for node := 0; node < 8; node++ {
				if node == hotspot {
					continue
				}
				if rng.next()%12 == 0 { // heavy offered load
					_ = net.Inject(node, hotspot)
				}
			}
			net.Step()
		}
		tput := net.Collector().Throughput()
		if tput > 1.0001 {
			t.Fatalf("%s: hotspot throughput %v exceeds sink rate", net.Topology().Name(), tput)
		}
		if tput < 0.9 {
			t.Fatalf("%s: hotspot throughput %v far below saturation", net.Topology().Name(), tput)
		}
	}
}

func TestSinkRateTwoDoublesHotspotCeiling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SinkRate = 2
	net := newSpidergonNet(t, 8, cfg)
	rng := newTestRNG(5)
	const hotspot = 0
	for cycle := 0; cycle < 4000; cycle++ {
		for node := 1; node < 8; node++ {
			if rng.next()%6 == 0 {
				_ = net.Inject(node, hotspot)
			}
		}
		net.Step()
	}
	tput := net.Collector().Throughput()
	if tput < 1.2 {
		t.Fatalf("throughput %v did not exceed single-port ceiling with SinkRate=2", tput)
	}
	if tput > 2.0001 {
		t.Fatalf("throughput %v exceeds doubled sink rate", tput)
	}
}

func TestInjectionRateLimited(t *testing.T) {
	// One source, far destination, unlimited appetite: accepted rate
	// can't exceed InjectRate=1 flit/cycle. AcceptedRate books a whole
	// packet at head injection, so allow one packet of slack over the
	// window.
	net := newRingNet(t, 8)
	for i := 0; i < 400; i++ {
		_ = net.Inject(0, 4)
	}
	const cycles = 2000
	net.StepN(cycles)
	limit := 1.0 + float64(net.Config().PacketLen)/cycles
	if acc := net.Collector().AcceptedRate(); acc > limit {
		t.Fatalf("accepted rate %v exceeds injection port bandwidth", acc)
	}
}

func TestBackpressureBlocksSource(t *testing.T) {
	// Saturate one path; the collector must record source-blocked
	// cycles.
	net := newRingNet(t, 8)
	for i := 0; i < 50; i++ {
		_ = net.Inject(0, 4)
		_ = net.Inject(1, 4) // shares the clockwise path, contends
	}
	net.StepN(300)
	if net.Collector().SourceBlockedCycles() == 0 {
		t.Fatal("no source-blocked cycles under contention")
	}
	if err := net.Drain(20000); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		net := newSpidergonNet(t, 12, DefaultConfig())
		rng := newTestRNG(123)
		for cycle := 0; cycle < 800; cycle++ {
			for node := 0; node < 12; node++ {
				if rng.next()%9 == 0 {
					dst := int(rng.next() % 12)
					if dst != node {
						_ = net.Inject(node, dst)
					}
				}
			}
			net.Step()
		}
		return net.EjectedPackets(), net.Collector().MeanLatency()
	}
	e1, l1 := run()
	e2, l2 := run()
	if e1 != e2 || l1 != l2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", e1, l1, e2, l2)
	}
}

func TestPacketLenOneWorks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PacketLen = 1
	net := newSpidergonNet(t, 8, cfg)
	for i := 0; i < 30; i++ {
		_ = net.Inject(0, 5)
		_ = net.Inject(2, 6)
	}
	if err := net.Drain(5000); err != nil {
		t.Fatal(err)
	}
	if net.EjectedPackets() != 60 {
		t.Fatalf("ejected %d of 60 single-flit packets", net.EjectedPackets())
	}
}

func TestQueuedAndInFlightAccounting(t *testing.T) {
	net := newRingNet(t, 8)
	for i := 0; i < 5; i++ {
		_ = net.Inject(0, 4)
	}
	if net.QueuedPackets() != 5 {
		t.Fatalf("queued = %d", net.QueuedPackets())
	}
	if net.InFlightFlits() != 0 {
		t.Fatal("flits in flight before any step")
	}
	net.Step()
	if net.InFlightFlits() == 0 {
		t.Fatal("no flit entered the network after a step")
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestMeshXYNetworkAllPairs(t *testing.T) {
	// Deliver one packet between every pair on a 4x6 mesh (the paper's
	// 24-node mesh) and verify hop counts equal Manhattan distances.
	m := topology.MustMesh(4, 6)
	alg := routing.NewMeshXY(m)
	net, err := NewNetwork(m, alg, DefaultConfig(), stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for src := 0; src < 24; src++ {
		for dst := 0; dst < 24; dst++ {
			if src == dst {
				continue
			}
			_ = net.Inject(src, dst)
			want++
		}
	}
	if err := net.Drain(1000000); err != nil {
		t.Fatal(err)
	}
	if int(net.EjectedPackets()) != want {
		t.Fatalf("delivered %d of %d", net.EjectedPackets(), want)
	}
	gotMean := net.Collector().MeanHops()
	wantMean := topology.AverageDistance(m)
	if diff := gotMean - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean hops %v != E[D] %v", gotMean, wantMean)
	}
}

func TestIrregularMeshNetworkDelivers(t *testing.T) {
	m := topology.MustIrregularMesh(13)
	net, err := NewNetwork(m, routing.NewMeshXY(m), DefaultConfig(), stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 13; src++ {
		for dst := 0; dst < 13; dst++ {
			if src != dst {
				_ = net.Inject(src, dst)
			}
		}
	}
	if err := net.Drain(500000); err != nil {
		t.Fatal(err)
	}
	if net.EjectedPackets() != 13*12 {
		t.Fatalf("delivered %d of %d", net.EjectedPackets(), 13*12)
	}
}

func TestNilCollectorRejected(t *testing.T) {
	r := topology.MustRing(8)
	if _, err := NewNetwork(r, routing.NewRingRouting(r), DefaultConfig(), nil); err == nil {
		t.Fatal("nil collector accepted")
	}
}

func TestAccessors(t *testing.T) {
	net := newRingNet(t, 8)
	if net.Topology().Nodes() != 8 {
		t.Error("topology accessor")
	}
	if net.Algorithm().Name() != "ring-shortest" {
		t.Error("algorithm accessor")
	}
	if net.Config().PacketLen != 6 {
		t.Error("config accessor")
	}
	if net.Cycle() != 0 {
		t.Error("initial cycle")
	}
	net.StepN(5)
	if net.Cycle() != 5 {
		t.Error("cycle after StepN")
	}
}
