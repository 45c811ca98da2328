package noc

import (
	"testing"

	"gonoc/internal/routing"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

func switchingNet(t *testing.T, mode Switching, outBuf int) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Switching = mode
	cfg.OutBufCap = outBuf
	r := topology.MustRing(10)
	net, err := NewNetwork(r, routing.NewRingRouting(r), cfg, stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSwitchingString(t *testing.T) {
	if Wormhole.String() != "wormhole" || VirtualCutThrough.String() != "vct" ||
		StoreAndForward.String() != "saf" {
		t.Fatal("switching names")
	}
	if Switching(9).String() == "" {
		t.Fatal("unknown mode renders empty")
	}
}

func TestSwitchingValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Switching = VirtualCutThrough // OutBufCap 3 < PacketLen 6
	if cfg.Validate() == nil {
		t.Fatal("VCT with small buffers validated")
	}
	cfg.OutBufCap = 6
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Switching = Switching(42)
	if cfg.Validate() == nil {
		t.Fatal("unknown mode validated")
	}
}

func TestAllModesDeliver(t *testing.T) {
	for _, mode := range []Switching{Wormhole, VirtualCutThrough, StoreAndForward} {
		net := switchingNet(t, mode, 6)
		rng := newTestRNG(21)
		for c := 0; c < 1500; c++ {
			for node := 0; node < 10; node++ {
				if rng.next()%30 == 0 {
					dst := int(rng.next() % 10)
					if dst != node {
						_ = net.Inject(node, dst)
					}
				}
			}
			net.Step()
		}
		if err := net.Drain(100000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if net.EjectedPackets() != net.CreatedPackets() {
			t.Fatalf("%v: delivered %d of %d", mode, net.EjectedPackets(), net.CreatedPackets())
		}
	}
}

// The classical switching result: wormhole and cut-through latency is
// distance + serialization; store-and-forward pays serialization at
// every hop, so its latency grows like hops × packet length.
func TestStoreAndForwardLatencyPenalty(t *testing.T) {
	lat := func(mode Switching) float64 {
		net := switchingNet(t, mode, 6)
		if err := net.Inject(0, 5); err != nil { // 5 hops
			t.Fatal(err)
		}
		if err := net.Drain(1000); err != nil {
			t.Fatal(err)
		}
		return net.Collector().MeanLatency()
	}
	wh := lat(Wormhole)
	vct := lat(VirtualCutThrough)
	saf := lat(StoreAndForward)
	// Unloaded, VCT == wormhole exactly.
	if vct != wh {
		t.Fatalf("unloaded VCT latency %v != wormhole %v", vct, wh)
	}
	// SAF pays ~packetLen per hop: over 5 hops at least 3x wormhole's
	// pipeline latency.
	if saf < 2*wh {
		t.Fatalf("SAF latency %v not clearly above wormhole %v", saf, wh)
	}
	// And the penalty scales with distance: compare 1 hop vs 5 hops.
	one := func(mode Switching) float64 {
		net := switchingNet(t, mode, 6)
		_ = net.Inject(0, 1)
		if err := net.Drain(1000); err != nil {
			t.Fatal(err)
		}
		return net.Collector().MeanLatency()
	}
	if (saf - one(StoreAndForward)) < 3*(wh-one(Wormhole)) {
		t.Fatalf("SAF per-hop penalty not visible: saf %v vs wh %v", saf, wh)
	}
}

// VCT keeps blocked packets inside a single router: under a hot-spot
// jam, wormhole worms straddle multiple routers while VCT packets
// collapse into one queue. Observable difference: with per-packet
// admission VCT needs fewer occupied routers for the same in-flight
// flit count.
func TestVCTCollapsesBlockedPackets(t *testing.T) {
	spread := func(mode Switching) (occupiedRouters int) {
		net := switchingNet(t, mode, 12)
		// Jam the path 0 -> 5 with traffic from several sources.
		for i := 0; i < 30; i++ {
			_ = net.Inject(0, 5)
			_ = net.Inject(1, 5)
			_ = net.Inject(2, 5)
		}
		net.StepN(60)
		for _, occ := range net.OccupancySnapshot() {
			if occ > 0 {
				occupiedRouters++
			}
		}
		return occupiedRouters
	}
	if vct, wh := spread(VirtualCutThrough), spread(Wormhole); vct > wh {
		t.Fatalf("VCT spread %d routers > wormhole %d", vct, wh)
	}
}

func TestSAFTailResidencyRule(t *testing.T) {
	// A store-and-forward head must not cross the link before its tail
	// entered the queue: with a 1-cycle-per-flit injection port, the
	// head waits at least PacketLen-1 extra cycles at the source.
	net := switchingNet(t, StoreAndForward, 6)
	_ = net.Inject(0, 1)
	// After 3 cycles the head has not yet traversed (tail not resident:
	// only ~3 flits injected).
	net.StepN(3)
	if net.Collector().FlitsEjected() != 0 {
		t.Fatal("flit reached sink before the packet was stored")
	}
	hopsDone := func() bool {
		tr := net.ChannelTraversals()
		for _, v := range tr {
			if v > 0 {
				return true
			}
		}
		return false
	}
	if hopsDone() {
		t.Fatal("head departed before tail was resident")
	}
	// By cycle 7 the packet is stored and may depart.
	net.StepN(5)
	if !hopsDone() {
		t.Fatal("stored packet never departed")
	}
	if err := net.Drain(100); err != nil {
		t.Fatal(err)
	}
}

// Store-and-forward looks for the packet's tail behind the head, which
// on a ring buffer may sit past the wrap. With OutBufCap == PacketLen a
// queue only ever admits a packet when empty, so the live engines always
// start a packet at slot 0; the ring is rotated by hand here to put the
// wrap in the middle of the packet.
func TestCanDepartAcrossRingWrap(t *testing.T) {
	for _, mode := range []Switching{VirtualCutThrough, StoreAndForward} {
		net := switchingNet(t, mode, 6)
		v := &net.routers[0].out[0].vcs[0]
		for i := 0; i < 4; i++ { // head index 4 of 6
			v.q.push(mkFlit(0, 5, 0), 1)
			v.q.pop()
		}
		for seq := 0; seq < 6; seq++ {
			v.q.push(mkFlit(1, seq, 0), 1)
			want := mode != StoreAndForward || seq == 5
			if got := net.canDepart(v); got != want {
				t.Fatalf("%v: canDepart = %v with flits 0..%d of 6 resident", mode, got, seq)
			}
		}
		if !v.q.full() || v.q.start != 4 || v.q.at(5).seq() != 5 {
			t.Fatalf("%v: packet does not straddle the wrap (start %d, %d held)", mode, v.q.start, v.q.len())
		}
	}
}

// Live wrapped rings: with OutBufCap two flits above PacketLen packets
// start at every slot, so under load the tail scan and the whole-packet
// admission run on queues that straddle the wrap. The engine must still
// reproduce the frozen reference cycle for cycle, and deliver everything.
func TestPacketSwitchingOnWrappedRings(t *testing.T) {
	for _, mode := range []Switching{VirtualCutThrough, StoreAndForward} {
		cfg := DefaultConfig()
		cfg.Switching, cfg.OutBufCap = mode, cfg.PacketLen+2
		r := topology.MustRing(10)
		active := goldenNet(t, r, routing.NewRingRouting(r), cfg)
		fp := newFingerprints()
		rng := newTestRNG(5)
		wrapped := 0
		for c := 0; c < 1500; c++ {
			for node := 0; node < 10; node++ {
				if rng.next()%12 == 0 {
					if dst := int(rng.next() % 10); dst != node {
						_ = active.Inject(node, dst)
					}
				}
			}
			active.Step()
			fp.add(active)
			for _, rt := range active.routers {
				for i := range rt.out {
					for v := range rt.out[i].vcs {
						if q := &rt.out[i].vcs[v].q; int(q.start)+q.len() > len(q.buf) {
							wrapped++
						}
					}
				}
			}
		}
		checkGolden(t, "wrapped-rings/"+mode.String(), fp.sum())
		if wrapped == 0 {
			t.Fatalf("%v: no output queue ever straddled the wrap", mode)
		}
		if err := active.Drain(100000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if active.EjectedPackets() != active.CreatedPackets() {
			t.Fatalf("%v: delivered %d of %d", mode, active.EjectedPackets(), active.CreatedPackets())
		}
	}
}
