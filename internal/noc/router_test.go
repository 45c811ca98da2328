package noc

import (
	"testing"

	"gonoc/internal/routing"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

func TestInPortPerVCSlots(t *testing.T) {
	r := newRouter(0, topology.MustRing(4), 2, 2, 1, 3)
	p := &r.in[0]
	p.bufs[0].push(mkFlit(0, 0, 0), 1)
	p.bufs[1].push(mkFlit(0, 1, 1), 1)
	if p.bufs[0].empty() || p.bufs[1].empty() {
		t.Fatal("slots empty after push")
	}
	if r.bufferedFlits() != 2 {
		t.Fatalf("buffered = %d", r.bufferedFlits())
	}
	if !p.bufs[0].full() || r.out[0].vcs[0].q.full() {
		t.Fatal("full computation")
	}
	h := p.bufs[0].pop()
	if h.seq() != 0 || !p.bufs[0].empty() || p.bufs[1].empty() {
		t.Fatal("pop affected wrong slot")
	}
}

func TestRouterConstruction(t *testing.T) {
	s := topology.MustSpidergon(8)
	r := newRouter(3, s, 2, 2, 1, 3)
	if len(r.in) != 3 || len(r.out) != 3 {
		t.Fatalf("ports: %d in, %d out", len(r.in), len(r.out))
	}
	for _, op := range r.out {
		if len(op.vcs) != 2 {
			t.Fatal("vc count")
		}
	}
	if r.outPortByDir(topology.DirAcross) == nil {
		t.Fatal("across port missing")
	}
	if r.outPortByDir(topology.DirEast) != nil {
		t.Fatal("phantom east port")
	}
	// Input port lookup by channel id.
	in := s.In(3)
	for _, c := range in {
		if r.inPortByChannel(c.ID) == nil {
			t.Fatalf("input port for channel %v missing", c)
		}
	}
	if r.inPortByChannel(9999) != nil {
		t.Fatal("phantom input port")
	}
	if r.bufferedFlits() != 0 {
		t.Fatal("fresh router holds flits")
	}
}

func TestNoDeadlockVCTAndSAFSaturated(t *testing.T) {
	for _, mode := range []Switching{VirtualCutThrough, StoreAndForward} {
		cfg := DefaultConfig()
		cfg.Switching = mode
		cfg.OutBufCap = 6
		s := topology.MustSpidergon(10)
		net, err := NewNetwork(s, mustSpidergonAlg(t, 10), cfg, newCol())
		if err != nil {
			t.Fatal(err)
		}
		rng := newTestRNG(13)
		for c := 0; c < 1500; c++ {
			for node := 0; node < 10; node++ {
				if rng.next()%4 == 0 {
					dst := int(rng.next() % 10)
					if dst != node {
						_ = net.Inject(node, dst)
					}
				}
			}
			net.Step()
			if net.IdleCycles() > 200 && net.InFlightFlits() > 0 {
				t.Fatalf("%v deadlocked", mode)
			}
		}
		if err := net.Drain(300000); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

// mustSpidergonAlg and newCol are small helpers for switching tests.
func mustSpidergonAlg(t *testing.T, n int) routing.Algorithm {
	t.Helper()
	return routing.NewSpidergonRouting(topology.MustSpidergon(n))
}

func newCol() *stats.Collector { return stats.NewCollector(0) }
