package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"gonoc/internal/noc"
	"gonoc/internal/routing"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

func TestUniformPattern(t *testing.T) {
	u := Uniform{N: 8}
	r := sim.NewRNG(1)
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		d, ok := u.Destination(3, r)
		if !ok {
			t.Fatal("uniform node not a source")
		}
		if d == 3 {
			t.Fatal("uniform chose self")
		}
		counts[d]++
	}
	for d, c := range counts {
		if d == 3 {
			continue
		}
		if c < 800 || c > 1500 {
			t.Fatalf("uniform dest %d frequency %d implausible", d, c)
		}
	}
	if u.Sources(8) != 8 {
		t.Fatal("uniform sources")
	}
	if _, ok := (Uniform{N: 1}).Destination(0, r); ok {
		t.Fatal("1-node uniform should have no sources")
	}
}

func TestHotSpotSingle(t *testing.T) {
	h := HotSpot{Targets: []int{3}, N: 8}
	r := sim.NewRNG(2)
	if _, ok := h.Destination(3, r); ok {
		t.Fatal("hotspot target sends")
	}
	for src := 0; src < 8; src++ {
		if src == 3 {
			continue
		}
		d, ok := h.Destination(src, r)
		if !ok || d != 3 {
			t.Fatalf("src %d -> %d,%v", src, d, ok)
		}
	}
	if h.Sources(8) != 7 {
		t.Fatalf("sources = %d", h.Sources(8))
	}
	if h.Name() == "" {
		t.Fatal("name")
	}
}

func TestHotSpotDouble(t *testing.T) {
	h := HotSpot{Targets: []int{0, 4}, N: 8}
	r := sim.NewRNG(3)
	c0, c4 := 0, 0
	for i := 0; i < 2000; i++ {
		d, ok := h.Destination(2, r)
		if !ok {
			t.Fatal("source refused")
		}
		switch d {
		case 0:
			c0++
		case 4:
			c4++
		default:
			t.Fatalf("unexpected destination %d", d)
		}
	}
	if c0 < 800 || c4 < 800 {
		t.Fatalf("unbalanced targets: %d/%d", c0, c4)
	}
	if h.Sources(8) != 6 {
		t.Fatal("sources")
	}
}

func TestHotSpotEmpty(t *testing.T) {
	h := HotSpot{Targets: nil, N: 8}
	if _, ok := h.Destination(1, sim.NewRNG(1)); ok {
		t.Fatal("empty hotspot produced a destination")
	}
}

func TestPermutationValidation(t *testing.T) {
	if _, err := NewPermutation("bad", []int{0, 5}); err == nil {
		t.Fatal("out-of-range permutation accepted")
	}
	p, err := NewPermutation("id+fixed", []int{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Destination(2, nil); ok {
		t.Fatal("fixed point should be silent")
	}
	if d, ok := p.Destination(0, nil); !ok || d != 1 {
		t.Fatal("partner lookup")
	}
	if p.Sources(3) != 2 {
		t.Fatal("sources")
	}
}

func TestBitComplement(t *testing.T) {
	p := BitComplement(8)
	for i := 0; i < 8; i++ {
		d, ok := p.Destination(i, nil)
		if !ok || d != 7-i {
			t.Fatalf("complement(%d) = %d,%v", i, d, ok)
		}
	}
}

func TestTranspose(t *testing.T) {
	m := topology.MustMesh(3, 3)
	p, err := Transpose(m)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 = (1,0) -> (0,1) = node 3.
	if d, _ := p.Destination(1, nil); d != 3 {
		t.Fatalf("transpose(1) = %d", d)
	}
	// Diagonal nodes are silent.
	if _, ok := p.Destination(4, nil); ok {
		t.Fatal("diagonal node sends")
	}
	if _, err := Transpose(topology.MustMesh(2, 4)); err == nil {
		t.Fatal("non-square transpose accepted")
	}
}

func TestNeighborRing(t *testing.T) {
	p := NeighborRing(6, 1)
	for i := 0; i < 6; i++ {
		d, ok := p.Destination(i, nil)
		if !ok || d != (i+1)%6 {
			t.Fatalf("neighbor(%d) = %d", i, d)
		}
	}
}

func TestBitReverse(t *testing.T) {
	p := BitReverse(8)
	// 3 bits: 1=001 -> 100=4.
	if d, _ := p.Destination(1, nil); d != 4 {
		t.Fatalf("bitrev(1) = %d", d)
	}
	if d, _ := p.Destination(6, nil); d != 3 { // 110 -> 011
		t.Fatalf("bitrev(6) = %d", d)
	}
	// Non-power-of-two sizes keep out-of-range partners silent.
	p = BitReverse(6)
	if _, ok := p.Destination(3, nil); ok { // 011 -> 110 = 6 >= 6 -> self
		t.Fatal("out-of-range partner should be silent")
	}
}

// buildNet wires a spidergon network for generator tests.
func buildNet(t *testing.T, n int) *noc.Network {
	t.Helper()
	s := topology.MustSpidergon(n)
	net, err := noc.NewNetwork(s, routing.NewSpidergonRouting(s), noc.DefaultConfig(), stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestGeneratorPoissonRate(t *testing.T) {
	net := buildNet(t, 8)
	k := sim.NewKernel()
	const rate = 0.01 // packets/cycle/node, low load
	g, err := NewGenerator(k, net, Uniform{N: 8}, Poisson, rate, 42)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	tick := sim.NewTicker(k, 1)
	tick.OnTick(func(uint64) { net.Step() })
	tick.Start()
	const horizon = 50000
	k.RunUntil(horizon)
	got := float64(g.OfferedPackets()) / float64(horizon) / 8
	if math.Abs(got-rate) > 0.15*rate {
		t.Fatalf("offered rate %v, want ≈ %v", got, rate)
	}
	// Low load: everything delivered promptly.
	if net.EjectedPackets() == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestGeneratorBernoulliRate(t *testing.T) {
	net := buildNet(t, 8)
	k := sim.NewKernel()
	const rate = 0.02
	g, err := NewGenerator(k, net, Uniform{N: 8}, Bernoulli, rate, 7)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	tick := sim.NewTicker(k, 1)
	tick.OnTick(func(uint64) { net.Step() })
	tick.Start()
	const horizon = 30000
	k.RunUntil(horizon)
	got := float64(g.OfferedPackets()) / float64(horizon) / 8
	if math.Abs(got-rate) > 0.15*rate {
		t.Fatalf("offered rate %v, want ≈ %v", got, rate)
	}
}

func TestGeneratorHotspotTargetsSilent(t *testing.T) {
	net := buildNet(t, 8)
	k := sim.NewKernel()
	g, err := NewGenerator(k, net, HotSpot{Targets: []int{5}, N: 8}, Poisson, 0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	tick := sim.NewTicker(k, 1)
	tick.OnTick(func(uint64) { net.Step() })
	tick.Start()
	k.RunUntil(20000)
	if g.OfferedPackets() == 0 {
		t.Fatal("no traffic")
	}
	// All delivered packets went to node 5; mean hops must be > 0 and
	// all ejections happened (measured by the collector at node 5 only).
	if net.Collector().PacketsEjected() == 0 {
		t.Fatal("hotspot received nothing")
	}
}

func TestGeneratorInvalidRate(t *testing.T) {
	net := buildNet(t, 8)
	if _, err := NewGenerator(sim.NewKernel(), net, Uniform{N: 8}, Poisson, -1, 1); err == nil {
		t.Fatal("negative rate accepted")
	}
}

// A zero rate silences every source: Start schedules nothing, so the
// network sees no packet however long it runs.
func TestGeneratorZeroRateSilence(t *testing.T) {
	net := buildNet(t, 8)
	k := sim.NewKernel()
	g, err := NewGenerator(k, net, Uniform{N: 8}, Poisson, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	tick := sim.NewTicker(k, 1)
	tick.OnTick(func(uint64) { net.Step() })
	tick.Start()
	k.RunUntil(5000)
	if g.OfferedPackets() != 0 || net.CreatedPackets() != 0 {
		t.Fatalf("zero rate offered %d, created %d packets", g.OfferedPackets(), net.CreatedPackets())
	}
	if g.OfferedFlitRate() != 0 {
		t.Fatalf("zero rate offered flit rate = %v", g.OfferedFlitRate())
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() uint64 {
		net := buildNet(t, 12)
		k := sim.NewKernel()
		g, _ := NewGenerator(k, net, Uniform{N: 12}, Poisson, 0.03, 99)
		g.Start()
		tick := sim.NewTicker(k, 1)
		tick.OnTick(func(uint64) { net.Step() })
		tick.Start()
		k.RunUntil(10000)
		return g.OfferedPackets()*1000003 + net.EjectedPackets()
	}
	if run() != run() {
		t.Fatal("generator not deterministic")
	}
}

func TestGeneratorStartTwicePanics(t *testing.T) {
	net := buildNet(t, 8)
	k := sim.NewKernel()
	g, _ := NewGenerator(k, net, Uniform{N: 8}, Poisson, 0.01, 1)
	g.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double start did not panic")
		}
	}()
	g.Start()
}

func TestOfferedFlitRate(t *testing.T) {
	net := buildNet(t, 8)
	k := sim.NewKernel()
	g, _ := NewGenerator(k, net, HotSpot{Targets: []int{0}, N: 8}, Poisson, 0.05, 1)
	// 7 sources * 0.05 packets/cycle * 6 flits = 2.1 flits/cycle.
	if got := g.OfferedFlitRate(); math.Abs(got-2.1) > 1e-9 {
		t.Fatalf("offered flit rate = %v", got)
	}
}

func TestTraceRecordReplayDeterministic(t *testing.T) {
	tr1 := Record(Uniform{N: 8}, Poisson, 0.05, 8, 2000, 5)
	tr2 := Record(Uniform{N: 8}, Poisson, 0.05, 8, 2000, 5)
	if len(tr1.Events) == 0 {
		t.Fatal("empty trace")
	}
	if len(tr1.Events) != len(tr2.Events) {
		t.Fatal("trace lengths differ")
	}
	for i := range tr1.Events {
		if tr1.Events[i] != tr2.Events[i] {
			t.Fatalf("trace event %d differs", i)
		}
	}
	// Events sorted by cycle.
	for i := 1; i < len(tr1.Events); i++ {
		if tr1.Events[i].Cycle < tr1.Events[i-1].Cycle {
			t.Fatal("trace not sorted")
		}
	}
}

func TestTraceReplayDelivers(t *testing.T) {
	tr := Record(Uniform{N: 8}, Poisson, 0.02, 8, 3000, 9)
	net := buildNet(t, 8)
	k := sim.NewKernel()
	tr.Replay(k, net)
	tick := sim.NewTicker(k, 1)
	tick.OnTick(func(uint64) { net.Step() })
	tick.Start()
	k.RunUntil(3000 + 2000)
	if net.CreatedPackets() != uint64(len(tr.Events)) {
		t.Fatalf("created %d != trace %d", net.CreatedPackets(), len(tr.Events))
	}
	if net.EjectedPackets() != net.CreatedPackets() {
		t.Fatalf("delivered %d of %d", net.EjectedPackets(), net.CreatedPackets())
	}
}

// Property: uniform destinations are always in range and never self.
func TestPropertyUniformValid(t *testing.T) {
	f := func(seed uint64, nRaw, sRaw uint8) bool {
		n := 2 + int(nRaw)%30
		src := int(sRaw) % n
		u := Uniform{N: n}
		r := sim.NewRNG(seed)
		for i := 0; i < 20; i++ {
			d, ok := u.Destination(src, r)
			if !ok || d == src || d < 0 || d >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
