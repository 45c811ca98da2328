package noc

import (
	"math"
	"strings"
	"testing"

	"gonoc/internal/routing"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

// Handle packing must round-trip every field at its boundary values,
// and retagging must touch only the VC bits — the switch stage relies
// on withVC preserving (pkt, seq) exactly.
func TestFlitHandleRoundTrip(t *testing.T) {
	pkts := []int32{0, 1, 63, math.MaxInt32}
	seqs := []int{0, 1, MaxPacketLen - 1}
	vcs := []int{0, 1, MaxVCs - 1}
	for _, p := range pkts {
		for _, s := range seqs {
			for _, v := range vcs {
				h := mkFlit(p, s, v)
				if h.pkt() != p || h.seq() != s || h.vc() != v {
					t.Fatalf("mkFlit(%d,%d,%d) unpacked to (%d,%d,%d)",
						p, s, v, h.pkt(), h.seq(), h.vc())
				}
				for _, nv := range vcs {
					r := h.withVC(nv)
					if r.pkt() != p || r.seq() != s || r.vc() != nv {
						t.Fatalf("withVC(%d) corrupted (%d,%d,%d) to (%d,%d,%d)",
							nv, p, s, v, r.pkt(), r.seq(), r.vc())
					}
				}
			}
		}
	}
}

// inflatedVCs wraps a routing algorithm, inflating its declared VC
// count so the network provisions more virtual channels (and wider
// slot masks) than the decisions ever use. Geometry-only: routing
// behaviour is unchanged.
type inflatedVCs struct {
	routing.Algorithm
	vcs int
}

func (w inflatedVCs) VCs() int { return w.vcs }

// Geometry past the handle's field widths must be rejected at
// construction, not corrupt handles at runtime.
func TestNewNetworkRejectsOversizedGeometry(t *testing.T) {
	s := topology.MustSpidergon(8)
	alg := routing.NewSpidergonRouting(s)
	if _, err := NewNetwork(s, inflatedVCs{alg, MaxVCs + 1}, DefaultConfig(), stats.NewCollector(0)); err == nil {
		t.Fatalf("VCs=%d accepted past MaxVCs", MaxVCs+1)
	}
	cfg := DefaultConfig()
	cfg.PacketLen = MaxPacketLen + 1
	if _, err := NewNetwork(s, alg, cfg, stats.NewCollector(0)); err == nil {
		t.Fatalf("PacketLen=%d accepted past MaxPacketLen", MaxPacketLen+1)
	}
}

// With enough VCs the per-router occupancy masks span multiple words
// (the seed's engine was limited to 64 slots — one word — per router).
// The engines must reproduce the frozen reference cycle for cycle on
// such a fabric, the parallel one at every shard count, proving the
// multi-word set/clear/port extraction and the cross-word worklist
// retirement.
func TestMultiWordMasksCrossEngine(t *testing.T) {
	const vcs = 17 // stride rounds to 32; 4-port mesh routers span 128 mask bits
	m := topology.MustMesh(4, 4)
	alg := inflatedVCs{routing.NewMeshXY(m), vcs}
	active := goldenNet(t, m, alg, DefaultConfig())
	// The test must actually exercise multi-word masks: an interior
	// mesh node has 4 input ports, so its mask is 4*32 = 128 bits.
	multi := false
	for _, r := range active.routers {
		if len(r.inOcc) > 1 {
			multi = true
		}
	}
	if !multi {
		t.Fatal("geometry fits one mask word — test is vacuous")
	}

	nets := []*Network{active}
	for _, k := range parallelShardCounts {
		nets = append(nets, newParallelNet(t, m, alg, DefaultConfig(), k))
	}
	fp := newFingerprints()
	rng := sim.NewRNG(17)
	for cycle := 0; cycle < 2500; cycle++ {
		if rng.Bernoulli(0.4) {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src != dst {
				for _, n := range nets {
					if err := n.Inject(src, dst); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, n := range nets {
			n.Step()
		}
		want := stateFingerprint(active)
		for _, n := range nets[1:] {
			if got := stateFingerprint(n); got != want {
				t.Fatalf("%d shards diverged at cycle %d:\nactive:   %s\nparallel: %s", n.Shards(), cycle, want, got)
			}
		}
		fp.add(active)
	}
	checkGolden(t, "multi-word-masks", fp.sum())
	for i, n := range nets {
		if err := n.CheckConservation(); err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		if err := n.Drain(20000); err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
}

// arenaResetTrial drives a random prefix workload, Resets mid-flight
// (buffers and queues full), then replays a second workload and demands
// bit-identity with a fresh twin that never saw the prefix — the
// recycled arena and free stack must be indistinguishable from cold
// ones.
func arenaResetTrial(t *testing.T, seed uint64, prefixCycles int) {
	t.Helper()
	run := func(n *Network, cycles int, seed uint64) {
		rng := sim.NewRNG(seed)
		for c := 0; c < cycles; c++ {
			if rng.Bernoulli(0.4) {
				src, dst := rng.Intn(16), rng.Intn(16)
				if src != dst {
					if err := n.Inject(src, dst); err != nil {
						t.Fatal(err)
					}
				}
			}
			n.Step()
		}
	}

	reused := newSpidergonNet(t, 16, DefaultConfig())
	run(reused, prefixCycles, seed)
	reused.Reset()
	if err := reused.CheckConservation(); err != nil {
		t.Fatalf("post-Reset conservation: %v", err)
	}

	fresh := newSpidergonNet(t, 16, DefaultConfig())
	run(reused, 1500, seed^0x9e3779b97f4a7c15)
	run(fresh, 1500, seed^0x9e3779b97f4a7c15)
	if fr, ff := stateFingerprint(reused), stateFingerprint(fresh); fr != ff {
		t.Fatalf("recycled arena diverged from fresh twin:\nreused: %s\nfresh:  %s", fr, ff)
	}
	for _, n := range []*Network{reused, fresh} {
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		if err := n.Drain(20000); err != nil {
			t.Fatal(err)
		}
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
}

// Directed cases of the Reset-recycling property — Reset on an empty
// network, mid-warm-up and deep in a loaded run — the always-run
// counterpart of the fuzz target below.
func TestArenaRecycleAcrossReset(t *testing.T) {
	for _, prefix := range []int{0, 300, 1200} {
		arenaResetTrial(t, 41, prefix)
	}
}

// FuzzArenaRecycleAcrossReset lets the fuzzer vary the prefix length
// (so Reset lands at arbitrary in-flight populations, including empty),
// hunting for a reclaim path that leaks, double-frees, or perturbs the
// replay.
func FuzzArenaRecycleAcrossReset(f *testing.F) {
	f.Add(uint64(1), uint16(0))
	f.Add(uint64(7), uint16(300))
	f.Add(uint64(13), uint16(999))
	f.Add(uint64(99), uint16(1700))
	f.Fuzz(func(t *testing.T, seed uint64, prefix uint16) {
		arenaResetTrial(t, seed, int(prefix)%2000)
	})
}

// The handle-based inject→eject path must run allocation-free in the
// steady state: leases pop the free stack, buffers push handle words,
// ejection materializes into the network's scratch view. The drive is
// fully deterministic (fixed inject cadence), so the arena and queue
// high-water marks are established during warm-up and the measured
// window reuses them — any allocation here is a hot-path regression,
// not noise.
func TestHandlePathZeroAllocSteadyState(t *testing.T) {
	s := topology.MustSpidergon(16)
	// A warm-up horizon beyond any cycle this test reaches keeps the
	// collector outside its measurement window, so its sample-buffer
	// appends (a deliberate measurement-time cost) never fire.
	net, err := NewNetwork(s, routing.NewSpidergonRouting(s), DefaultConfig(), stats.NewCollector(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	cycle := 0
	tick := func() {
		if cycle%3 == 0 {
			src, dst := (cycle*7)%16, (cycle*13+5)%16
			if src != dst {
				if err := net.Inject(src, dst); err != nil {
					t.Fatal(err)
				}
			}
		}
		net.Step()
		cycle++
	}
	for cycle < 3000 {
		tick()
	}
	if net.EjectedPackets() == 0 {
		t.Fatal("warm-up ejected nothing — cadence broken")
	}
	if allocs := testing.AllocsPerRun(500, tick); allocs != 0 {
		t.Fatalf("steady-state inject→eject path allocates %v per cycle", allocs)
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// LiveStateBytes must be a pure function of simulation state: equal
// across engines at identical fingerprints, strictly larger when flits
// are resident than when empty, and exactly reproducible when the same
// workload replays on a Reset network (the figure the perf gate pins).
func TestLiveStateBytesDeterministic(t *testing.T) {
	build := func() *Network {
		s := topology.MustSpidergon(16)
		n, err := NewNetwork(s, routing.NewSpidergonRouting(s), DefaultConfig(), stats.NewCollector(0))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	drive := func(n *Network) {
		rng := sim.NewRNG(23)
		for c := 0; c < 1000; c++ {
			if rng.Bernoulli(0.4) {
				src, dst := rng.Intn(16), rng.Intn(16)
				if src != dst {
					_ = n.Inject(src, dst)
				}
			}
			n.Step()
		}
	}
	a, b := build(), build()
	b.SetShards(3)
	b.SetEngine(EngineParallel)
	t.Cleanup(b.StopWorkers)
	empty := a.LiveStateBytes()
	drive(a)
	drive(b)
	if a.LiveStateBytes() != b.LiveStateBytes() {
		t.Fatalf("engines disagree on live bytes: active %d, parallel %d",
			a.LiveStateBytes(), b.LiveStateBytes())
	}
	loaded := a.LiveStateBytes()
	if loaded <= empty {
		t.Fatalf("loaded network reports %d bytes, empty %d", loaded, empty)
	}
	// Replay on the recycled arena: identical state must yield the
	// identical byte count (same population high-water, same residency).
	a.Reset()
	drive(a)
	if got := a.LiveStateBytes(); got != loaded {
		t.Fatalf("replayed live bytes %d != first run %d", got, loaded)
	}
}

// The conservation checker must reject structurally invalid handles —
// a corrupted word in a buffer names a packet, sequence or VC outside
// the arena geometry and must be called out, not walked off the end.
func TestCheckConservationCatchesInvalidHandle(t *testing.T) {
	s := topology.MustSpidergon(16)
	net, err := NewNetwork(s, routing.NewSpidergonRouting(s), DefaultConfig(), stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Inject(0, 9); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		net.Step()
	}
	var bad *ring
	for _, r := range net.routers {
		for i := range r.out {
			for v := range r.out[i].vcs {
				if q := &r.out[i].vcs[v].q; !q.empty() {
					bad = q
				}
			}
		}
		for i := range r.in {
			for v := range r.in[i].bufs {
				if q := &r.in[i].bufs[v]; !q.empty() {
					bad = q
				}
			}
		}
	}
	if bad == nil {
		t.Fatal("no buffered flit to corrupt")
	}
	good := bad.pop()
	bad.push(mkFlit(good.pkt()+1000, good.seq(), good.vc()), net.cycle+1) // packet index past the arena
	err = net.CheckConservation()
	if err == nil || !strings.Contains(err.Error(), "invalid flit handle") {
		t.Fatalf("corrupted handle not caught: %v", err)
	}
}
