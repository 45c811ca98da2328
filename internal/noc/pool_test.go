package noc

import (
	"strings"
	"testing"

	"gonoc/internal/routing"
	"gonoc/internal/sim"
	"gonoc/internal/topology"
)

// drive injects a deterministic random stream for the given cycles.
func drive(t *testing.T, net *Network, cycles int, seed uint64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	for c := 0; c < cycles; c++ {
		if rng.Bernoulli(0.4) {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src != dst {
				if err := net.Inject(src, dst); err != nil {
					t.Fatal(err)
				}
			}
		}
		net.Step()
	}
}

// Every ejected packet must return to the pool, and a drained network
// must hold its whole population there: created == pool size, with the
// conservation check (which now includes the pool accounting) clean.
func TestPoolRecyclesEveryEjectedPacket(t *testing.T) {
	net := newSpidergonNet(t, 16, DefaultConfig())
	drive(t, net, 2000, 3)
	if err := net.Drain(10000); err != nil {
		t.Fatal(err)
	}
	if net.EjectedPackets() != net.CreatedPackets() {
		t.Fatalf("drained network: %d created, %d ejected", net.CreatedPackets(), net.EjectedPackets())
	}
	// Leases recycle one for one with ejections; after drain every
	// distinct packet structure sits on the pool.
	if net.recycled != net.EjectedPackets() {
		t.Fatalf("%d ejections but %d recycles", net.EjectedPackets(), net.recycled)
	}
	if net.PoolSize() == 0 {
		t.Fatal("empty pool after a drained run")
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// The pool must actually bound the packet population: a long run leases
// recycled packets instead of growing the heap, so distinct packet
// structures stay near the in-flight high-water mark, far below the
// created count.
func TestPoolBoundsPacketPopulation(t *testing.T) {
	net := newSpidergonNet(t, 16, DefaultConfig())
	drive(t, net, 6000, 5)
	if err := net.Drain(10000); err != nil {
		t.Fatal(err)
	}
	if net.CreatedPackets() < 1000 {
		t.Fatalf("degenerate run: only %d packets", net.CreatedPackets())
	}
	// After drain the pool holds every distinct packet ever allocated;
	// with recycling the population is far smaller than the creations.
	if distinct := net.PoolSize(); distinct >= int(net.CreatedPackets())/4 {
		t.Fatalf("pool population %d not bounded vs %d creations — recycling is not reusing",
			distinct, net.CreatedPackets())
	}
}

// The conservation checker must flag a leaked packet (ejected without a
// recycle).
func TestCheckConservationCatchesPoolLeak(t *testing.T) {
	net := newSpidergonNet(t, 16, DefaultConfig())
	drive(t, net, 1000, 7)
	if err := net.Drain(10000); err != nil {
		t.Fatal(err)
	}
	// Forge a leak behind the engine's back.
	net.recycled--
	err := net.CheckConservation()
	if err == nil || !strings.Contains(err.Error(), "leak") {
		t.Fatalf("pool leak not caught: %v", err)
	}
}

// The conservation checker must flag double frees in both observable
// forms: a pool entry appearing twice, and a pooled (free) packet still
// referenced by a live queue or buffer.
func TestCheckConservationCatchesDoubleFree(t *testing.T) {
	net := newSpidergonNet(t, 16, DefaultConfig())
	drive(t, net, 1000, 9)
	if err := net.Drain(10000); err != nil {
		t.Fatal(err)
	}
	if net.PoolSize() == 0 {
		t.Fatal("empty pool after a loaded run")
	}

	// A duplicated free-stack entry.
	dup := net.arena.freeStack[0]
	net.arena.freeStack = append(net.arena.freeStack, dup)
	err := net.CheckConservation()
	if err == nil || !strings.Contains(err.Error(), "double free") {
		t.Fatalf("duplicate free-stack entry not caught: %v", err)
	}
	net.arena.freeStack = net.arena.freeStack[:len(net.arena.freeStack)-1]

	// A free-marked packet still queued at a source.
	if err := net.Inject(0, 5); err != nil {
		t.Fatal(err)
	}
	queued := net.nis[0].queue.head()
	net.arena.free[queued] = true
	err = net.CheckConservation()
	if err == nil || !strings.Contains(err.Error(), "double free") {
		t.Fatalf("free packet in a live queue not caught: %v", err)
	}
	net.arena.free[queued] = false

	// A free-stack entry missing its free mark.
	net.arena.free[net.arena.freeStack[0]] = false
	err = net.CheckConservation()
	if err == nil || !strings.Contains(err.Error(), "free mark") {
		t.Fatalf("leased packet on the free stack not caught: %v", err)
	}
	net.arena.free[net.arena.freeStack[0]] = true
}

// Recycling the same lease twice is an engine bug and must panic rather
// than corrupt the pool.
func TestDoubleRecyclePanics(t *testing.T) {
	net := newSpidergonNet(t, 16, DefaultConfig())
	if err := net.Inject(0, 5); err != nil {
		t.Fatal(err)
	}
	pi := net.nis[0].queue.head()
	defer func() {
		if recover() == nil {
			t.Fatal("double recycle did not panic")
		}
	}()
	net.recyclePacket(pi)
	net.recyclePacket(pi)
}

// Recycling must be invisible cycle for cycle: the pooled network
// reproduces the frozen fingerprint sequence the reference recorded with
// pooling off, where every packet had a record of its own.
func TestPoolOnOffBitIdentical(t *testing.T) {
	s := topology.MustSpidergon(16)
	n := goldenNet(t, s, routing.NewSpidergonRouting(s), DefaultConfig())
	fp := newFingerprints()
	rng := sim.NewRNG(21)
	for c := 0; c < 3000; c++ {
		if rng.Bernoulli(0.35) {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src != dst {
				_ = n.Inject(src, dst)
			}
		}
		n.Step()
		fp.add(n)
	}
	checkGolden(t, "pool-on-off", fp.sum())
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Reset must reclaim every in-flight and queued packet into the pool
// and leave the network running the next workload exactly like a fresh
// twin with a cold pool.
func TestResetReclaimsAndReplaysIdentically(t *testing.T) {
	reused := newSpidergonNet(t, 16, DefaultConfig())
	// First workload, stopped mid-flight so buffers and queues are full.
	drive(t, reused, 1500, 31)
	if reused.InFlightFlits() == 0 && reused.QueuedPackets() == 0 {
		t.Fatal("first workload left nothing in flight")
	}
	// Every packet structure is either pooled or live (one struct per
	// outstanding lease); Reset must reclaim the live ones, so the pool
	// afterwards holds the whole population.
	population := uint64(reused.PoolSize()) + reused.CreatedPackets() - reused.EjectedPackets()
	reused.Reset()
	if got := uint64(reused.PoolSize()); got != population {
		t.Fatalf("Reset reclaimed to a pool of %d packets, want the full population of %d", got, population)
	}
	if reused.Cycle() != 0 || reused.CreatedPackets() != 0 || reused.InFlightFlits() != 0 {
		t.Fatal("Reset left residual state")
	}

	fresh := newSpidergonNet(t, 16, DefaultConfig())
	drive(t, reused, 2000, 77)
	drive(t, fresh, 2000, 77)
	if fr, ff := stateFingerprint(reused), stateFingerprint(fresh); fr != ff {
		t.Fatalf("reset network diverged from fresh twin:\nreset: %s\nfresh: %s", fr, ff)
	}
	if err := reused.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
