package noc

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gonoc/internal/routing"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

// parallelShardCounts is the matrix every parallel test sweeps: the
// degenerate single shard, even splits, and prime counts that do not
// divide the node counts used (so ranges have mixed sizes, down to
// single-router shards at 13-of-16).
var parallelShardCounts = []int{1, 2, 3, 4, 7, 13}

// newParallelNet builds a parallel-engine network with k shards over
// the given fabric, registering worker cleanup with the test.
func newParallelNet(t *testing.T, topo topology.Topology, alg routing.Algorithm, cfg Config, k int) *Network {
	t.Helper()
	n, err := NewNetwork(topo, alg, cfg, stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	n.SetShards(k)
	n.SetEngine(EngineParallel)
	if n.Engine() != EngineParallel {
		t.Fatal("parallel engine not selected")
	}
	t.Cleanup(n.StopWorkers)
	return n
}

// The parallel engine must track the activity-driven reference cycle
// for cycle at every shard count — any arbitration divergence, worklist
// slip or mis-ordered cross-shard replay shows up in the buffer
// occupancy fingerprint the same cycle it happens. The deterministic
// work counters must match too: the shards visit exactly the nodes the
// serial worklists would.
func TestParallelAgreesCycleByCycle(t *testing.T) {
	for _, k := range parallelShardCounts {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			s := topology.MustSpidergon(16)
			ref, err := NewNetwork(s, routing.NewSpidergonRouting(s), DefaultConfig(), stats.NewCollector(0))
			if err != nil {
				t.Fatal(err)
			}
			par := newParallelNet(t, s, routing.NewSpidergonRouting(s), DefaultConfig(), k)
			rng := sim.NewRNG(7)
			for cycle := 0; cycle < 3000; cycle++ {
				if rng.Bernoulli(0.35) {
					src, dst := rng.Intn(16), rng.Intn(16)
					if src != dst {
						if err := ref.Inject(src, dst); err != nil {
							t.Fatal(err)
						}
						if err := par.Inject(src, dst); err != nil {
							t.Fatal(err)
						}
					}
				}
				ref.Step()
				par.Step()
				if fa, fb := stateFingerprint(ref), stateFingerprint(par); fa != fb {
					t.Fatalf("engines diverged at cycle %d:\nactive:   %s\nparallel: %s", cycle, fa, fb)
				}
				if na, nb := ref.ActiveNodes(), par.ActiveNodes(); na != nb {
					t.Fatalf("cycle %d: ActiveNodes %d (active) vs %d (parallel)", cycle, na, nb)
				}
			}
			if err := par.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if ref.Perf().RouterVisits != par.Perf().RouterVisits {
				t.Fatalf("worklist visits diverged: active %d, parallel %d",
					ref.Perf().RouterVisits, par.Perf().RouterVisits)
			}
			if err := ref.Drain(10000); err != nil {
				t.Fatal(err)
			}
			if err := par.Drain(10000); err != nil {
				t.Fatal(err)
			}
			if fa, fb := stateFingerprint(ref), stateFingerprint(par); fa != fb {
				t.Fatalf("engines diverged after drain:\nactive:   %s\nparallel: %s", fa, fb)
			}
		})
	}
}

// Fuzz-style equivalence for the parallel engine: random topologies,
// switching modes, buffer geometries, interface rates, injection
// streams and shard counts must never separate it from the
// activity-driven engine. Each trial also proves the worklist and
// cross-shard invariants via CheckConservation.
func TestParallelAgreesRandomized(t *testing.T) {
	master := sim.NewRNG(99)
	for trial := 0; trial < 10; trial++ {
		rng := master.Split()
		var topo topology.Topology
		var alg routing.Algorithm
		switch rng.Intn(3) {
		case 0:
			r := topology.MustRing(8 + 2*rng.Intn(5))
			topo, alg = r, routing.NewRingRouting(r)
		case 1:
			s := topology.MustSpidergon(8 + 4*rng.Intn(3))
			topo, alg = s, routing.NewSpidergonRouting(s)
		default:
			m := topology.MustMesh(3+rng.Intn(2), 3+rng.Intn(2))
			topo, alg = m, routing.NewMeshXY(m)
		}
		cfg := DefaultConfig()
		cfg.PacketLen = 2 + rng.Intn(6)
		cfg.OutBufCap = 1 + rng.Intn(6)
		cfg.SinkRate = 1 + rng.Intn(2)
		cfg.InjectRate = 1 + rng.Intn(2)
		if rng.Bernoulli(0.5) {
			cfg.Switching = VirtualCutThrough
			if cfg.OutBufCap < cfg.PacketLen {
				cfg.OutBufCap = cfg.PacketLen
			}
		}
		shards := 1 + rng.Intn(8)
		name := fmt.Sprintf("trial %d (%s, %v, %d shards)", trial, topo.Name(), cfg, shards)
		ref, err := NewNetwork(topo, alg, cfg, stats.NewCollector(0))
		if err != nil {
			t.Fatal(err)
		}
		par := newParallelNet(t, topo, alg, cfg, shards)
		n := topo.Nodes()
		rate := 0.05 + 0.4*rng.Float64()
		for cycle := 0; cycle < 1200; cycle++ {
			if rng.Bernoulli(rate) {
				src, dst := rng.Intn(n), rng.Intn(n)
				if src != dst {
					_ = ref.Inject(src, dst)
					_ = par.Inject(src, dst)
				}
			}
			ref.Step()
			par.Step()
		}
		if fa, fb := stateFingerprint(ref), stateFingerprint(par); fa != fb {
			t.Fatalf("%s: engines diverged:\nactive:   %s\nparallel: %s", name, fa, fb)
		}
		if err := ref.CheckConservation(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := par.CheckConservation(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// Reset must return a parallel network to a state bit-identical to a
// fresh one (with its workers parked), so campaign workspaces can reuse
// it across replications.
func TestParallelResetReplaysIdentically(t *testing.T) {
	s := topology.MustSpidergon(16)
	par := newParallelNet(t, s, routing.NewSpidergonRouting(s), DefaultConfig(), 4)
	run := func() string {
		rng := sim.NewRNG(5)
		for cycle := 0; cycle < 800; cycle++ {
			if rng.Bernoulli(0.3) {
				src, dst := rng.Intn(16), rng.Intn(16)
				if src != dst {
					_ = par.Inject(src, dst)
				}
			}
			par.Step()
		}
		return stateFingerprint(par)
	}
	first := run()
	if err := par.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	par.Reset()
	par.SetEngine(EngineParallel) // Reset keeps the engine; rebuild worklists
	if second := run(); second != first {
		t.Fatalf("post-Reset replay diverged:\nfirst:  %s\nsecond: %s", first, second)
	}
}

// The cross-shard invariant checker must actually catch the failure
// modes it claims to: a stranded node (off every shard worklist), a
// node enrolled in a foreign shard's worklist, and deferred effects
// left unreplayed at a cycle boundary.
func TestParallelInvariantsCatchCorruption(t *testing.T) {
	build := func() *Network {
		s := topology.MustSpidergon(16)
		par := newParallelNet(t, s, routing.NewSpidergonRouting(s), DefaultConfig(), 4)
		if err := par.Inject(0, 9); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 3; c++ {
			par.Step()
		}
		if par.InFlightFlits() == 0 {
			t.Fatal("expected in-flight flits")
		}
		return par
	}

	par := build()
	for i := range par.shards {
		par.shards[i].wl.ej.clear()
		par.shards[i].wl.sw.clear()
		par.shards[i].wl.out.clear()
	}
	if err := par.CheckConservation(); err == nil {
		t.Fatal("conservation check missed a stranded flit")
	}

	par = build()
	par.shards[0].wl.ni.add(15) // node 15 belongs to shard 3
	if err := par.CheckConservation(); err == nil {
		t.Fatal("conservation check missed a foreign worklist member")
	}

	par = build()
	par.shards[2].stats = append(par.shards[2].stats, statRecord{})
	if err := par.CheckConservation(); err == nil {
		t.Fatal("conservation check missed an unreplayed deferred effect")
	}

	par = build()
	par.shards[0].outbox[1] = append(par.shards[0].outbox[1], pushRecord{})
	if err := par.CheckConservation(); err == nil {
		t.Fatal("conservation check missed an undelivered mailbox record")
	}

	par = build()
	par.shards[1].cdefers = 1
	if err := par.CheckConservation(); err == nil {
		t.Fatal("conservation check missed an unmerged credit-defer scratch counter")
	}

	par = build()
	if len(par.shards[0].bports) == 0 {
		t.Fatal("expected cross-shard boundary ports on shard 0")
	}
	par.shards[0].bports[0].op.credits[0]++
	if err := par.CheckConservation(); err == nil {
		t.Fatal("conservation check missed a stale boundary credit counter")
	}

	par = build()
	par.shards[0].bports[0].op.credits[0] = -1
	if err := par.CheckConservation(); err == nil {
		t.Fatal("conservation check missed a credit overdraft")
	}

	par = build()
	if len(par.shards[1].senders) == 0 {
		t.Fatal("expected inbound senders on shard 1")
	}
	par.shards[1].senders = par.shards[1].senders[:len(par.shards[1].senders)-1]
	if err := par.CheckConservation(); err == nil {
		t.Fatal("conservation check missed a truncated sender list")
	}
}

// The synchronization budget is gated: every multi-shard cycle costs
// exactly ONE barrier, loaded or draining, and the single-shard
// decomposition none.
func TestParallelBarrierCounters(t *testing.T) {
	s := topology.MustSpidergon(16)
	par := newParallelNet(t, s, routing.NewSpidergonRouting(s), DefaultConfig(), 4)
	rng := sim.NewRNG(3)
	const open = 500
	for c := 0; c < open; c++ {
		if rng.Bernoulli(0.3) {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src != dst {
				_ = par.Inject(src, dst)
			}
		}
		par.Step()
	}
	if got := par.Perf().Barriers; got != open {
		t.Fatalf("loaded barriers = %d over %d cycles, want exactly 1/cycle", got, open)
	}
	const drain = 200
	for c := 0; c < drain; c++ {
		par.Step()
	}
	if got := par.Perf().Barriers; got != open+drain {
		t.Fatalf("barriers = %d after %d more draining cycles, want %d (1/cycle)", got, drain, open+drain)
	}

	single := newParallelNet(t, s, routing.NewSpidergonRouting(s), DefaultConfig(), 1)
	_ = single.Inject(0, 9)
	for c := 0; c < 50; c++ {
		single.Step()
	}
	if got := single.Perf().Barriers; got != 0 {
		t.Fatalf("single-shard decomposition crossed %d barriers, want 0", got)
	}
}

// spinBudget must collapse to zero (straight to Gosched) on a single P,
// grant the full budget when every worker can own a P, and scale down
// with oversubscription.
func TestSpinBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	if got := spinBudget(4); got != 0 {
		t.Fatalf("spinBudget(4) at GOMAXPROCS=1 = %d, want 0", got)
	}
	runtime.GOMAXPROCS(8)
	if runtime.NumCPU() < 8 {
		// Raising GOMAXPROCS past the physical core count must not
		// re-enable spinning: the surplus Ps are time-sliced onto the
		// same cores, so a busy waiter steals the quantum of the worker
		// that would end the wait. NumCPU clamps the parallelism.
		want := spinBudgetAt(min(runtime.NumCPU(), 8), 4)
		if got := spinBudget(4); got != want {
			t.Fatalf("spinBudget(4) at GOMAXPROCS=8 on %d CPUs = %d, want %d (NumCPU-clamped)",
				runtime.NumCPU(), got, want)
		}
		return
	}
	if got := spinBudget(4); got != 4096 {
		t.Fatalf("spinBudget(4) at GOMAXPROCS=8 = %d, want the full 4096", got)
	}
	if got := spinBudget(8); got != 4096 {
		t.Fatalf("spinBudget(8) at GOMAXPROCS=8 = %d, want 4096", got)
	}
	if got := spinBudget(16); got != 2048 {
		t.Fatalf("spinBudget(16) at GOMAXPROCS=8 = %d, want 2048", got)
	}
}

// spinBudgetAt mirrors spinBudget's formula for a given effective
// parallelism, so the clamp assertion states the expected value
// explicitly instead of re-calling the function under test.
func spinBudgetAt(p, shards int) int {
	if p <= 1 {
		return 0
	}
	b := 4096 * p / shards
	if b > 4096 {
		b = 4096
	}
	return b
}

// With a single P, a worker that exhausts its (zero) spin budget must
// yield and park rather than busy-wait — otherwise the coordinator
// never runs and the cycle deadlocks. Driving a 4-shard network to
// completion under GOMAXPROCS=1, bit-identical to the reference, is the
// progress proof; the go test timeout is the failure detector.
func TestParallelProgressAtGOMAXPROCS1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := topology.MustSpidergon(16)
	ref, err := NewNetwork(s, routing.NewSpidergonRouting(s), DefaultConfig(), stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	par := newParallelNet(t, s, routing.NewSpidergonRouting(s), DefaultConfig(), 4)
	rng := sim.NewRNG(21)
	for cycle := 0; cycle < 600; cycle++ {
		if rng.Bernoulli(0.3) {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src != dst {
				_ = ref.Inject(src, dst)
				_ = par.Inject(src, dst)
			}
		}
		ref.Step()
		par.Step()
	}
	if fa, fb := stateFingerprint(ref), stateFingerprint(par); fa != fb {
		t.Fatalf("engines diverged under GOMAXPROCS=1:\nactive:   %s\nparallel: %s", fa, fb)
	}
	if par.pr == nil {
		t.Fatal("multi-shard stepping never started the worker group")
	}
	if par.pr.spin != 0 {
		t.Fatalf("worker spin budget = %d under GOMAXPROCS=1, want 0", par.pr.spin)
	}
	if err := par.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Shard-count edges: a request beyond the router count clamps to one
// router per shard, and non-positive requests select the automatic
// width (min(GOMAXPROCS, routers/4)) — all mid-run, all bit-identical.
func TestSetShardsClampAndAuto(t *testing.T) {
	s := topology.MustSpidergon(16)
	ref, err := NewNetwork(s, routing.NewSpidergonRouting(s), DefaultConfig(), stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	par := newParallelNet(t, s, routing.NewSpidergonRouting(s), DefaultConfig(), 4)
	rng := sim.NewRNG(17)
	drive := func(cycles int) {
		for c := 0; c < cycles; c++ {
			if rng.Bernoulli(0.3) {
				src, dst := rng.Intn(16), rng.Intn(16)
				if src != dst {
					_ = ref.Inject(src, dst)
					_ = par.Inject(src, dst)
				}
			}
			ref.Step()
			par.Step()
		}
		if fa, fb := stateFingerprint(ref), stateFingerprint(par); fa != fb {
			t.Fatalf("engines diverged at %d shards:\nactive:   %s\nparallel: %s", par.Shards(), fa, fb)
		}
		if err := par.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
	drive(300)
	par.SetShards(64) // > routers: clamp to one router per shard
	if got := par.Shards(); got != 16 {
		t.Fatalf("SetShards(64) on 16 routers = %d shards, want 16", got)
	}
	drive(300)
	par.SetShards(0) // automatic width
	want := runtime.GOMAXPROCS(0)
	if q := 16 / 4; want > q {
		want = q
	}
	if want < 1 {
		want = 1
	}
	if got := par.Shards(); got != want {
		t.Fatalf("SetShards(0) = %d shards, want auto width %d", got, want)
	}
	drive(300)
	par.SetShards(-3) // any non-positive request means auto
	if got := par.Shards(); got != want {
		t.Fatalf("SetShards(-3) = %d shards, want auto width %d", got, want)
	}
	drive(300)
}

// waitGoroutines polls until the goroutine count falls back to the
// baseline: StopWorkers joins the group, but the counter includes exit
// epilogues, so a short grace window keeps the check robust.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, baseline %d — parked workers leaked",
				runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// StopWorkers must JOIN the worker group: directly, via mid-run Reset,
// and across restart cycles, no parked worker may outlive its network.
func TestStopWorkersLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := topology.MustSpidergon(16)
	par := newParallelNet(t, s, routing.NewSpidergonRouting(s), DefaultConfig(), 4)
	rng := sim.NewRNG(8)
	drive := func(cycles int) {
		for c := 0; c < cycles; c++ {
			if rng.Bernoulli(0.4) {
				src, dst := rng.Intn(16), rng.Intn(16)
				if src != dst {
					_ = par.Inject(src, dst)
				}
			}
			par.Step()
		}
	}
	drive(100)
	if par.pr == nil {
		t.Fatal("worker group never started")
	}
	par.StopWorkers()
	if par.pr != nil {
		t.Fatal("StopWorkers left the group registered")
	}
	waitGoroutines(t, baseline)

	drive(100) // stepping restarts the group transparently
	if par.pr == nil {
		t.Fatal("worker group did not restart after StopWorkers")
	}
	par.Reset() // mid-run reset parks and joins via resetShards
	waitGoroutines(t, baseline)
	par.SetEngine(EngineParallel) // Reset keeps the engine; rebuild worklists
	drive(100)
	par.StopWorkers()
	waitGoroutines(t, baseline)
}

// A burst of cross-shard deliveries must grow the per-pair mailboxes
// past their deliberately small initial capacity exactly once — after
// the high-water mark is established, the fused cycle (mailbox appends,
// credit decrements, injections from the pool) runs allocation-free.
func TestMailboxBurstGrowthAndSteadyState(t *testing.T) {
	m := topology.MustMesh(8, 8)
	cfg := DefaultConfig()
	// Roomy downstream input buffers keep the cycle-start credits
	// positive, so cross-cut traffic lands in the mailboxes on the
	// speculative path instead of the zero-credit defer path.
	cfg.InBufCap = 4
	net, err := NewNetwork(m, routing.NewMeshXY(m), cfg, stats.NewCollector(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	net.SetShards(2) // cut between rows 3 and 4: 8 links per direction
	net.SetEngine(EngineParallel)
	t.Cleanup(net.StopWorkers)
	cycle := 0
	tick := func() {
		// One top-half→bottom-half packet per cycle: every flit must
		// cross the 8-link cut, keeping it busy but sustainable.
		src := (cycle*5 + 3) % 32
		dst := 32 + (cycle*11+7)%32
		if err := net.Inject(src, dst); err != nil {
			t.Fatal(err)
		}
		net.Step()
		cycle++
	}
	for cycle < 2000 {
		tick()
	}
	grown := 0
	for i := range net.shards {
		for _, box := range net.shards[i].outbox {
			if cap(box) > initialMailboxCap {
				grown++
			}
		}
	}
	if grown == 0 {
		t.Fatalf("no mailbox grew past its initial capacity %d — burst not exercised", initialMailboxCap)
	}
	if allocs := testing.AllocsPerRun(300, tick); allocs != 0 {
		t.Fatalf("steady-state fused parallel cycle allocates %v per cycle", allocs)
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// FuzzCrossShardMailbox drives random fabrics, switching modes, loads
// and shard counts (including counts past the router count) through the
// fused engine, holding it to fingerprint equality with EngineActive
// and to the conservation + mailbox invariants.
func FuzzCrossShardMailbox(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), uint8(40))
	f.Add(uint64(7), uint8(1), uint8(3), uint8(80))
	f.Add(uint64(42), uint8(2), uint8(13), uint8(120))
	f.Add(uint64(9), uint8(1), uint8(7), uint8(200))
	f.Add(uint64(64), uint8(0), uint8(30), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, topoSel, shardSel, rateByte uint8) {
		rng := sim.NewRNG(seed)
		var topo topology.Topology
		var alg routing.Algorithm
		switch topoSel % 3 {
		case 0:
			r := topology.MustRing(8 + 2*rng.Intn(5))
			topo, alg = r, routing.NewRingRouting(r)
		case 1:
			s := topology.MustSpidergon(8 + 4*rng.Intn(3))
			topo, alg = s, routing.NewSpidergonRouting(s)
		default:
			m := topology.MustMesh(4, 4)
			topo, alg = m, routing.NewMeshXY(m)
		}
		cfg := DefaultConfig()
		cfg.PacketLen = 2 + rng.Intn(5)
		cfg.OutBufCap = 1 + rng.Intn(4)
		cfg.InBufCap = 1 + rng.Intn(3)
		if seed%2 == 0 {
			cfg.Switching = VirtualCutThrough
			if cfg.OutBufCap < cfg.PacketLen {
				cfg.OutBufCap = cfg.PacketLen
			}
		}
		shards := 1 + int(shardSel)%20 // may exceed the router count: clamps
		ref, err := NewNetwork(topo, alg, cfg, stats.NewCollector(0))
		if err != nil {
			t.Fatal(err)
		}
		par := newParallelNet(t, topo, alg, cfg, shards)
		nodes := topo.Nodes()
		rate := 0.05 + 0.5*float64(rateByte)/255
		for cycle := 0; cycle < 600; cycle++ {
			if rng.Bernoulli(rate) {
				src, dst := rng.Intn(nodes), rng.Intn(nodes)
				if src != dst {
					_ = ref.Inject(src, dst)
					_ = par.Inject(src, dst)
				}
			}
			ref.Step()
			par.Step()
			if cycle%50 == 0 {
				if fa, fb := stateFingerprint(ref), stateFingerprint(par); fa != fb {
					t.Fatalf("engines diverged at cycle %d (%d shards):\nactive:   %s\nparallel: %s",
						cycle, par.Shards(), fa, fb)
				}
			}
		}
		if fa, fb := stateFingerprint(ref), stateFingerprint(par); fa != fb {
			t.Fatalf("engines diverged (%d shards):\nactive:   %s\nparallel: %s", par.Shards(), fa, fb)
		}
		if err := ref.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		if err := par.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestParallelZeroCreditStorm saturates the cross-shard cut with the
// tightest possible downstream buffers (InBufCap 1, the default): every
// boundary port holds at most one cycle-start credit, so sustained
// cross-cut worms exhaust credits constantly and the engine lives on
// the zero-credit defer path (point-to-point pops-done wait + exact
// re-read). The storm must stay bit-identical to the serial reference,
// record a substantial CreditDefers count, and still cross exactly one
// barrier per cycle.
func TestParallelZeroCreditStorm(t *testing.T) {
	m := topology.MustMesh(8, 8)
	cfg := DefaultConfig() // InBufCap 1: single-credit boundary ports
	ref, err := NewNetwork(m, routing.NewMeshXY(m), cfg, stats.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	par := newParallelNet(t, m, routing.NewMeshXY(m), cfg, 4)
	const cycles = 1500
	for cycle := 0; cycle < cycles; cycle++ {
		// Four packets per cycle, every one forced across shard cuts:
		// column-aligned src/dst pairs so XY routing sends whole worms
		// straight through the row boundaries in both directions.
		for k := 0; k < 4; k++ {
			col := (cycle*7 + k*3) % 8
			src := col + 8*(k%4)     // rows 0..3 (upper shards)
			dst := col + 8*(7-(k%4)) // rows 7..4 (lower shards)
			_ = ref.Inject(src, dst)
			_ = par.Inject(src, dst)
		}
		ref.Step()
		par.Step()
		if cycle%250 == 0 {
			if fa, fb := stateFingerprint(ref), stateFingerprint(par); fa != fb {
				t.Fatalf("storm diverged at cycle %d:\nactive:   %s\nparallel: %s", cycle, fa, fb)
			}
		}
	}
	if fa, fb := stateFingerprint(ref), stateFingerprint(par); fa != fb {
		t.Fatalf("storm diverged:\nactive:   %s\nparallel: %s", fa, fb)
	}
	perf := par.Perf()
	if perf.CreditDefers == 0 {
		t.Fatal("zero-credit storm recorded no CreditDefers — the defer path was never exercised")
	}
	if perf.SpeculativeDeliveries == 0 {
		t.Fatal("storm recorded no speculative deliveries — credits never granted")
	}
	if perf.Barriers != cycles {
		t.Fatalf("barriers = %d over %d cycles, want exactly 1/cycle under storm", perf.Barriers, cycles)
	}
	if err := par.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// FuzzCreditSnapshot drives random fabrics and loads through the
// credit-based engine with deliberately tight, fuzzed buffer depths,
// holding it to (a) fingerprint equality with the serial reference and
// (b) the credit conservation invariants — snapshot credits equal free
// downstream slots at every cycle boundary, no overdraft, mailboxes
// drained — via CheckConservation at every probe.
func FuzzCreditSnapshot(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(2), uint8(230))
	f.Add(uint64(3), uint8(0), uint8(4), uint8(255))
	f.Add(uint64(11), uint8(2), uint8(7), uint8(90))
	f.Add(uint64(23), uint8(1), uint8(13), uint8(160))
	f.Add(uint64(5), uint8(2), uint8(3), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, topoSel, shardSel, rateByte uint8) {
		rng := sim.NewRNG(seed)
		var topo topology.Topology
		var alg routing.Algorithm
		switch topoSel % 3 {
		case 0:
			r := topology.MustRing(8 + 2*rng.Intn(5))
			topo, alg = r, routing.NewRingRouting(r)
		case 1:
			s := topology.MustSpidergon(8 + 4*rng.Intn(3))
			topo, alg = s, routing.NewSpidergonRouting(s)
		default:
			m := topology.MustMesh(4, 4)
			topo, alg = m, routing.NewMeshXY(m)
		}
		cfg := DefaultConfig()
		cfg.PacketLen = 2 + rng.Intn(6)
		cfg.OutBufCap = 1 + rng.Intn(3)
		cfg.InBufCap = 1 + rng.Intn(2) // 1-2 slots: credits expire fast
		if seed%3 == 0 {
			cfg.Switching = VirtualCutThrough
			if cfg.OutBufCap < cfg.PacketLen {
				cfg.OutBufCap = cfg.PacketLen
			}
		}
		shards := 1 + int(shardSel)%16
		ref, err := NewNetwork(topo, alg, cfg, stats.NewCollector(0))
		if err != nil {
			t.Fatal(err)
		}
		par := newParallelNet(t, topo, alg, cfg, shards)
		nodes := topo.Nodes()
		rate := 0.2 + 0.8*float64(rateByte)/255 // hot: starve the credits
		for cycle := 0; cycle < 500; cycle++ {
			if rng.Bernoulli(rate) {
				src, dst := rng.Intn(nodes), rng.Intn(nodes)
				if src != dst {
					_ = ref.Inject(src, dst)
					_ = par.Inject(src, dst)
				}
			}
			ref.Step()
			par.Step()
			if cycle%100 == 0 {
				if fa, fb := stateFingerprint(ref), stateFingerprint(par); fa != fb {
					t.Fatalf("engines diverged at cycle %d (%d shards):\nactive:   %s\nparallel: %s",
						cycle, par.Shards(), fa, fb)
				}
				if err := par.CheckConservation(); err != nil {
					t.Fatalf("credit invariants violated at cycle %d: %v", cycle, err)
				}
			}
		}
		if fa, fb := stateFingerprint(ref), stateFingerprint(par); fa != fb {
			t.Fatalf("engines diverged (%d shards):\nactive:   %s\nparallel: %s", par.Shards(), fa, fb)
		}
		if err := par.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	})
}
