package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/sim"
)

// A workspace run must be bit-identical to a fresh core.Run, across a
// mixed sequence that exercises every reuse transition: same geometry
// (network Reset), rate and seed changes (Reset + new generator), a
// topology change (rebuild), and a return to a previous geometry
// (rebuild again — the workspace caches one network, not a set).
func TestWorkspaceMatchesFreshRuns(t *testing.T) {
	mk := func(topo TopologyKind, nodes int, lambda float64, seed uint64) Scenario {
		s := NewScenario(topo, nodes, UniformTraffic, lambda)
		s.Warmup, s.Measure = 200, 1500
		s.Seed = seed
		return s
	}
	seq := []Scenario{
		mk(Spidergon, 16, 0.02, 1),
		mk(Spidergon, 16, 0.02, 2), // replication: seed change only
		mk(Spidergon, 16, 0.08, 2), // rate change, same network
		mk(Mesh, 16, 0.03, 1),      // geometry change: rebuild
		mk(Spidergon, 16, 0.02, 1), // back again: rebuild, same result
	}
	// A hot-spot pattern over the same geometry reuses the network too.
	hs := mk(Spidergon, 16, 0.03, 5)
	hs.Traffic = HotSpotTraffic
	hs.HotSpots = []int{5}
	seq = append(seq, hs, mk(Spidergon, 16, 0.02, 1))

	var ws Workspace
	for i, s := range seq {
		got, err := ws.Run(s)
		if err != nil {
			t.Fatalf("step %d %s [workspace]: %v", i, s.Label(), err)
		}
		want, err := Run(s)
		if err != nil {
			t.Fatalf("step %d %s [fresh]: %v", i, s.Label(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %s: workspace diverged from fresh run:\nworkspace: %+v\nfresh:     %+v",
				i, s.Label(), got, want)
		}
	}
}

// Workspace reuse must also hold for Bernoulli arrivals and virtual
// cut-through — the non-default paths — and every variant must match
// the frozen reference.
func TestWorkspaceMatchesFreshRunsVariants(t *testing.T) {
	base := NewScenario(Ring, 12, UniformTraffic, 0.04)
	base.Warmup, base.Measure = 150, 1200

	variants := []Scenario{base, base, base}
	variants[1].Process = 1 // Bernoulli
	variants[2].Config.Switching = noc.VirtualCutThrough
	variants[2].Config.OutBufCap = base.Config.PacketLen

	var ws Workspace
	for round := 0; round < 2; round++ { // second round hits the reuse path
		for i, v := range variants {
			got, err := ws.Run(v)
			if err != nil {
				t.Fatalf("round %d variant %d: %v", round, i, err)
			}
			want, err := Run(v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d variant %d (%s): workspace diverged from fresh run", round, i, v.Label())
			}
			checkResult(t, fmt.Sprintf("%s/variant-%d", t.Name(), i), got)
		}
	}
}

// The whole point of the workspace: a repeated run on a warmed
// workspace must not rebuild the network. Observable via the packet
// pool — after the first run the pool is warm, and a Reset-based rerun
// leases from it instead of allocating (verified indirectly: results
// equal and the workspace survives many rounds without error), plus
// directly via the networkKey stability below.
func TestWorkspaceReusesNetworkAcrossReplications(t *testing.T) {
	s := NewScenario(Spidergon, 16, UniformTraffic, 0.05)
	s.Warmup, s.Measure = 100, 800
	var keys []string
	for seed := uint64(1); seed <= 4; seed++ {
		v := s
		v.Seed = seed
		keys = append(keys, v.networkKey())
	}
	for _, k := range keys[1:] {
		if k != keys[0] {
			t.Fatalf("replications map to different network keys: %q vs %q", keys[0], k)
		}
	}
	if a, b := s.networkKey(), NewScenario(Mesh, 16, UniformTraffic, 0.05).networkKey(); a == b {
		t.Fatal("distinct geometries share a network key")
	}
}

// Fuzz-style reuse sequences: random walks over rate, seed, engine and
// shard count — replayed on one workspace — must stay bit for bit equal
// to fresh runs and to the frozen reference. The engine/shard flips
// exercise worklist rebuilds over a recycled arena.
func TestWorkspaceReuseRandomizedSequences(t *testing.T) {
	master := sim.NewRNG(1234)
	for trial := 0; trial < 4; trial++ {
		rng := master.Split()
		var ws Workspace
		for step := 0; step < 6; step++ {
			s := NewScenario(Spidergon, 16, UniformTraffic, 0.01+0.08*rng.Float64())
			s.Warmup, s.Measure = 100, uint64(400+rng.Intn(800))
			s.Seed = rng.Uint64()
			if rng.Bernoulli(0.5) {
				s.StepParallel = 1 + rng.Intn(4)
			}
			got, err := ws.Run(s)
			if err != nil {
				t.Fatalf("trial %d step %d %s [workspace]: %v", trial, step, s.Label(), err)
			}
			want, err := Run(s)
			if err != nil {
				t.Fatalf("trial %d step %d %s [fresh]: %v", trial, step, s.Label(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d %s: workspace diverged from fresh run", trial, step, s.Label())
			}
			checkResult(t, fmt.Sprintf("%s/trial-%d/step-%d", t.Name(), trial, step), got)
		}
	}
}

// Every router queue carries the stage stamp of its last push. A
// saturated run A leaves flits — and their stamps — in the buffers when
// it stops; run B on the same workspace then counts its cycles up
// through every value those stamps hold. B must come out byte for byte
// as on a fresh workspace, under every engine, and as the frozen
// reference.
func TestWorkspaceReuseAfterLoadedRunIsByteIdentical(t *testing.T) {
	a := NewScenario(Mesh, 16, UniformTraffic, 0.3) // far past saturation
	a.Warmup, a.Measure = 50, 350
	b := NewScenario(Mesh, 16, UniformTraffic, 0.06)
	b.Warmup, b.Measure, b.Seed = 100, 900, 9
	for _, eng := range []noc.Engine{noc.EngineActive, noc.EngineParallel} {
		a.Engine, b.Engine = eng, eng
		var ws Workspace
		resA, err := ws.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		if resA.InjectedPackets == resA.EjectedPackets {
			t.Fatalf("%v: run A ended with empty buffers; the reuse below would prove nothing", eng)
		}
		reused, err := ws.Run(b)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Run(b)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := WriteResultJSON(&got, reused); err != nil {
			t.Fatal(err)
		}
		if err := WriteResultJSON(&want, fresh); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%v: B after A differs from B on a fresh workspace:\nreused: %s\nfresh:  %s", eng, got.Bytes(), want.Bytes())
		}
		checkResult(t, t.Name(), reused)
	}
}
