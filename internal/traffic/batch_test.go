package traffic

import (
	"fmt"
	"testing"

	"gonoc/internal/noc"
	"gonoc/internal/sim"
)

// netSummary captures everything observable about a driven network —
// counters, per-channel traversals, buffer occupancy, and the latency
// distribution down to its quantiles. Any difference in the injected
// packet stream (count, timing, destination, or per-queue order) shows
// up here.
func netSummary(net *noc.Network) string {
	col := net.Collector()
	return fmt.Sprintf("cycle=%d created=%d injected=%d ejected=%d queued=%d inflight=%d links=%v lat=%v p50=%v p95=%v hops=%v blocked=%d",
		net.Cycle(), net.CreatedPackets(), net.InjectedPackets(), net.EjectedPackets(),
		net.QueuedPackets(), net.InFlightFlits(), net.ChannelTraversals(),
		col.MeanLatency(), col.LatencyQuantile(0.5), col.LatencyQuantile(0.95),
		col.MeanHops(), col.SourceBlockedCycles())
}

// driveGenerator runs one Poisson generator to the horizon and returns
// the network summary prefixed with the offered-packet count.
func driveGenerator(t *testing.T, nodes int, rate float64, seed uint64) string {
	t.Helper()
	net := buildNet(t, nodes)
	k := sim.NewKernel()
	g, err := NewGenerator(k, net, Uniform{N: nodes}, Poisson, rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	tick := sim.NewTicker(k, 1)
	tick.OnTick(func(uint64) { net.Step() })
	tick.Start()
	k.RunUntil(4000)
	if g.OfferedPackets() == 0 {
		t.Fatal("degenerate run: nothing offered")
	}
	return fmt.Sprintf("off=%d %s", g.OfferedPackets(), netSummary(net))
}

// Batched emission must produce the packet stream the one-event-per-
// arrival reference recorded — same seed, same arrivals, same cycles,
// same deliveries — from well below saturation (where batching rarely
// engages) to far past it (where most events carry several same-cycle
// arrivals).
func TestGeneratorBatchedMatchesUnbatched(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
		seed uint64
	}{
		{"low", 0.01, 42},
		{"knee", 0.07, 7},
		{"saturated", 0.6, 99},
		{"deep-saturation", 2.5, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, t.Name(), driveGenerator(t, 16, tc.rate, tc.seed))
		})
	}
}

// Past saturation batching must actually collapse events. At λ = 2
// packets/cycle a source sees an arrival in 1 − e⁻² ≈ 86 % of cycles,
// about two at a time, so the generator fires ≈ 0.43 events per offered
// packet where one event per arrival would fire 1.
func TestGeneratorBatchingCollapsesEvents(t *testing.T) {
	net := buildNet(t, 16)
	k := sim.NewKernel()
	g, err := NewGenerator(k, net, Uniform{N: 16}, Poisson, 2.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	tick := sim.NewTicker(k, 1)
	tick.OnTick(func(uint64) { net.Step() })
	tick.Start()
	k.RunUntil(2000)
	events := k.Processed() - tick.Cycle() // generator events only
	if perArrival := float64(events) / float64(g.OfferedPackets()); perArrival < 0.38 || perArrival > 0.48 {
		t.Fatalf("%.3f generator events per offered packet (%d events, %d packets), want ≈ 0.43",
			perArrival, events, g.OfferedPackets())
	}
}

// The Start-time RNG draw order is part of the stream contract: a
// generator must offer the same packets the standalone Record pre-draw
// produces for the same seed (Record is the unbatched reference
// implementation that never touches a kernel).
func TestGeneratorMatchesRecordedOfferCount(t *testing.T) {
	const (
		nodes   = 12
		rate    = 0.05
		seed    = 1234
		horizon = 3000
	)
	tr := Record(Uniform{N: nodes}, Poisson, rate, nodes, horizon, seed)

	net := buildNet(t, nodes)
	k := sim.NewKernel()
	g, err := NewGenerator(k, net, Uniform{N: nodes}, Poisson, rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	tick := sim.NewTicker(k, 1)
	tick.OnTick(func(uint64) { net.Step() })
	tick.Start()
	k.RunUntil(horizon)
	// Record cuts at arrival time < horizon, the live generator at event
	// dispatch <= horizon; the counts may differ by at most the final
	// arrival per source.
	diff := int(g.OfferedPackets()) - len(tr.Events)
	if diff < 0 {
		diff = -diff
	}
	if diff > nodes {
		t.Fatalf("generator offered %d packets, Record pre-drew %d", g.OfferedPackets(), len(tr.Events))
	}
}
