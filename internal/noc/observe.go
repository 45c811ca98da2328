package noc

import (
	"sort"

	"gonoc/internal/topology"
)

// This file adds the observability surface of the network: per-channel
// utilisation counters, queue-occupancy snapshots, engine work
// counters and the telemetry probes.

// ChannelTraversals returns, indexed by channel ID, the number of flit
// link traversals since construction (warm-up included; divide by
// Cycle() for utilisation, or use ChannelUtilization).
func (n *Network) ChannelTraversals() []uint64 {
	out := make([]uint64, len(n.linkFlits))
	copy(out, n.linkFlits)
	return out
}

// ChannelUtilization returns per-channel flits/cycle since
// construction — each channel moves at most one flit per cycle, so
// values are in [0, 1].
func (n *Network) ChannelUtilization() []float64 {
	out := make([]float64, len(n.linkFlits))
	if n.cycle == 0 {
		return out
	}
	for i, c := range n.linkFlits {
		out[i] = float64(c) / float64(n.cycle)
	}
	return out
}

// UtilizationSummary describes the channel load distribution of a run.
type UtilizationSummary struct {
	// Mean and Max are flits/cycle over all channels.
	Mean, Max float64
	// MaxChannel is the channel achieving Max.
	MaxChannel topology.Channel
	// P50 and P90 are utilisation quantiles across channels.
	P50, P90 float64
}

// Utilization summarises the channel load distribution: under hot-spot
// traffic the maximum concentrates on the target's incoming links
// while the mean stays low — the imbalance behind Figures 6-9.
func (n *Network) Utilization() UtilizationSummary {
	u := n.ChannelUtilization()
	if len(u) == 0 {
		return UtilizationSummary{}
	}
	var s UtilizationSummary
	maxI := 0
	sum := 0.0
	for i, v := range u {
		sum += v
		if v > u[maxI] {
			maxI = i
		}
	}
	s.Mean = sum / float64(len(u))
	s.Max = u[maxI]
	s.MaxChannel = n.topo.Channels()[maxI]
	sorted := make([]float64, len(u))
	copy(sorted, u)
	sort.Float64s(sorted)
	s.P50 = sorted[len(sorted)/2]
	s.P90 = sorted[(len(sorted)*9)/10]
	return s
}

// PerfStats is the engine's deterministic work accounting: how many
// worklist visits the phase loops performed and how many
// idle cycles were fast-forwarded. Both counters are pure functions of
// the scenario — independent of wall clock, host, and parallelism — so
// the perf-regression gate (make bench-check) can compare them against
// a committed baseline without cross-machine noise.
type PerfStats struct {
	// Engine names the Step implementation that produced the counters.
	Engine string
	// RouterVisits counts per-phase router/source visits: only nodes
	// holding work are visited, so a scan of everything would pay 4×N
	// per cycle.
	RouterVisits uint64
	// SkippedCycles counts cycles advanced by SkipTo instead of Step.
	SkippedCycles uint64
	// LiveStateBytes is the resident footprint of the live simulation
	// state at sampling time (see Network.LiveStateBytes). Length-based
	// and allocator-independent, so it is gateable like the counters.
	LiveStateBytes uint64
	// Barriers counts worker-group barriers crossed by the parallel
	// engine: one per multi-shard cycle, zero for the serial engines
	// and the single-shard decomposition.
	// Deterministic, so the perf gate pins the synchronization budget.
	Barriers uint64
	// SpeculativeDeliveries counts cross-shard flits delivered on an
	// unexpired cycle-start credit — the fraction of boundary traffic
	// that required no synchronization at all. Deterministic: whether a
	// port holds a credit depends only on the previous barrier's buffer
	// occupancy, never on timing.
	SpeculativeDeliveries uint64
	// CreditDefers counts zero-credit boundary link decisions: the port
	// waited for the downstream shard's pops-done mark and re-read
	// exact occupancy inside the pass. The deterministic measure of
	// residual cross-shard coupling.
	CreditDefers uint64
}

// Perf returns the engine work counters accumulated so far.
func (n *Network) Perf() PerfStats {
	return PerfStats{
		Engine:                n.engine.String(),
		RouterVisits:          n.visits,
		SkippedCycles:         n.skipped,
		LiveStateBytes:        n.LiveStateBytes(),
		Barriers:              n.barriers,
		SpeculativeDeliveries: n.specs,
		CreditDefers:          n.cdefers,
	}
}

// ActiveNodes reports how many routers currently hold buffered flits
// (input or output side) — the instantaneous worklist load the active
// engine's cycle cost is proportional to.
func (n *Network) ActiveNodes() int {
	c := 0
	for _, r := range n.routers {
		if r.inOcc.any() || r.outOcc.any() {
			c++
		}
	}
	return c
}

// TelemetryView exposes the network's telemetry probe counters: Occ is
// the flits currently resident in each router's buffers, Inj/Ej the
// cumulative flits injected by / ejected at each node since
// construction (or Reset), and Link the cumulative flit traversals per
// channel ID. The slices alias live network state — read them only
// between Step calls (e.g. from a ticker phase) and never mutate or
// retain them across a Reset. All four are maintained incrementally by
// every engine, so reading them costs nothing beyond the loads.
type TelemetryView struct {
	Occ  []int32
	Inj  []uint64
	Ej   []uint64
	Link []uint64
}

// Telemetry returns the live probe counters; see TelemetryView.
func (n *Network) Telemetry() TelemetryView {
	return TelemetryView{Occ: n.telOcc, Inj: n.telInj, Ej: n.telEj, Link: n.linkFlits}
}

// OccupancySnapshot counts the flits currently buffered per node.
func (n *Network) OccupancySnapshot() []int {
	out := make([]int, len(n.routers))
	for i, r := range n.routers {
		out[i] = r.bufferedFlits()
	}
	return out
}

// congestionView adapts one router to the routing.CongestionView
// contract without importing the routing package (the noc package
// defines the method set structurally).
type congestionView struct {
	r   *router
	cap int
}

// OutputOccupancy returns the number of flits queued in the output
// queue for direction d, virtual channel vc, plus one if the queue is
// currently owned by an in-progress worm (it cannot accept a new head
// even when short). Missing directions report a full queue.
func (v congestionView) OutputOccupancy(d topology.Direction, vc int) int {
	op := v.r.outPortByDir(d)
	if op == nil || vc < 0 || vc >= len(op.vcs) {
		return v.cap + 1
	}
	q := &op.vcs[vc]
	occ := q.q.len()
	if q.owner >= 0 {
		occ++
	}
	return occ
}

// OutputFree reports whether a new head flit could be accepted into
// the output queue for direction d, vc right now.
func (v congestionView) OutputFree(d topology.Direction, vc int) bool {
	op := v.r.outPortByDir(d)
	if op == nil || vc < 0 || vc >= len(op.vcs) {
		return false
	}
	q := &op.vcs[vc]
	return q.owner < 0 && !q.q.full()
}

// LiveStateBytes reports the resident bytes of the network's live
// simulation state: the packet arena (records and the free stack),
// every router's buffered flit handles and per-slot
// bookkeeping (masks, switching entries), and the NI source queues. It
// counts live lengths, not backing capacities, so the figure is a
// deterministic function of the scenario — independent of allocator
// growth policy and Go version — and the perf gate tracks it per router
// as live-bytes/router: the memory-compactness counterpart of the
// visits/cycle work counter, pinning the footprint win of the
// handle-based arena layout against regressions.
func (n *Network) LiveStateBytes() uint64 {
	const (
		handleBytes = 8 // flitH
		indexBytes  = 4 // int32 arena index
	)
	b := n.arena.bytes()
	for _, r := range n.routers {
		b += uint64(r.bufferedFlits()) * handleBytes
		for i := range r.in {
			// Per-VC switching entries (flag + port pointer + VC, padded).
			b += uint64(len(r.in[i].route)) * 24
		}
		b += uint64(len(r.inOcc)+len(r.ejOcc)+len(r.outOcc)) * 8
	}
	for _, s := range n.nis {
		b += s.queue.bytes(indexBytes)
	}
	return b
}
