package traffic

import (
	"fmt"

	"gonoc/internal/noc"
	"gonoc/internal/sim"
	"gonoc/internal/stats"
)

// This file models "specific traffic patterns originated by common
// applications" — the extension the paper's future-work section calls
// for. Two SoC-typical workloads are provided: closed-loop
// master/slave (request-reply, the shape of CPU-to-memory-controller
// traffic that motivates the hot-spot scenarios) and on/off bursty
// streaming (the shape of DMA and media pipelines).

// RequestReply drives closed-loop master/slave traffic: each master
// generates Poisson requests to a uniformly chosen slave; when a
// request is delivered, the slave immediately enqueues a reply to the
// requesting master. Round-trip latency (request creation to reply
// ejection) is recorded per transaction.
//
// The generator owns the network's OnEject callback; do not install
// another one while it is active.
type RequestReply struct {
	kernel  *sim.Kernel
	net     *noc.Network
	masters []int
	slaves  []int
	rate    float64
	rngs    []*sim.RNG // per-master streams, indexed by node
	next    []sim.Time // pre-drawn next-request horizon per master node

	isSlave   map[int]bool
	isMaster  map[int]bool
	pending   map[uint64]uint64 // reply packet ID -> request creation cycle
	roundTrip stats.Summary
	requests  uint64
	replies   uint64
	started   bool
}

// NewRequestReply builds the generator. Masters and slaves must be
// disjoint, non-empty node sets; rate is requests/cycle per master.
func NewRequestReply(k *sim.Kernel, net *noc.Network, masters, slaves []int, rate float64, seed uint64) (*RequestReply, error) {
	if len(masters) == 0 || len(slaves) == 0 {
		return nil, fmt.Errorf("traffic: request-reply needs masters and slaves")
	}
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: request-reply rate %v <= 0", rate)
	}
	n := net.Topology().Nodes()
	rr := &RequestReply{
		kernel:   k,
		net:      net,
		masters:  masters,
		slaves:   slaves,
		rate:     rate,
		rngs:     make([]*sim.RNG, n),
		next:     make([]sim.Time, n),
		isSlave:  make(map[int]bool),
		isMaster: make(map[int]bool),
		pending:  make(map[uint64]uint64),
	}
	for _, s := range slaves {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("traffic: slave %d out of range", s)
		}
		rr.isSlave[s] = true
	}
	master := sim.NewRNG(seed)
	for _, m := range masters {
		if m < 0 || m >= n {
			return nil, fmt.Errorf("traffic: master %d out of range", m)
		}
		if rr.isSlave[m] {
			return nil, fmt.Errorf("traffic: node %d is both master and slave", m)
		}
		rr.isMaster[m] = true
		rr.rngs[m] = master.Split()
	}
	return rr, nil
}

// Start installs the reply hook and schedules the first request of
// every master.
func (rr *RequestReply) Start() {
	if rr.started {
		panic("traffic: request-reply started twice")
	}
	rr.started = true
	rr.net.OnEject(rr.onEject)
	now := rr.kernel.Now()
	for _, m := range rr.masters {
		rr.next[m] = now + sim.Time(rr.rngs[m].Exp(rr.rate))
		rr.kernel.ScheduleEvent(rr.next[m], 0, rr, m)
	}
}

// Fire implements sim.Handler on the masters' request streams: like
// Generator, it emits the due request plus every follow-up landing in
// the same cycle from one pooled kernel event (replies ride the
// ejection callback inside ticks and need no events of their own).
func (rr *RequestReply) Fire(master int) {
	r := rr.rngs[master]
	t := rr.next[master]
	cycle := arrivalCycle(t)
	for {
		rr.sendRequest(master, r)
		t += sim.Time(r.Exp(rr.rate))
		if arrivalCycle(t) != cycle {
			break
		}
	}
	rr.next[master] = t
	rr.kernel.ScheduleEvent(t, 0, rr, master)
}

func (rr *RequestReply) sendRequest(master int, r *sim.RNG) {
	slave := rr.slaves[0]
	if len(rr.slaves) > 1 {
		slave = rr.slaves[r.Intn(len(rr.slaves))]
	}
	if _, err := rr.net.InjectPacket(master, slave); err == nil {
		rr.requests++
	}
}

// onEject reacts to deliveries: requests arriving at a slave trigger a
// reply; replies arriving at a master complete a transaction.
func (rr *RequestReply) onEject(p *noc.Packet) {
	switch {
	case rr.isSlave[p.Dst] && rr.isMaster[p.Src]:
		reply, err := rr.net.InjectPacket(p.Dst, p.Src)
		if err != nil {
			return
		}
		rr.replies++
		rr.pending[reply.ID] = p.CreatedCycle
	case rr.isMaster[p.Dst]:
		if created, ok := rr.pending[p.ID]; ok {
			delete(rr.pending, p.ID)
			rr.roundTrip.Add(float64(rr.net.Cycle() - created))
		}
	}
}

// Requests returns the number of requests generated.
func (rr *RequestReply) Requests() uint64 { return rr.requests }

// Replies returns the number of replies generated.
func (rr *RequestReply) Replies() uint64 { return rr.replies }

// CompletedTransactions returns the number of measured round trips.
func (rr *RequestReply) CompletedTransactions() uint64 { return rr.roundTrip.Count() }

// RoundTrip returns the round-trip latency summary (cycles).
func (rr *RequestReply) RoundTrip() *stats.Summary { return &rr.roundTrip }

// OnOff is a two-state Markov-modulated source: in the ON state it
// emits packets as a Poisson process with PeakRate; sojourn times in
// ON and OFF are exponential with the given means. Mean rate is
// PeakRate · OnMean/(OnMean+OffMean). Streaming and DMA traffic is
// bursty in exactly this way, which stresses buffers far more than a
// smooth Poisson flow of equal mean.
type OnOff struct {
	// PeakRate is packets/cycle while ON.
	PeakRate float64
	// OnMean and OffMean are the mean sojourn times in cycles.
	OnMean, OffMean float64
}

// MeanRate returns the long-run packet rate of the source.
func (o OnOff) MeanRate() float64 {
	return o.PeakRate * o.OnMean / (o.OnMean + o.OffMean)
}

// Validate reports the first invalid parameter.
func (o OnOff) Validate() error {
	if o.PeakRate <= 0 || o.OnMean <= 0 || o.OffMean < 0 {
		return fmt.Errorf("traffic: invalid on/off parameters %+v", o)
	}
	return nil
}

// OnOffGenerator drives every source node of a pattern with an
// independent OnOff process. Like Generator, it is closure-free (one
// pooled kernel event per source) and batches same-cycle arrivals
// within a burst.
type OnOffGenerator struct {
	kernel  *sim.Kernel
	net     *noc.Network
	pattern Pattern
	shape   OnOff
	rngs    []*sim.RNG
	state   []onOffState
	offered uint64
	started bool
}

// onOffState is one source's Markov state: whether the node is inside a
// burst, when the burst ends, and the pre-drawn next arrival time.
type onOffState struct {
	on   bool
	end  sim.Time // burst end (valid while on)
	next sim.Time // next arrival time (valid while on)
}

// NewOnOffGenerator builds the generator over net for the pattern's
// sources.
func NewOnOffGenerator(k *sim.Kernel, net *noc.Network, p Pattern, shape OnOff, seed uint64) (*OnOffGenerator, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	n := net.Topology().Nodes()
	g := &OnOffGenerator{kernel: k, net: net, pattern: p, shape: shape,
		rngs: make([]*sim.RNG, n), state: make([]onOffState, n)}
	master := sim.NewRNG(seed)
	for i := 0; i < n; i++ {
		g.rngs[i] = master.Split()
	}
	return g, nil
}

// OfferedPackets returns the packets generated so far.
func (g *OnOffGenerator) OfferedPackets() uint64 { return g.offered }

// Start schedules the burst processes. Sources begin in the OFF state.
func (g *OnOffGenerator) Start() {
	if g.started {
		panic("traffic: on/off generator started twice")
	}
	g.started = true
	for node := range g.rngs {
		if _, ok := g.pattern.Destination(node, g.rngs[node].Split()); !ok {
			continue
		}
		// Wait out an OFF sojourn; the event fires at burst start.
		off := sim.Time(g.rngs[node].Exp(1 / g.shape.OffMean))
		g.kernel.ScheduleEvent(g.kernel.Now()+off, 0, g, node)
	}
}

// Fire implements sim.Handler: an event for an OFF node opens a burst
// (drawing its duration and first arrival); an event for an ON node
// emits the due arrival plus every same-cycle follow-up, transitioning
// back to OFF when the pre-drawn burst end is crossed. All scheduling
// uses the arrival's own absolute time, so batched emission keeps the
// exact event times of a one-event-per-arrival chain.
func (g *OnOffGenerator) Fire(node int) {
	r := g.rngs[node]
	st := &g.state[node]
	if !st.on {
		st.on = true
		st.end = g.kernel.Now() + sim.Time(r.Exp(1/g.shape.OnMean))
		st.next = g.kernel.Now() + sim.Time(r.Exp(g.shape.PeakRate))
		g.kernel.ScheduleEvent(st.next, 0, g, node)
		return
	}
	t := st.next
	cycle := arrivalCycle(t)
	for {
		if t >= st.end {
			// Burst over: enter OFF, waking again at burst start.
			st.on = false
			off := sim.Time(r.Exp(1 / g.shape.OffMean))
			g.kernel.ScheduleEvent(t+off, 0, g, node)
			return
		}
		if dst, ok := g.pattern.Destination(node, r); ok && dst != node {
			g.offered++
			_ = g.net.Inject(node, dst)
		}
		t += sim.Time(r.Exp(g.shape.PeakRate))
		if arrivalCycle(t) != cycle {
			break
		}
	}
	st.next = t
	g.kernel.ScheduleEvent(t, 0, g, node)
}
