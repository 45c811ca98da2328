package noc

import (
	"fmt"
	"math/bits"
	"sort"

	"gonoc/internal/routing"
	"gonoc/internal/stats"
	"gonoc/internal/topology"
)

// Network is a complete cycle-accurate NoC: a router per node, a
// network interface per node, and the wiring given by the topology and
// routing algorithm. Drive it by calling Inject for each generated
// packet and Step once per clock cycle.
type Network struct {
	topo topology.Topology
	alg  routing.Algorithm
	cfg  Config
	col  *stats.Collector

	routers []*router
	nis     []*ni

	// arena holds every packet record (struct-of-arrays, see arena.go);
	// router buffers and NI queues reference it through packed flit
	// handles and packet indices. vcs caches alg.VCs(); stride is the
	// power-of-two spacing of ports within the slot-occupancy masks (≥ the
	// VC count).
	arena  packetArena
	vcs    int
	stride int

	// slotOf[s] splits the logical input slot s of the ejection
	// rotation into its port (s / vcs) and VC (s % vcs).
	slotOf []slotRef

	cycle        uint64
	nextPktID    uint64
	created      uint64
	ejected      uint64
	injected     uint64
	lastActivity uint64
	moved        bool // any flit progress in the current cycle

	// engine selects the Step implementation (see active.go and
	// parallel.go); the activity-driven worklists belong to
	// EngineActive (the parallel engine keeps one worklists set per
	// shard instead). The per-slot occupancy masks live on each router.
	engine   Engine
	wl       worklists // EngineActive's global phase worklists
	visits   uint64    // per-phase router/source worklist visits
	skipped  uint64    // cycles fast-forwarded by SkipTo
	barriers uint64    // parallel-engine worker barriers crossed
	specs    uint64    // cross-shard flits delivered speculatively on credit
	cdefers  uint64    // zero-credit link decisions synchronized in-pass

	// Domain decomposition state of EngineParallel (parallel.go):
	// shards own contiguous router ranges (shardOf is the inverse
	// table), pr is the running worker group, shardCount the configured
	// width.
	shards     []parShard
	shardOf    []int32
	shardCount int
	pr         *parRun
	// modTab[d] == cycle % d for every registered round-robin divisor
	// d (modDivs), maintained by increment instead of division.
	modDivs []int
	modTab  []uint32

	// recycled counts packet records returned to the arena's free
	// stack: every fully ejected packet's record goes back (after its
	// statistics are recorded) and Inject leases from it, so the
	// steady state of a run — and of every following run after Reset —
	// creates packets without touching the allocator. CheckConservation
	// proves recycled == ejected (no leak) and that no free record is
	// still referenced by a live handle (no double-free).
	recycled uint64

	// linkFlits counts flit traversals per channel ID.
	linkFlits []uint64
	// Telemetry probe counters, maintained by every engine exactly where
	// flits move (so they cost one array increment, never an allocation):
	// telOcc is the number of flits resident in each router's buffers,
	// telInj/telEj the cumulative flits injected by / ejected at each
	// node. Under EngineParallel each element is written only by the
	// shard owning its node (or in the serial sections), so the probes
	// stay race-clean. telemetry.Recorder samples them through
	// Telemetry() once per cycle.
	telOcc []int32
	telInj []uint64
	telEj  []uint64
	// consScratch and poolScratch are the reusable scratch bitmaps of
	// CheckConservation, one bit per arena record: campaign replications
	// re-verify one network per run, so the bitmaps live here (cleared
	// per check) instead of being reallocated every call.
	consScratch []uint64
	poolScratch []uint64
	// invIn/invEj/invOut are the reusable scratch masks of the worklist
	// invariant check (checkActiveInvariants rebuilds each router's
	// occupancy from the buffers into these instead of allocating).
	invIn, invEj, invOut slotMask
	// adaptive is non-nil when the algorithm supports congestion-aware
	// choice.
	adaptive routing.Adaptive
}

// slotRef names one input slot of a router: port index and VC.
type slotRef struct{ port, vc uint16 }

// ni is the per-node network interface: the IP-memory source queue, the
// current outgoing worm's switching state, and packet-reassembly
// accounting for the sink side. Queued packets are arena indices;
// sending is -1 when no packet is mid-injection.
type ni struct {
	node    int
	queue   fifo[int32] // IP memory, FIFO, by arena index
	sending int32       // packet currently being injected flit by flit
	nextSeq int         // next flit index of sending
	route   routeEntry  // output assignment of sending's worm
	vc      int         // routing VC state of sending's head path start
}

// NewNetwork builds a network over t using algorithm a, buffer/interface
// geometry cfg and collector col (which must be non-nil; use a
// collector with warm-up 0 to measure everything).
func NewNetwork(t topology.Topology, a routing.Algorithm, cfg Config, col *stats.Collector) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if col == nil {
		return nil, fmt.Errorf("noc: nil collector")
	}
	if a.VCs() < 1 {
		return nil, fmt.Errorf("noc: algorithm %s declares %d VCs", a.Name(), a.VCs())
	}
	if a.VCs() > MaxVCs {
		return nil, fmt.Errorf("noc: algorithm %s declares %d VCs, handle limit is %d", a.Name(), a.VCs(), MaxVCs)
	}
	if cfg.PacketLen > MaxPacketLen {
		return nil, fmt.Errorf("noc: packet length %d exceeds handle limit %d", cfg.PacketLen, MaxPacketLen)
	}
	n := &Network{topo: t, alg: a, cfg: cfg, col: col, vcs: a.VCs()}
	n.arena.pktLen = cfg.PacketLen
	// Ports are spaced at the next power of two ≥ the VC count inside
	// the slot masks, so no port's bits straddle a mask word.
	n.stride = 1 << bits.Len(uint(n.vcs-1))
	n.linkFlits = make([]uint64, len(t.Channels()))
	n.telOcc = make([]int32, t.Nodes())
	n.telInj = make([]uint64, t.Nodes())
	n.telEj = make([]uint64, t.Nodes())
	if aa, ok := a.(routing.Adaptive); ok {
		n.adaptive = aa
	}
	nis := make([]ni, t.Nodes())
	for v := 0; v < t.Nodes(); v++ {
		n.routers = append(n.routers, newRouter(v, t, n.vcs, n.stride, cfg.InBufCap, cfg.OutBufCap))
		nis[v].node = v
		nis[v].sending = -1
		n.nis = append(n.nis, &nis[v])
	}
	n.wl = newWorklists(t.Nodes())
	// Resolve each output channel's downstream port once, and register
	// the round-robin divisors (per-router slot and port counts) with
	// the incremental modulo table the active engine derives its
	// rotation pointers from.
	seen := make(map[int]bool)
	addDiv := func(d int) {
		if d > 0 && !seen[d] {
			seen[d] = true
			n.modDivs = append(n.modDivs, d)
		}
	}
	addDiv(n.vcs)
	for _, r := range n.routers {
		for i := range r.out {
			op := &r.out[i]
			op.peerRouter = n.routers[op.ch.Dst]
			op.peer = op.peerRouter.inPortByChannel(op.ch.ID)
			if op.peer == nil {
				return nil, fmt.Errorf("noc: channel %d has no input port at node %d", op.ch.ID, op.ch.Dst)
			}
		}
		addDiv(len(r.in))
		addDiv(len(r.in) * n.vcs)
	}
	sort.Ints(n.modDivs)
	maxSlots := n.modDivs[len(n.modDivs)-1]
	n.modTab = make([]uint32, maxSlots+1)
	n.slotOf = make([]slotRef, maxSlots)
	for s := range n.slotOf {
		n.slotOf[s] = slotRef{port: uint16(s / n.vcs), vc: uint16(s % n.vcs)}
	}
	return n, nil
}

// Topology returns the network's interconnect graph.
func (n *Network) Topology() topology.Topology { return n.topo }

// Algorithm returns the routing algorithm in use.
func (n *Network) Algorithm() routing.Algorithm { return n.alg }

// Config returns the buffer/interface geometry.
func (n *Network) Config() Config { return n.cfg }

// Cycle returns the number of completed cycles.
func (n *Network) Cycle() uint64 { return n.cycle }

// Collector returns the attached statistics collector.
func (n *Network) Collector() *stats.Collector { return n.col }

// Inject creates a packet from src to dst in src's IP memory at the
// current cycle. It returns an error for invalid endpoints, and
// ErrSourceQueueFull when a bounded source queue is at capacity.
func (n *Network) Inject(src, dst int) error {
	if src < 0 || src >= n.topo.Nodes() || dst < 0 || dst >= n.topo.Nodes() {
		return fmt.Errorf("noc: inject %d->%d out of range", src, dst)
	}
	if src == dst {
		return fmt.Errorf("noc: inject with src == dst == %d", src)
	}
	q := n.nis[src]
	if n.cfg.SourceQueueCap > 0 && q.queue.len() >= n.cfg.SourceQueueCap {
		return ErrSourceQueueFull
	}
	pi := n.leasePacket(src, dst)
	n.nextPktID++
	n.created++
	q.queue.push(pi)
	n.markSource(src)
	return nil
}

// leasePacket draws a record from the arena's free stack, falling back
// to arena growth while the stack warms up, and initializes it for the
// new packet.
func (n *Network) leasePacket(src, dst int) int32 {
	a := &n.arena
	var pi int32
	if k := len(a.freeStack); k > 0 {
		pi = a.freeStack[k-1]
		a.freeStack = a.freeStack[:k-1]
		a.free[pi] = false
		a.injected[pi] = 0
		a.hops[pi] = 0
		a.recv[pi] = 0
	} else {
		pi = a.grow()
	}
	a.id[pi] = n.nextPktID
	a.src[pi], a.dst[pi] = int32(src), int32(dst)
	a.created[pi] = n.cycle
	return pi
}

// recyclePacket returns a fully consumed packet's record to the free
// stack. It runs at tail ejection, after statistics. A second recycle
// of the same lease is always an accounting bug and panics rather than
// corrupting the arena.
func (n *Network) recyclePacket(pi int32) {
	a := &n.arena
	if a.free[pi] {
		panic(fmt.Sprintf("noc: double recycle of %s", n.pktString(pi)))
	}
	a.free[pi] = true
	n.recycled++
	a.freeStack = append(a.freeStack, pi)
}

// PoolSize returns the number of packet records currently resident on
// the arena's free stack.
func (n *Network) PoolSize() int { return len(n.arena.freeStack) }

// ErrSourceQueueFull reports an Inject refused by a bounded source queue.
var ErrSourceQueueFull = fmt.Errorf("noc: source queue full")

// nextHop returns the output port and VC the routing algorithm assigns
// packet pi's head at router r, arriving on vc (0 at the source),
// consulting local congestion when the algorithm is adaptive.
func (n *Network) nextHop(r *router, pi int32, vc int) (*outPort, int) {
	dst := int(n.arena.dst[pi])
	var d routing.Decision
	if n.adaptive != nil {
		d = n.adaptive.Choose(r.node, dst, vc, congestionView{r: r, cap: n.cfg.OutBufCap})
	} else {
		d = n.alg.Route(r.node, dst, vc)
	}
	op := r.outPortByDir(d.Dir)
	if op == nil {
		panic(fmt.Sprintf("noc: %s chose missing direction %v at node %d for %s",
			n.alg.Name(), d.Dir, r.node, n.pktString(pi)))
	}
	return op, d.VC
}

// canAdmit reports whether a new packet's head may be admitted to the
// output queue: wormhole needs one free slot; cut-through and
// store-and-forward reserve space for the whole packet, so a blocked
// packet never straddles routers.
func (n *Network) canAdmit(q *outVC) bool {
	if q.owner >= 0 {
		return false
	}
	if n.cfg.Switching == Wormhole {
		return !q.q.full()
	}
	return n.cfg.OutBufCap-q.q.len() >= n.cfg.PacketLen
}

// canDepart reports whether the flit at the head of the output queue
// may traverse the link. Store-and-forward additionally requires the
// packet's tail flit to be resident in the same queue.
func (n *Network) canDepart(q *outVC) bool {
	if n.cfg.Switching != StoreAndForward {
		return true
	}
	head := q.q.head()
	tail := n.cfg.PacketLen - 1
	if head.seq() == tail {
		return true
	}
	hp := head.pkt()
	for i := 1; i < q.q.len(); i++ {
		if h := q.q.at(i); h.pkt() == hp && h.seq() == tail {
			return true
		}
	}
	return false
}

// Step advances the network one clock cycle. The four phases — sink
// ejection, switch traversal, source injection, link traversal — each
// move a flit at most one stage, and the stage stamp of the buffer
// holding it (ring.advanced) prevents a flit from advancing through two
// stages in one cycle. The default engine visits only active routers
// and sources (active.go); the parallel engine (parallel.go) executes
// the same per-node stages shard-parallel with deterministic barriers
// and produces bit-identical results.
func (n *Network) Step() {
	if n.engine == EngineParallel {
		n.stepParallel()
		return
	}
	n.stepActive()
}

// StepN advances the network k cycles.
func (n *Network) StepN(k int) {
	for i := 0; i < k; i++ {
		n.Step()
	}
}

// CreatedPackets returns the number of packets created by Inject.
func (n *Network) CreatedPackets() uint64 { return n.created }

// EjectedPackets returns the number of packets fully consumed at sinks.
func (n *Network) EjectedPackets() uint64 { return n.ejected }

// InjectedPackets returns the number of packets whose head flit entered
// the network.
func (n *Network) InjectedPackets() uint64 { return n.injected }

// QueuedPackets returns the number of packets waiting in IP source
// queues (including each NI's partially injected packet).
func (n *Network) QueuedPackets() int {
	q := 0
	for _, s := range n.nis {
		q += s.queue.len()
		if s.sending >= 0 {
			q++
		}
	}
	return q
}

// InFlightFlits returns the number of flits resident in router buffers.
func (n *Network) InFlightFlits() int {
	f := 0
	for _, r := range n.routers {
		f += r.bufferedFlits()
	}
	return f
}

// IdleCycles returns how many cycles have elapsed since any flit moved.
// With traffic pending, a large value indicates deadlock (the tests'
// watchdog asserts this never happens for the paper's configurations).
func (n *Network) IdleCycles() uint64 {
	if n.cycle == 0 {
		return 0
	}
	return n.cycle - 1 - n.lastActivity
}

// CheckConservation verifies no flit was lost or duplicated: every
// created packet is queued, in flight, or fully ejected, and in-flight
// flit counts match packet bookkeeping. Under the active engine it
// additionally proves the worklist bookkeeping: every buffered flit and
// pending packet is reachable from its phase's active set (a flit off
// its worklist would be stranded forever). The arena invariants are
// proven alongside: every buffered handle is valid (packet index in
// range, seq within the packet, VC within the algorithm's range), no
// live handle references a free record, and the free stack holds
// distinct free-marked records that tile the arena exactly with the
// live population (arena == free + created − ejected). It returns nil
// when consistent.
func (n *Network) CheckConservation() error {
	// Structural handle validity comes first: every later check (the
	// worklist invariant rebuild in particular) dereferences arena
	// fields through buffered handles, so a corrupt word must surface
	// as a diagnostic here rather than an out-of-range panic there.
	if err := n.checkHandles(); err != nil {
		return err
	}
	if err := n.checkActiveInvariants(); err != nil {
		return err
	}
	a := &n.arena
	inFlight := uint64(0)
	for _, s := range n.nis {
		if s.sending >= 0 {
			inFlight++ // partially injected packet
		}
	}
	// Count distinct packets with flits in buffers that are fully
	// injected but not ejected. Walk buffers and collect into the
	// network-owned scratch bitmap over arena indices (conservation runs
	// once per replication; reusing it keeps the check allocation-free
	// on a warm workspace).
	words := (a.len() + 63) / 64
	if cap(n.consScratch) < words {
		n.consScratch = make([]uint64, words)
	}
	n.consScratch = n.consScratch[:words]
	for i := range n.consScratch {
		n.consScratch[i] = 0
	}
	seen := n.consScratch
	distinct := uint64(0)
	vcs := n.vcs
	note := func(h flitH) error {
		pi := h.pkt()
		if pi < 0 || int(pi) >= a.len() || h.seq() >= a.pktLen || h.vc() >= vcs {
			return fmt.Errorf("noc: invalid flit handle %#x buffered (arena %d records, packet len %d, %d VCs)",
				uint64(h), a.len(), a.pktLen, vcs)
		}
		if a.free[pi] {
			return fmt.Errorf("noc: pooled packet %s still buffered (double free)", n.pktString(pi))
		}
		if w, b := pi>>6, uint(pi)&63; seen[w]&(1<<b) == 0 {
			seen[w] |= 1 << b
			distinct++
		}
		return nil
	}
	for _, r := range n.routers {
		if err := r.eachFlit(note); err != nil {
			return err
		}
		// The telemetry occupancy probe is maintained incrementally by
		// every engine; prove it against the buffer ground truth so a
		// missed increment cannot silently skew captures.
		if got, want := n.telOcc[r.node], int32(r.bufferedFlits()); got != want {
			return fmt.Errorf("noc: node %d telemetry occupancy %d disagrees with buffered flits %d", r.node, got, want)
		}
	}
	queued := uint64(0)
	for _, s := range n.nis {
		queued += uint64(s.queue.len())
		for _, pi := range s.queue.live() {
			if a.free[pi] {
				return fmt.Errorf("noc: pooled packet %s still queued at source %d (double free)", n.pktString(pi), s.node)
			}
		}
		if s.sending >= 0 {
			if a.free[s.sending] {
				return fmt.Errorf("noc: pooled packet %s mid-injection at source %d (double free)", n.pktString(s.sending), s.node)
			}
			// Counted as sending already; drop its buffered-flit mark.
			if w, b := s.sending>>6, uint(s.sending)&63; seen[w]&(1<<b) != 0 {
				seen[w] &^= 1 << b
				distinct--
			}
		}
	}
	netResident := distinct + inFlight
	total := queued + netResident + n.ejected
	if total < n.created {
		return fmt.Errorf("noc: conservation violated: created %d, accounted %d (queued %d, resident %d, ejected %d)",
			n.created, total, queued, netResident, n.ejected)
	}
	// Packets partially ejected still have flits in the network and are
	// counted in netResident, so the total can exceed created only if a
	// packet is double-counted — which the sets above preclude; an
	// overshoot therefore also indicates a bug.
	if total > n.created {
		return fmt.Errorf("noc: conservation violated (overcount): created %d, accounted %d", n.created, total)
	}
	return n.checkPool()
}

// checkHandles walks every router buffer validating that each stored
// handle names a packet inside the arena, a sequence inside the packet
// and a VC inside the algorithm's range.
func (n *Network) checkHandles() error {
	a := &n.arena
	vcs := n.vcs
	valid := func(h flitH) error {
		if pi := h.pkt(); pi < 0 || int(pi) >= a.len() || h.seq() >= a.pktLen || h.vc() >= vcs {
			return fmt.Errorf("noc: invalid flit handle %#x buffered (arena %d records, packet len %d, %d VCs)",
				uint64(h), a.len(), a.pktLen, vcs)
		}
		return nil
	}
	for _, r := range n.routers {
		if err := r.eachFlit(valid); err != nil {
			return err
		}
	}
	return nil
}

// checkPool proves the arena's freelist accounting: recycles mirror
// ejections one for one, the free stack holds exactly the
// recycled-minus-released records — each index in range, distinct and
// marked free (the buffer and queue walks in CheckConservation already
// rejected any free record still live) — and the free stack plus the
// live lease population tile the arena record range exactly.
func (n *Network) checkPool() error {
	a := &n.arena
	if n.recycled != n.ejected {
		return fmt.Errorf("noc: pool leak: %d packets ejected but %d recycled", n.ejected, n.recycled)
	}
	words := (a.len() + 63) / 64
	if cap(n.poolScratch) < words {
		n.poolScratch = make([]uint64, words)
	}
	n.poolScratch = n.poolScratch[:words]
	for i := range n.poolScratch {
		n.poolScratch[i] = 0
	}
	distinct := n.poolScratch
	for _, pi := range a.freeStack {
		switch {
		case pi < 0 || int(pi) >= a.len():
			return fmt.Errorf("noc: free-stack index %d outside the arena (%d records)", pi, a.len())
		case !a.free[pi]:
			return fmt.Errorf("noc: free stack holds leased packet %s (missing free mark)", n.pktString(pi))
		case distinct[pi>>6]&(1<<(uint(pi)&63)) != 0:
			return fmt.Errorf("noc: packet %s pooled twice (double free)", n.pktString(pi))
		}
		distinct[pi>>6] |= 1 << (uint(pi) & 63)
	}
	if live := n.created - n.ejected; uint64(a.len()) != uint64(len(a.freeStack))+live {
		return fmt.Errorf("noc: arena partition violated: %d records != %d free + %d live leases",
			a.len(), len(a.freeStack), live)
	}
	return nil
}

// Reset returns the network to its just-constructed state — empty
// buffers and queues with cleared stage stamps, zeroed counters and
// round-robin pointers — while keeping every allocated structure: the
// routers, their slot blocks, and above all the packet arena, to which
// all in-flight and queued packets' records are reclaimed first. A reset network therefore runs the next scenario
// bit for bit like a freshly built one but with a warm freelist, which
// is what lets a campaign reuse one network across replications instead
// of rebuilding it per run. The engine selection is preserved.
func (n *Network) Reset() {
	for _, r := range n.routers {
		_ = r.eachFlit(func(h flitH) error {
			n.reclaim(h.pkt())
			return nil
		})
		for i := range r.in {
			p := &r.in[i]
			for vc := range p.bufs {
				p.bufs[vc].reset()
				p.route[vc] = routeEntry{}
			}
			p.rrVC = 0
		}
		for i := range r.out {
			op := &r.out[i]
			for vc := range op.vcs {
				op.vcs[vc].q.reset()
				op.vcs[vc].owner = -1
			}
		}
		r.inOcc.zero()
		r.ejOcc.zero()
		r.outOcc.zero()
	}
	for _, s := range n.nis {
		for _, pi := range s.queue.live() {
			n.reclaim(pi)
		}
		s.queue.reset()
		if s.sending >= 0 {
			n.reclaim(s.sending)
			s.sending = -1
		}
		s.nextSeq, s.vc = 0, 0
		s.route = routeEntry{}
	}
	for i := range n.linkFlits {
		n.linkFlits[i] = 0
	}
	for i := range n.telOcc {
		n.telOcc[i] = 0
		n.telInj[i] = 0
		n.telEj[i] = 0
	}
	n.cycle, n.nextPktID = 0, 0
	n.created, n.ejected, n.injected, n.recycled = 0, 0, 0, 0
	n.lastActivity, n.moved = 0, false
	n.visits, n.skipped = 0, 0
	n.barriers, n.specs, n.cdefers = 0, 0, 0
	n.wl.clear()
	n.resetShards()
	n.rebuildModTab()
}

// reclaim returns a still-live packet record to the free stack during
// Reset. A worm spread across several buffers reaches reclaim once per
// flit; the free mark deduplicates.
func (n *Network) reclaim(pi int32) {
	a := &n.arena
	if a.free[pi] {
		return
	}
	a.free[pi] = true
	a.freeStack = append(a.freeStack, pi)
}

// flitString renders handle h with its packet, sequence number, role
// (head, body, tail, or head+tail for a 1-flit packet) and VC tag, for
// panics and conservation errors (cold paths only).
func (n *Network) flitString(h flitH) string {
	role := "body"
	switch head, tail := h.seq() == 0, h.seq() == n.arena.pktLen-1; {
	case head && tail:
		role = "head+tail"
	case head:
		role = "head"
	case tail:
		role = "tail"
	}
	return fmt.Sprintf("%s flit %d (%s) vc%d", n.pktString(h.pkt()), h.seq(), role, h.vc())
}

// Drain runs the network without new injections until all traffic is
// delivered or maxCycles elapse; it returns an error in the latter case
// or if conservation fails. Useful in tests: a network that cannot
// drain is deadlocked.
func (n *Network) Drain(maxCycles int) error {
	for i := 0; i < maxCycles; i++ {
		if n.QueuedPackets() == 0 && n.InFlightFlits() == 0 {
			return n.CheckConservation()
		}
		n.Step()
	}
	if n.QueuedPackets() == 0 && n.InFlightFlits() == 0 {
		return n.CheckConservation()
	}
	return fmt.Errorf("noc: failed to drain after %d cycles: %d queued packets, %d in-flight flits",
		maxCycles, n.QueuedPackets(), n.InFlightFlits())
}
