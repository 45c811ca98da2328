package noc

import (
	"fmt"
	"math/bits"
)

// This file is the activity-driven simulation core: the default engine
// behind Network.Step. Instead of sweeping every router × port × VC in
// all four phases each cycle, each phase drains an incremental worklist
// at two granularities: bitmap active sets over nodes select which
// routers/sources a phase visits at all, and per-router slot-occupancy
// masks (router.inOcc/ejOcc/outOcc, one bit per strided port × VC slot,
// see mask.go) select which slots a visit touches — both updated
// exactly where flits move, so a cycle's cost is proportional to
// in-flight work, not network size. Arbitration is a pure function of
// the buffers and the cycle counter: sets drain in ascending node
// order, and each per-router rotation (the ejection slots, the switch
// input ports, the link VCs) starts during cycle c at c mod d, d the
// rotation's length. No rotation pointer is stored, so skipping an idle
// router (or fast-forwarding whole idle cycles via SkipTo) cannot
// perturb arbitration. The golden tests hold every scenario class to
// digests frozen from the scan-everything engine this one replaced.

// Engine selects the implementation behind Network.Step.
type Engine int

const (
	// EngineActive is the activity-driven engine (the default): phases
	// visit only routers with buffered flits and sources with pending
	// packets.
	EngineActive Engine = iota
	// EngineParallel is the domain-decomposed engine (parallel.go): the
	// routers are split into contiguous shards and each pipeline phase
	// runs shard-parallel between deterministic barriers, producing
	// results bit-identical to EngineActive at every shard count.
	EngineParallel
)

// String returns the engine's conventional name.
func (e Engine) String() string {
	switch e {
	case EngineActive:
		return "active"
	case EngineParallel:
		return "parallel"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// activeSet is a fixed-capacity bitmap of node indices, drained in
// ascending order so worklist scheduling cannot reorder arbitration.
type activeSet struct {
	words []uint64
}

func newActiveSet(n int) activeSet {
	return activeSet{words: make([]uint64, (n+63)/64)}
}

func (s *activeSet) add(i int)    { s.words[i>>6] |= 1 << (uint(i) & 63) }
func (s *activeSet) remove(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

func (s *activeSet) has(i int) bool {
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (s *activeSet) clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// forEach visits the members in ascending order. fn may remove the
// member currently being visited and may add or remove members of
// *other* sets; inserting new members into this set mid-iteration is
// not supported (no phase needs it — each phase only retires its own
// worklist entries and feeds the worklists of later phases).
func (s *activeSet) forEach(fn func(i int)) {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			fn(base + b)
		}
	}
}

// worklists is one complete set of phase worklists: the ejection,
// switch, link and injection active sets. The active engine keeps a
// single network-wide set (Network.wl); the parallel engine keeps one
// per shard, each covering only the shard's contiguous router range, so
// two shards never write the same bitmap word concurrently.
type worklists struct {
	ej  activeSet // routers with a locally-destined input head
	sw  activeSet // routers with a transit input head
	out activeSet // routers with non-empty output queues
	ni  activeSet // sources with pending packets
}

func newWorklists(n int) worklists {
	return worklists{ej: newActiveSet(n), sw: newActiveSet(n), out: newActiveSet(n), ni: newActiveSet(n)}
}

func (w *worklists) clear() {
	w.ej.clear()
	w.sw.clear()
	w.out.clear()
	w.ni.clear()
}

// markSource enrolls src in the injection worklist that owns it: the
// shard's under the parallel engine, the network-wide one otherwise.
func (n *Network) markSource(src int) {
	if n.engine == EngineParallel {
		n.shards[n.shardOf[src]].wl.ni.add(src)
		return
	}
	n.wl.ni.add(src)
}

// --- worklist maintenance, called wherever the active and parallel
// engines move a flit, against the worklists that own the touched
// router (wl); SetEngine rebuilds all masks and sets.

// refreshInSets recomputes node's membership in the ejection and
// switch worklists from its input-slot masks: the ejection stage wants
// routers with a locally-destined head anywhere, the switch stage
// routers with a transit head (non-empty slot whose head travels on).
func (n *Network) refreshInSets(wl *worklists, node int, r *router) {
	if r.ejOcc.any() {
		wl.ej.add(node)
	} else {
		wl.ej.remove(node)
	}
	if r.inOcc.anyOutside(r.ejOcc) {
		wl.sw.add(node)
	} else {
		wl.sw.remove(node)
	}
}

// inPop removes the head of p's vc slot, re-deriving the slot's
// occupancy and head-locality bits from the newly exposed head.
func (n *Network) inPop(wl *worklists, node int, r *router, p *inPort, vc int) flitH {
	q := &p.bufs[vc]
	h := q.pop()
	n.telOcc[node]--
	bit := p.slotBase + vc
	switch {
	case q.empty():
		r.inOcc.clearBit(bit)
		r.ejOcc.clearBit(bit)
	case n.arena.dst[q.head().pkt()] == int32(r.node):
		r.ejOcc.set(bit)
	default:
		r.ejOcc.clearBit(bit)
	}
	n.refreshInSets(wl, node, r)
	return h
}

// inPush appends h to p's vc slot of the downstream router. Under
// EngineParallel it is called concurrently by the shard passes — for
// same-shard link deliveries and for the end-of-pass inbox drains —
// but always with node owned by the calling shard and wl that shard's
// own worklists, so every write (buffer, masks, telemetry counters,
// worklist bitmaps) has a single writer per cycle.
func (n *Network) inPush(wl *worklists, node int, r *router, p *inPort, vc int, h flitH) {
	q := &p.bufs[vc]
	wasEmpty := q.empty()
	q.push(h, n.cycle+1)
	n.telOcc[node]++
	bit := p.slotBase + vc
	r.inOcc.set(bit)
	if wasEmpty && n.arena.dst[h.pkt()] == int32(r.node) {
		r.ejOcc.set(bit)
	}
	n.refreshInSets(wl, node, r)
}

// outPush appends h to the output queue (op, vc) of node's router.
func (n *Network) outPush(wl *worklists, node int, r *router, op *outPort, vc int, h flitH) {
	op.vcs[vc].q.push(h, n.cycle+1)
	n.telOcc[node]++
	r.outOcc.set(op.slotBase + vc)
	wl.out.add(node)
}

// outPop removes the head of the output queue (op, vc), retiring the
// slot — and, when the router's last output drains, the router — from
// the link worklist.
func (n *Network) outPop(wl *worklists, node int, r *router, op *outPort, vc int) flitH {
	q := &op.vcs[vc].q
	h := q.pop()
	n.telOcc[node]--
	if q.empty() {
		r.outOcc.clearBit(op.slotBase + vc)
		if !r.outOcc.any() {
			wl.out.remove(node)
		}
	}
	return h
}

// stepActive advances one cycle visiting only active routers/sources.
func (n *Network) stepActive() {
	n.moved = false
	n.activeEject()
	n.activeSwitch()
	n.activeInject()
	n.activeLink()
	if n.moved {
		n.lastActivity = n.cycle
	}
	n.cycle++
	// Advance cycle % d for every registered round-robin divisor by
	// increment — cheaper than one division per visited router.
	for _, d := range n.modDivs {
		v := n.modTab[d] + 1
		if v == uint32(d) {
			v = 0
		}
		n.modTab[d] = v
	}
}

// activeEject consumes up to SinkRate flits per node at the routers
// holding locally-destined input heads. The paper's destination IP
// consumes flits in FIFO order through a single ejection port — the
// bottleneck of the hot-spot scenarios.
func (n *Network) activeEject() {
	n.wl.ej.forEach(func(node int) {
		n.visits++
		if n.ejectNode(&n.wl, node, nil) {
			n.moved = true
		}
	})
}

// ejectNode is the ejection stage of one router, touching only the
// slots whose bit is set in ejOcc. It serves the input slots
// round-robin over logical slot indices (port × VCs + vc, split into
// port and VC by the slotOf table), and the rotation pointer equals
// cycle mod slots. A fully ejected packet is completed on the spot —
// statistics, then recycle — or, when deferred is non-nil (the
// parallel engine), appended to it for the serial replay. It reports
// whether a flit moved.
func (n *Network) ejectNode(wl *worklists, node int, deferred *[]int32) bool {
	r := n.routers[node]
	a := &n.arena
	tail := a.pktLen - 1
	slots := len(r.in) * n.vcs
	if slots == 0 {
		return false
	}
	budget := n.cfg.SinkRate
	s := int(n.modTab[slots])
	for k := 0; k < slots && budget > 0; k++ {
		ref := n.slotOf[s]
		p, vc := &r.in[ref.port], int(ref.vc)
		if s++; s == slots {
			s = 0
		}
		if !r.ejOcc.test(p.slotBase + vc) {
			continue
		}
		for q := &p.bufs[vc]; budget > 0 && !q.empty() && a.dst[q.head().pkt()] == int32(node); {
			h := n.inPop(wl, node, r, p, vc)
			pi := h.pkt()
			n.telEj[node]++
			budget--
			a.recv[pi]++
			if h.seq() != tail {
				continue
			}
			if deferred != nil {
				*deferred = append(*deferred, pi)
			} else {
				n.completeEjection(pi)
			}
		}
	}
	return budget < n.cfg.SinkRate
}

// completeEjection accounts for a packet whose tail flit was consumed:
// statistics, then the arena recycle.
func (n *Network) completeEjection(pi int32) {
	a := &n.arena
	n.ejected++
	n.col.PacketEjected(n.cycle, a.created[pi], a.injected[pi], a.pktLen, int(a.hops[pi]))
	n.recyclePacket(pi)
}

// activeSwitch moves flits from input slots to output queues at the
// routers holding transit heads. Head flits run the routing function
// and must win the output queue (ownership + space); body flits follow
// their packet's switching entry.
func (n *Network) activeSwitch() {
	n.wl.sw.forEach(func(node int) {
		n.visits++
		if n.switchNode(&n.wl, node) {
			n.moved = true
		}
	})
}

// switchNode is the switch stage of one router: it visits the input
// ports in rotated order, the rotation pointer equal to cycle mod
// ports, and extracts each port's transit occupancy (inOcc minus the
// locally destined heads, which wait for the ejection stage) from the
// strided masks in one shift; ports with no transit head are skipped.
// It reports whether a flit moved.
func (n *Network) switchNode(wl *worklists, node int) bool {
	r := n.routers[node]
	vcs := n.vcs
	np := len(r.in)
	moved := false
	i := int(n.modTab[np])
	for k := 0; k < np; k++ {
		p := &r.in[i]
		if i++; i == np {
			i = 0
		}
		occ := r.inOcc.port(p.slotBase, vcs) &^ r.ejOcc.port(p.slotBase, vcs)
		if occ != 0 && n.switchPort(wl, r, p, occ, vcs) {
			moved = true
		}
	}
	return moved
}

// switchPort runs the per-port VC arbitration over the occupied transit
// slots of one input port (occ holds the port's VC occupancy in its low
// bits): the first movable flit in rrVC order wins the port's crossbar
// input for this cycle, and rrVC moves past it. It maintains the masks and
// the given worklists (the caller's shard worklists under the parallel
// engine), and reports whether a flit moved.
func (n *Network) switchPort(wl *worklists, r *router, p *inPort, occ uint64, vcs int) bool {
	inVC := p.rrVC
	for j := 0; j < vcs; j++ {
		vc := inVC
		if inVC++; inVC == vcs {
			inVC = 0
		}
		q := &p.bufs[vc]
		if occ&(1<<uint(vc)) == 0 || q.advanced(n.cycle+1) {
			continue // empty, ejecting, or already advanced this cycle
		}
		h := q.head()
		pi := h.pkt()
		entry := &p.route[vc]
		if h.seq() == 0 {
			// Heads route afresh on every attempt (adaptive algorithms
			// re-evaluate congestion) and commit switching state only
			// when the output queue is won.
			op, ovc := n.nextHop(r, pi, vc)
			if !n.canAdmit(&op.vcs[ovc]) {
				continue // allocation denied; retry next cycle
			}
			op.vcs[ovc].owner = pi
			*entry = routeEntry{active: true, port: op, vc: ovc}
		} else if !entry.active {
			panic(fmt.Sprintf("noc: body flit %s at node %d without switching state", n.flitString(h), r.node))
		}
		ovc := &entry.port.vcs[entry.vc]
		if ovc.owner != pi || ovc.q.full() {
			continue // space denied; retry next cycle
		}
		n.inPop(wl, r.node, r, p, vc)
		n.outPush(wl, r.node, r, entry.port, entry.vc, h.withVC(entry.vc))
		if h.seq() == n.arena.pktLen-1 {
			ovc.owner = -1
			entry.active = false
		}
		p.rrVC = inVC
		return true // one flit per input port per cycle
	}
	return false
}

// activeInject lets each source with pending packets push up to
// InjectRate flits of its current packet into the local router's output
// queues, opening the worm with a routing decision on the head flit.
func (n *Network) activeInject() {
	n.wl.ni.forEach(func(node int) {
		n.visits++
		if n.injectNode(&n.wl, node, nil) {
			n.moved = true
		}
	})
}

// injectNode is the injection stage of one source, retiring it from the
// worklist once its IP memory and in-progress worm drain. Collector
// events (packet acceptances, source-blocked cycles) are recorded on
// the spot or, when deferred is non-nil (the parallel engine), appended
// to it for the end-of-cycle replay. It reports whether a flit moved.
func (n *Network) injectNode(wl *worklists, node int, deferred *[]statRecord) bool {
	a := &n.arena
	q := n.nis[node]
	r := n.routers[node]
	note := func(st statRecord) {
		if deferred != nil {
			*deferred = append(*deferred, st)
		} else {
			n.recordInjection(st)
		}
	}
	budget := n.cfg.InjectRate
	for budget > 0 {
		if q.sending < 0 {
			if q.queue.len() == 0 {
				break
			}
			q.sending = q.queue.pop()
			q.nextSeq = 0
			q.vc = 0
			q.route = routeEntry{}
		}
		pi := q.sending
		if q.nextSeq == 0 && !q.route.active {
			op, vc := n.nextHop(r, pi, 0)
			if !n.canAdmit(&op.vcs[vc]) {
				note(statRecord{})
				break
			}
			op.vcs[vc].owner = pi
			q.route = routeEntry{active: true, port: op, vc: vc}
		}
		ovc := &q.route.port.vcs[q.route.vc]
		if ovc.q.full() {
			note(statRecord{})
			break
		}
		h := mkFlit(pi, q.nextSeq, q.route.vc)
		n.outPush(wl, node, r, q.route.port, q.route.vc, h)
		n.telInj[node]++
		q.nextSeq++
		budget--
		if h.seq() == 0 {
			a.injected[pi] = n.cycle
			note(statRecord{injected: true, flits: a.pktLen})
		}
		if h.seq() == a.pktLen-1 {
			ovc.owner = -1
			q.sending = -1
			q.route = routeEntry{}
		}
	}
	if q.sending < 0 && q.queue.len() == 0 {
		wl.ni.remove(node)
	}
	return budget < n.cfg.InjectRate
}

// recordInjection applies one injection-stage collector event.
func (n *Network) recordInjection(st statRecord) {
	if st.injected {
		n.injected++
		n.col.PacketInjected(n.cycle, st.flits)
	} else {
		n.col.SourceBlocked(n.cycle)
	}
}

// activeLink forwards one flit per physical link from the head of an
// output queue into the matching downstream per-VC input slot, at the
// routers holding output flits. It visits the output ports in ascending
// order and extracts each port's occupancy from the strided mask; empty
// ports are skipped. Every port has alg.VCs() queues, so one rotation
// pointer, cycle mod VCs, serves them all.
func (n *Network) activeLink() {
	vcs := n.vcs
	rrVC := int(n.modTab[vcs]) // every port has alg.VCs() queues
	n.wl.out.forEach(func(node int) {
		r := n.routers[node]
		n.visits++
		for i := range r.out {
			op := &r.out[i]
			occ := r.outOcc.port(op.slotBase, vcs)
			if occ == 0 {
				continue
			}
			n.linkPort(node, r, op, occ, vcs, rrVC)
		}
	})
}

// linkPort runs the per-link VC arbitration over one output port's
// occupied queues (occ holds the port's VC occupancy in its low bits):
// in rotation order from rr, the first head that has not moved this
// cycle, may depart, and finds room in its downstream slot traverses
// the link.
func (n *Network) linkPort(node int, r *router, op *outPort, occ uint64, vcs, rr int) {
	a := &n.arena
	for k := 0; k < vcs; k++ {
		vi := rr + k
		if vi >= vcs {
			vi -= vcs
		}
		if occ&(1<<uint(vi)) == 0 {
			continue
		}
		v := &op.vcs[vi]
		if v.q.advanced(n.cycle+1) || !n.canDepart(v) || op.peer.bufs[vi].full() {
			continue
		}
		h := n.outPop(&n.wl, node, r, op, vi)
		if h.seq() == 0 {
			a.hops[h.pkt()]++
		}
		n.linkFlits[op.ch.ID]++
		n.inPush(&n.wl, op.ch.Dst, op.peerRouter, op.peer, vi, h)
		n.moved = true
		return // one flit per physical link per cycle
	}
}

// SetEngine selects the implementation behind Step. Switching is legal
// at any point: the worklists are rebuilt from the buffers, so a
// network mid-simulation carries its state over exactly. Leaving
// EngineParallel stops its worker goroutines.
func (n *Network) SetEngine(e Engine) {
	switch e {
	case EngineActive:
		n.StopWorkers()
		n.rebuildActiveSets()
	case EngineParallel:
		n.StopWorkers()
		if n.shardCount == 0 {
			n.shardCount = defaultShards(n.topo.Nodes())
		}
		n.buildShards()
		n.rebuildParallelSets()
	default:
		panic(fmt.Sprintf("noc: unknown engine %d", int(e)))
	}
	n.engine = e
}

// Engine returns the engine currently driving Step.
func (n *Network) Engine() Engine { return n.engine }

// rebuildWorklists recomputes the slot masks from the ground truth in
// the buffers and re-enrolls every node in the worklists chosen by
// wlFor — the network-wide set for the active engine, the owning
// shard's for the parallel engine.
func (n *Network) rebuildWorklists(wlFor func(node int) *worklists) {
	n.rebuildModTab()
	for node, r := range n.routers {
		wl := wlFor(node)
		r.inOcc.zero()
		r.ejOcc.zero()
		r.outOcc.zero()
		for i := range r.in {
			p := &r.in[i]
			for vc := range p.bufs {
				if p.bufs[vc].empty() {
					continue
				}
				bit := p.slotBase + vc
				r.inOcc.set(bit)
				if n.arena.dst[p.bufs[vc].head().pkt()] == int32(r.node) {
					r.ejOcc.set(bit)
				}
			}
		}
		for i := range r.out {
			op := &r.out[i]
			for vc := range op.vcs {
				if !op.vcs[vc].q.empty() {
					r.outOcc.set(op.slotBase + vc)
				}
			}
		}
		n.refreshInSets(wl, node, r)
		if r.outOcc.any() {
			wl.out.add(node)
		}
		s := n.nis[node]
		if s.sending >= 0 || s.queue.len() > 0 {
			wl.ni.add(node)
		}
	}
}

// rebuildActiveSets recomputes the masks and the network-wide worklists
// from the buffers; a switch back from the parallel engine, whose
// worklists are per shard, starts here.
func (n *Network) rebuildActiveSets() {
	n.wl.clear()
	n.rebuildWorklists(func(int) *worklists { return &n.wl })
}

// checkActiveInvariants verifies that no buffered flit or pending
// packet has fallen off its worklist (which would strand it forever)
// and that the incremental slot masks match the buffers. Under the
// parallel engine the worklist that must hold each node is the owning
// shard's, and the cross-shard bookkeeping is additionally proven by
// checkParallelInvariants. It participates in CheckConservation, so
// every conservation-checked run also proves the worklist bookkeeping.
func (n *Network) checkActiveInvariants() error {
	if n.engine == EngineParallel {
		if err := n.checkParallelInvariants(); err != nil {
			return err
		}
	}
	wlFor := func(int) *worklists { return &n.wl }
	if n.engine == EngineParallel {
		wlFor = func(node int) *worklists { return &n.shards[n.shardOf[node]].wl }
	}
	for node, r := range n.routers {
		wl := wlFor(node)
		// Rebuild into the network-owned scratch masks: conservation
		// runs once per replication and must stay allocation-free on a
		// warm workspace, like the rest of the check.
		n.invIn = resizeMask(n.invIn, len(r.in)*n.stride)
		n.invEj = resizeMask(n.invEj, len(r.in)*n.stride)
		n.invOut = resizeMask(n.invOut, len(r.out)*n.stride)
		inOcc, ejOcc, outOcc := n.invIn, n.invEj, n.invOut
		var hasEj, hasTransit bool
		for i := range r.in {
			p := &r.in[i]
			for vc := range p.bufs {
				if p.bufs[vc].empty() {
					continue
				}
				bit := p.slotBase + vc
				inOcc.set(bit)
				if n.arena.dst[p.bufs[vc].head().pkt()] == int32(r.node) {
					ejOcc.set(bit)
					hasEj = true
				} else {
					hasTransit = true
				}
			}
		}
		var hasOut bool
		for i := range r.out {
			op := &r.out[i]
			for vc := range op.vcs {
				if !op.vcs[vc].q.empty() {
					outOcc.set(op.slotBase + vc)
					hasOut = true
				}
			}
		}
		if !inOcc.eq(r.inOcc) || !ejOcc.eq(r.ejOcc) || !outOcc.eq(r.outOcc) {
			return fmt.Errorf("noc: node %d slot masks (in %v, ej %v, out %v) disagree with buffers (in %v, ej %v, out %v)",
				node, r.inOcc, r.ejOcc, r.outOcc, inOcc, ejOcc, outOcc)
		}
		if hasEj && !wl.ej.has(node) {
			return fmt.Errorf("noc: node %d holds ejectable flits but is off the ejection worklist", node)
		}
		if hasTransit && !wl.sw.has(node) {
			return fmt.Errorf("noc: node %d holds transit flits but is off the switch worklist", node)
		}
		if hasOut && !wl.out.has(node) {
			return fmt.Errorf("noc: node %d holds output flits but is off the link worklist", node)
		}
		s := n.nis[node]
		if (s.sending >= 0 || s.queue.len() > 0) && !wl.ni.has(node) {
			return fmt.Errorf("noc: source %d has pending packets but is off the injection worklist", node)
		}
	}
	return nil
}

// rebuildModTab re-derives cycle % d for every registered divisor
// after a discontinuous cycle change (SkipTo, engine switch).
func (n *Network) rebuildModTab() {
	for _, d := range n.modDivs {
		n.modTab[d] = uint32(n.cycle % uint64(d))
	}
}

// Quiescent reports whether the network holds no traffic at all — no
// queued, partially injected, in-flight, or partially ejected packets.
// Every created packet is queued, resident, or fully ejected
// (CheckConservation), so created == ejected is exact and O(1); the
// idle fast-forward in core.Run gates on it every cycle.
func (n *Network) Quiescent() bool { return n.created == n.ejected }

// SkipTo advances the cycle counter to the given cycle without
// simulating the intervening cycles. It is only legal while the
// network is quiescent: with no flit anywhere and no packet pending, a
// cycle moves nothing, touches no statistics, and — because the
// rotation pointers are derived from the cycle counter — leaves
// arbitration state exactly as if it had been stepped. Earlier or
// current targets are a no-op.
func (n *Network) SkipTo(cycle uint64) {
	if cycle <= n.cycle {
		return
	}
	if !n.Quiescent() {
		panic(fmt.Sprintf("noc: SkipTo(%d) on a non-quiescent network at cycle %d", cycle, n.cycle))
	}
	n.skipped += cycle - n.cycle
	n.cycle = cycle
	n.rebuildModTab()
}
