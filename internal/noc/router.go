package noc

import (
	"gonoc/internal/topology"
)

// fifo is the growable head-index queue behind the unbounded NI source
// queue (router buffers are fixed rings, below): pop returns the head in
// O(1) without shifting the remaining elements. The backing slice is
// reset when the queue drains and compacted once the dead prefix
// crosses a threshold, so steady-state push/pop traffic cannot grow it
// without bound.
type fifo[T any] struct {
	items []T
	start int
}

// compactAt is the minimum dead prefix before a fifo considers sliding
// the live elements down; compaction additionally waits until the dead
// prefix covers at least half the backing array, so each compaction
// moves no more elements than the pops that earned it — amortized O(1)
// even for the unbounded NI source queue past saturation.
const compactAt = 32

func (q *fifo[T]) len() int { return len(q.items) - q.start }
func (q *fifo[T]) head() T  { return q.items[q.start] }
func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() T {
	var zero T
	v := q.items[q.start]
	q.items[q.start] = zero
	q.start++
	switch {
	case q.start == len(q.items):
		q.items = q.items[:0]
		q.start = 0
	case q.start >= compactAt && q.start*2 >= len(q.items):
		n := copy(q.items, q.items[q.start:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = zero
		}
		q.items = q.items[:n]
		q.start = 0
	}
	return v
}

// live returns the queued elements in FIFO order. The slice aliases the
// queue; callers must not retain it across a push or pop.
func (q *fifo[T]) live() []T { return q.items[q.start:] }

// reset empties the queue, zeroing the live elements (dropping their
// references) but keeping the backing array for reuse.
func (q *fifo[T]) reset() {
	var zero T
	for i := q.start; i < len(q.items); i++ {
		q.items[i] = zero
	}
	q.items = q.items[:0]
	q.start = 0
}

// bytes reports the resident bytes of the queue's live span at elemSize
// bytes per element (length-based, so the figure is deterministic).
func (q *fifo[T]) bytes(elemSize int) uint64 { return uint64(q.len() * elemSize) }

// ring is a fixed-capacity FIFO of flit handles: a window of the owning
// router's slot block (newRouter), so the buffers of one router share a
// few cache lines and nothing grows or compacts inside a cycle. It also
// carries the one-stage-per-cycle stamp of the flits it holds: stamp is
// cycle+1 of the most recent push and cnt the pushes made that cycle.
// Flits pushed this cycle sit at the tail and none of them can leave
// before the next cycle, so the head was pushed this cycle exactly when
// all n resident flits were — advanced is that test, and it decides
// bit for bit like a per-flit stamp (ring_test.go keeps one as oracle).
type ring struct {
	buf   []flitH // len(buf) is the capacity
	stamp uint64  // cycle+1 of the last push; 0 = none since Reset
	start int32   // index of the head flit
	n     int32   // flits held
	cnt   int32   // pushes made in the cycle stamp names
}

func (q *ring) len() int    { return int(q.n) }
func (q *ring) empty() bool { return q.n == 0 }
func (q *ring) full() bool  { return int(q.n) == len(q.buf) }
func (q *ring) head() flitH { return q.buf[q.start] }

// at returns the i-th flit from the head (0 <= i < len).
func (q *ring) at(i int) flitH {
	if i += int(q.start); i >= len(q.buf) {
		i -= len(q.buf)
	}
	return q.buf[i]
}

// push appends h during the cycle whose stamp is now (cycle+1). Every
// caller checks for room first, so a push on a full ring is a bug.
func (q *ring) push(h flitH, now uint64) {
	if q.full() {
		panic("noc: push on a full ring buffer")
	}
	i := int(q.start + q.n)
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = h
	q.n++
	if q.stamp == now {
		q.cnt++
	} else {
		q.stamp, q.cnt = now, 1
	}
}

func (q *ring) pop() flitH {
	h := q.buf[q.start]
	if q.start++; int(q.start) == len(q.buf) {
		q.start = 0
	}
	q.n--
	return h
}

// advanced reports whether the head flit already moved a pipeline stage
// in the cycle whose stamp is now, and so must wait for the next one.
func (q *ring) advanced(now uint64) bool { return q.stamp == now && q.cnt >= q.n }

// reset returns the ring to its freshly built state. The stamp goes
// too: one left over from the last run would meet an equal cycle+1 in
// the next run on a reused network. (A stale stamp only survives while
// its ring has seen no push since Reset, i.e. while it is empty and
// nobody asks, so it could at worst inflate cnt; clearing it keeps a
// reset network field for field equal to a fresh one.)
func (q *ring) reset() { q.stamp, q.start, q.n, q.cnt = 0, 0, 0, 0 }

// outVC is one output queue of a physical output channel — the paper's
// "multiple output queues for each physical link". It is a FIFO of
// flit handles with an ownership discipline guaranteeing that the flits
// of two packets never interleave within the queue: owner is the arena
// index of the packet whose worm is currently entering (-1 when none),
// set when its head flit is accepted and cleared when its tail flit is
// accepted (trailing packets then queue strictly behind).
type outVC struct {
	q     ring
	owner int32
}

// outPort is one physical output channel with its VC queues, which
// share the link round-robin (the rotation is derived from the cycle,
// see activeLink).
type outPort struct {
	ch       topology.Channel
	vcs      []outVC
	slotBase int // bit index of vcs[0] in the router's strided slot masks

	// peer and peerRouter cache the downstream input port and router of
	// the channel (resolved once by NewNetwork), sparing the active
	// engine a per-traversal lookup.
	peer       *inPort
	peerRouter *router

	// credits is the parallel engine's cycle-start credit snapshot of
	// the downstream input port: credits[vc] counts the free slots of
	// peer.bufs[vc] at the last barrier (refreshBoundaryCredits).
	// Maintained — and allocated — only on cross-shard ports. A positive
	// count proves the slot still has room at the serial decision point
	// mid-cycle (this port is the slot's only producer, so its occupancy
	// can only shrink until this port pushes), licensing speculative
	// delivery; a zero count makes the port synchronize on the
	// downstream shard's pop completion and re-read exact occupancy.
	credits []int16
}

// routeEntry is the switching state the head flit configures: flits of
// the owning packet arriving on one (input port, VC tag) are forwarded
// to the assigned output queue — the paper's "pre-configured switching
// functions on the output queue of the channel belonging to the path
// opened by the head flit".
type routeEntry struct {
	active bool
	port   *outPort
	vc     int
}

// inPort is one incoming link. The receive buffering is one FIFO slot
// set per virtual channel (capacity Config.InBufCap flits each, 1 in
// the paper): virtual-channel flow control demultiplexes arriving flits
// by their VC tag into per-VC slots. A single slot shared by both VCs
// would re-couple them through head-of-line blocking and void the
// dateline deadlock proof: a blocked VC-0 flit occupying the shared
// slot stops VC-1 traffic behind it, letting the dependency chain
// re-enter VC 0 past the dateline and close a cycle.
type inPort struct {
	ch       topology.Channel
	bufs     []ring       // per-VC receive slots
	route    []routeEntry // per-VC switching state
	rrVC     int          // round-robin VC pointer for the switch stage
	slotBase int          // bit index of bufs[0] in the router's strided slot masks
}

// router is the switching element of one node.
type router struct {
	node int
	in   []inPort  // indexed like topology.In(node)
	out  []outPort // indexed like topology.Out(node)

	// Slot-occupancy masks for the activity-driven engine, one bit per
	// strided (port, VC) slot (see slotMask for the layout). inOcc
	// marks non-empty input slots; ejOcc the subset whose head flit is
	// destined to this node (so the switch stage skips them and the
	// ejection stage finds them without scanning); outOcc marks
	// non-empty output queues. SetEngine rebuilds them from the
	// buffers.
	inOcc  slotMask
	ejOcc  slotMask
	outOcc slotMask

	// byDir maps a routing direction to its output port (nil when the
	// node has no channel that way); Direction is a small dense enum,
	// so a flat table replaces the linear scan on every routing
	// decision.
	byDir [topology.DirCount]*outPort
}

// newRouter builds one node's switching element with a flattened slot
// layout: the ports, the per-VC rings and switching entries, and the
// flit slots behind every ring (inCap per input slot, outCap per output
// queue) each live in one contiguous block, so the per-cycle phase
// walks touch a handful of cache lines per router instead of one heap
// object per slot. stride is the power-of-two mask stride ports are
// spaced at (Network.stride).
func newRouter(node int, t topology.Topology, vcs, stride, inCap, outCap int) *router {
	r := &router{node: node}
	ins, outs := t.In(node), t.Out(node)
	slots := make([]flitH, (len(ins)*inCap+len(outs)*outCap)*vcs)
	carve := func(n int) []flitH {
		w := slots[:n:n]
		slots = slots[n:]
		return w
	}
	r.in = make([]inPort, len(ins))
	rings := make([]ring, len(ins)*vcs)
	routes := make([]routeEntry, len(ins)*vcs)
	for i, c := range ins {
		r.in[i] = inPort{ch: c, bufs: rings[i*vcs : (i+1)*vcs], route: routes[i*vcs : (i+1)*vcs], slotBase: i * stride}
		for v := range r.in[i].bufs {
			r.in[i].bufs[v].buf = carve(inCap)
		}
	}
	r.out = make([]outPort, len(outs))
	queues := make([]outVC, len(outs)*vcs)
	for i, c := range outs {
		op := &r.out[i]
		op.ch = c
		op.slotBase = i * stride
		op.vcs = queues[i*vcs : (i+1)*vcs]
		for v := range op.vcs {
			op.vcs[v] = outVC{q: ring{buf: carve(outCap)}, owner: -1}
		}
		if int(c.Dir) < len(r.byDir) && r.byDir[c.Dir] == nil {
			r.byDir[c.Dir] = op // first match, like the scan it replaces
		}
	}
	r.inOcc = newSlotMask(len(ins) * stride)
	r.ejOcc = newSlotMask(len(ins) * stride)
	r.outOcc = newSlotMask(len(outs) * stride)
	return r
}

// outPortByDir returns the output port in the given direction, or nil.
func (r *router) outPortByDir(d topology.Direction) *outPort {
	if int(d) < len(r.byDir) {
		return r.byDir[d]
	}
	return nil
}

// inPortByChannel returns the input port for channel id, or nil.
func (r *router) inPortByChannel(id int) *inPort {
	for i := range r.in {
		if r.in[i].ch.ID == id {
			return &r.in[i]
		}
	}
	return nil
}

// eachFlit calls fn for every flit resident in this router's buffers,
// input slots first, each buffer in FIFO order, stopping at the first
// error.
func (r *router) eachFlit(fn func(flitH) error) error {
	walk := func(q *ring) error {
		for i := 0; i < q.len(); i++ {
			if err := fn(q.at(i)); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range r.in {
		for v := range r.in[i].bufs {
			if err := walk(&r.in[i].bufs[v]); err != nil {
				return err
			}
		}
	}
	for i := range r.out {
		for v := range r.out[i].vcs {
			if err := walk(&r.out[i].vcs[v].q); err != nil {
				return err
			}
		}
	}
	return nil
}

// bufferedFlits counts flits resident in this router's buffers.
func (r *router) bufferedFlits() int {
	n := 0
	for i := range r.in {
		for v := range r.in[i].bufs {
			n += r.in[i].bufs[v].len()
		}
	}
	for i := range r.out {
		for v := range r.out[i].vcs {
			n += r.out[i].vcs[v].q.len()
		}
	}
	return n
}
