package noc

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"gonoc/internal/prof"
)

// This file is the domain-decomposed parallel engine behind
// Network.Step: EngineParallel splits the routers into a fixed set of
// contiguous shards and executes the whole cycle — ejection, switch
// traversal + injection, link traversal — as ONE fused shard-local pass
// per worker, meeting a single barrier per cycle, while producing
// results bit-identical to EngineActive at every shard count.
//
// The fusion rests on the conservative-PDES lookahead of the model: a
// cross-shard effect (a link traversal into another shard's input
// buffer) is not acted on by the receiving router until the NEXT
// cycle's phases, so it can be delivered through a mailbox without
// changing any decision taken this cycle. Within a shard the fused pass
// keeps the serial phase order (all ejections, then all switch+inject,
// then all links over the shard's routers), so every shard-local read a
// phase performs sees exactly the state the serial engine would.
// Between shards, three couplings remain and each is resolved without a
// mid-cycle barrier:
//
//   - Cross-shard link DECISION: the only foreign state the link phase
//     reads is the downstream input slot's occupancy. Each input slot
//     has exactly ONE upstream writer (its channel), so during a cycle
//     its occupancy can only shrink (the owner pops, nobody else
//     pushes) until this very port pushes. The engine therefore keeps
//     per-(port,VC) CREDIT counters on every boundary port
//     (outPort.credits), snapshotted from the downstream buffers at
//     each barrier (refreshBoundaryCredits): a positive credit proves
//     the slot still has room at the serial decision point, so the
//     flit departs speculatively on the spot; a zero credit means only
//     the owner's pops this cycle can have made room, so the port
//     synchronizes point-to-point — it waits (parRun.awaitPops) until
//     the downstream shard publishes that all its pops of the pass are
//     done (popsDone, stored between its switch+inject and link
//     phases) and then re-reads exact occupancy, which is precisely
//     the check the serial link stage performs. Both outcomes
//     reproduce the serial decision bit-exactly, and neither involves
//     the serial section: the cycle-end replay of deferred boundary
//     ports that predated credits is gone. The two outcomes are
//     counted by the SpeculativeDeliveries and CreditDefers perf
//     counters.
//   - Cross-shard link DELIVERY: the departing flit is appended to a
//     per-shard-pair mailbox (outbox, one writer and one reader per
//     pair, preallocated). The RECEIVING shard drains its inboxes
//     itself at the end of its own pass — after every sender published
//     linkDone, so each mailbox is complete and has exactly one
//     concurrent reader — in canonical ascending sender-shard order.
//     Draining within the same cycle (rather than at the top of the
//     next) keeps the cycle-boundary state bit-identical for every
//     observer (fingerprints, telemetry, conservation, Drain) and
//     keeps Reset trivial: no flit is ever parked in a mailbox across
//     a barrier. The serial section never touches mailboxes.
//   - Ejection completions: statistics and the arena recycle are
//     deferred per shard and replayed in canonical order at the barrier.
//     This is unobservable mid-cycle: no lease or collector event
//     happens between the ejection and the barrier.
//
// The cycle-end serial section is thereby reduced to the ejection
// completions, the deferred injection statistics, the scratch-counter
// merge and the credit refresh — the Amdahl serial fraction the
// CreditDefers counter tracks the residue of.
//
// Determinism follows the same discipline as before: shard assignment
// is a pure function of router index and shard count (contiguous ranges
// [s·N/K, (s+1)·N/K)), each shard drains its own bitmap worklists in
// ascending node order with cycle-derived round-robin pointers, and
// every deferred buffer is appended in ascending node order and
// replayed (or drained) in ascending shard order — exactly the serial
// engines' iteration order. The credit decision is a pure function of
// simulation state (never of timing): whether a port holds a credit
// depends only on the previous barrier's buffer occupancy, and the
// zero-credit wait always resolves to the same exact occupancy read,
// so SpeculativeDeliveries and CreditDefers are deterministic counters
// fit for the perf gate. The boundary-port list of each shard (bports)
// and its inbound-sender list (senders) are precomputed at SetShards
// time in canonical order.
//
// The packet arena needs no sharding: every lease and recycle happens
// in the serial sections (generator events run between cycles, recycles
// in the ejection replay at the barrier), so arena growth and the free
// stack are only ever touched single-threaded. The per-record fields shards write concurrently — recv during ejection,
// injected during injection, hops during link traversal — are distinct
// word-sized array elements owned by exactly one shard at any time, and
// the barrier atomics (plus the popsDone/linkDone publishes, which
// order a shard's pops and mailbox appends before any foreign read)
// order them, so the engine stays race-clean. The stage stamps live in
// the ring buffers and are written only by pushes, which the owning
// shard makes (link arrivals from another shard travel by mailbox).
//
// Synchronization is a generation (sense-reversing) barrier: the
// coordinator re-arms a countdown and bumps an atomic generation;
// workers spin on the generation with a budget derived from GOMAXPROCS
// and the shard count (zero — straight to Gosched — on a single P),
// yield for a while, then park on a buffered wake channel with a
// publish-then-recheck handshake so no release can be lost. The
// intra-pass popsDone/linkDone waits spin with the same
// budget but never park: every shard publishes both marks
// unconditionally on every pass before it can itself wait, so the
// waits are deadlock-free and bounded by the pass length. An idle or
// reset network burns no CPU; StopWorkers joins the goroutines, so no
// worker can outlive its network.
//
// When a CPU profile is armed (prof.CPUProfileActive at worker start),
// the engine attaches pprof goroutine labels phase=fused-pass /
// barrier-wait / serial-replay around the respective spans, so `go
// tool pprof -tags` attributes samples to the parallel fraction, the
// synchronization overhead and the residual serial section directly.
// Unprofiled runs skip the labels entirely (nil-context check).

// parShard is one domain of the decomposition: a contiguous router
// range, its private phase worklists, per-cycle scratch counters, the
// deferred-effect buffers, and the precomputed boundary geometry.
type parShard struct {
	idx    int // shard index (== position in Network.shards)
	lo, hi int // owned router range [lo, hi)
	wl     worklists

	visits  uint64 // worklist visits this cycle, merged at cycle end
	specs   uint64 // speculative (credit-backed) cross-shard deliveries this cycle
	cdefers uint64 // zero-credit synchronized link decisions this cycle
	moved   bool   // any flit progress this cycle, merged at cycle end

	// ej holds this cycle's fully ejected packets (arena indices) in
	// pop order; the barrier replays them (statistics, arena recycle)
	// in shard order == ascending node order.
	ej []int32
	// stats holds this cycle's injection-phase collector events in
	// visit order, replayed at cycle end.
	stats []statRecord

	// bports lists this shard's cross-shard output ports in canonical
	// (ascending node, port) order — precomputed by buildShards, so
	// neither the per-cycle code nor the invariant checker re-derives
	// the cut geometry.
	bports []bport
	// senders lists, ascending, the shards that own at least one
	// boundary port INTO this shard — the only mailboxes the
	// end-of-pass drain must wait for and read.
	senders []int32
	// outbox[t] is the mailbox of cross-shard link deliveries into
	// shard t this cycle: written only by this shard during its fused
	// pass, drained only by shard t at the end of t's pass (after this
	// shard published linkDone). Preallocated small (initialMailboxCap)
	// and grown on demand up to at most one record per boundary port;
	// the backing arrays persist across cycles and runs, so the steady
	// state appends without allocating.
	outbox [][]pushRecord

	// pad keeps neighbouring shards' hot scratch fields off one cache
	// line (the structs live in one slice).
	_ [64]byte
}

// bport names one cross-shard output port: the owning router and the
// port itself (whose ch/peer/peerRouter fields carry the rest).
type bport struct {
	node int32
	op   *outPort
}

// initialMailboxCap is the preallocated capacity of each per-shard-pair
// mailbox. Deliberately smaller than the worst case (one record per
// boundary port per cycle): a first burst grows the slice once and the
// high-water backing array is kept forever after, which the
// mailbox-growth tests pin down.
const initialMailboxCap = 4

// statRecord is one deferred injection-phase collector event: a packet
// acceptance (injected, with its flit count) or a source-blocked cycle.
type statRecord struct {
	injected bool
	flits    int
}

// pushRecord is one cross-shard link traversal in flight between a
// sender's link phase and the receiver's end-of-pass drain: flit handle
// h arrives in input port p, virtual channel vc, of router node.
type pushRecord struct {
	node int
	p    *inPort
	vc   int
	h    flitH
}

// parRun is the worker group of a running parallel network: one
// goroutine per shard beyond shard 0, released through a generation
// barrier once per cycle, plus the per-shard intra-pass progress marks
// the credit discipline synchronizes on.
type parRun struct {
	gen     atomic.Uint64 // release generation; bumped to open a pass
	pending atomic.Int64  // workers still inside the released pass
	stop    atomic.Bool   // set before the final bump to terminate
	spin    int           // busy-spin budget before yielding

	// popsDone[s] carries the generation of the last pass in which
	// shard s finished every input-buffer pop (ejection and switch);
	// published between the switch+inject and link phases. A
	// zero-credit boundary port waits for the destination shard's mark
	// before re-reading exact occupancy.
	popsDone []atomic.Uint64
	// linkDone[s] carries the generation of the last pass in which
	// shard s finished its link phase (and hence every mailbox append);
	// receivers wait for their senders' marks before draining.
	linkDone []atomic.Uint64

	parked []atomic.Bool   // worker w blocked (or blocking) on wake[w]
	wake   []chan struct{} // buffered(1) wake tokens, one per worker
	wg     sync.WaitGroup  // joined by StopWorkers

	// Phase-attribution label contexts, non-nil only when a CPU profile
	// was armed when the worker group started (prof.CPUProfileActive);
	// setLabel is a no-op otherwise, so unprofiled runs pay one nil
	// check per transition.
	labelPass   context.Context
	labelWait   context.Context
	labelSerial context.Context
	labelNone   context.Context
}

// setLabel switches the calling goroutine's pprof labels to ctx when
// phase attribution is armed. On the coordinator this temporarily
// replaces the caller's own labels during Step; stepParallel restores
// the empty set before returning.
func (pr *parRun) setLabel(ctx context.Context) {
	if ctx != nil {
		pprof.SetGoroutineLabels(ctx)
	}
}

// yieldBudget is how many runtime.Gosched rounds a worker inserts
// between spinning and parking: long enough that back-to-back cycles
// on a busy machine never pay the park/wake channel round-trip, short
// enough that an idle gap parks quickly.
const yieldBudget = 64

// spinBudget derives the busy-spin budget from the machine parallelism
// and the worker-group width: with shards ≤ procs every worker owns a
// P and a pass ends within microseconds, so the full budget applies;
// oversubscribed groups scale it down (a spinning worker is stealing
// the P of the one that would end the wait); a single P spins not at
// all and goes straight to Gosched. Parallelism is the smaller of
// GOMAXPROCS and the physical core count: GOMAXPROCS above NumCPU
// creates runnable threads the OS must time-slice onto the same cores,
// and a waiter that busy-spins there burns the publisher's quantum —
// each intra-pass handoff then costs an OS reschedule instead of
// nanoseconds, which under the race detector compounds into a crawl.
func spinBudget(shards int) int {
	const base = 4096
	p := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c < p {
		p = c
	}
	if p <= 1 {
		return 0
	}
	b := base * p / shards
	if b > base {
		b = base
	}
	return b
}

// defaultShards picks the shard count when none was configured:
// min(GOMAXPROCS, routers/4), at least 1. The nodes/4 floor keeps
// shards from shrinking below the size where the per-cycle barrier
// costs more than the shard's phase work; a result of 1 means the
// network is too small to decompose profitably and callers collapse to
// the serial engine. Results are bit-identical at every count, so the
// default only affects speed.
func defaultShards(nodes int) int {
	k := runtime.GOMAXPROCS(0)
	if q := nodes / 4; k > q {
		k = q
	}
	if k < 1 {
		k = 1
	}
	return k
}

// SetShards configures the domain width of EngineParallel: k contiguous
// router shards (clamped to [1, nodes]); k <= 0 selects the automatic
// width (defaultShards). Calling it while the parallel engine is active
// rebuilds the decomposition in place — mid-run is fine, results do not
// depend on the shard count; otherwise the value is stored for the next
// SetEngine(EngineParallel).
func (n *Network) SetShards(k int) {
	nodes := n.topo.Nodes()
	if k <= 0 {
		k = defaultShards(nodes)
	}
	if k > nodes {
		k = nodes
	}
	if k == n.shardCount {
		return
	}
	n.shardCount = k
	if n.engine == EngineParallel {
		n.StopWorkers()
		n.buildShards()
		n.rebuildParallelSets()
	}
}

// Shards returns the configured shard count (0 when never configured).
func (n *Network) Shards() int { return n.shardCount }

// buildShards (re)allocates the shard array for the configured count,
// with ranges [s·N/K, (s+1)·N/K), the inverse lookup table, each
// shard's canonical boundary-port and sender lists, the per-pair
// mailboxes and the boundary ports' credit arrays. An already-built
// decomposition of the same width is kept — its worklist bitmaps,
// boundary lists and mailbox capacity stay warm across workspace reuse
// (the caller re-derives the worklist contents either way).
func (n *Network) buildShards() {
	nodes := n.topo.Nodes()
	k := n.shardCount
	if len(n.shards) == k && len(n.shardOf) == nodes {
		return
	}
	n.shards = make([]parShard, k)
	if cap(n.shardOf) < nodes {
		n.shardOf = make([]int32, nodes)
	}
	n.shardOf = n.shardOf[:nodes]
	for s := 0; s < k; s++ {
		sh := &n.shards[s]
		sh.idx = s
		sh.lo, sh.hi = s*nodes/k, (s+1)*nodes/k
		sh.wl = newWorklists(nodes)
		for v := sh.lo; v < sh.hi; v++ {
			n.shardOf[v] = int32(s)
		}
	}
	// Second pass (shardOf must be complete): precompute the canonical
	// boundary-port lists, size the mailboxes and allocate the credit
	// counters on every cross-shard port.
	vcs := n.vcs
	for s := 0; s < k; s++ {
		sh := &n.shards[s]
		sh.outbox = make([][]pushRecord, k)
		for v := sh.lo; v < sh.hi; v++ {
			for i := range n.routers[v].out {
				if op := &n.routers[v].out[i]; int(n.shardOf[op.ch.Dst]) != s {
					sh.bports = append(sh.bports, bport{node: int32(v), op: op})
				}
			}
		}
		for _, bp := range sh.bports {
			t := n.shardOf[bp.op.ch.Dst]
			if sh.outbox[t] == nil {
				sh.outbox[t] = make([]pushRecord, 0, initialMailboxCap)
			}
			if bp.op.credits == nil {
				bp.op.credits = make([]int16, vcs)
			}
		}
	}
	// Third pass (every outbox allocated): each shard's ascending list
	// of inbound senders — the mailboxes its end-of-pass drain reads.
	for s := 0; s < k; s++ {
		sh := &n.shards[s]
		sh.senders = sh.senders[:0]
		for u := 0; u < k; u++ {
			if u != s && n.shards[u].outbox[s] != nil {
				sh.senders = append(sh.senders, int32(u))
			}
		}
	}
}

// rebuildParallelSets recomputes the slot masks, distributes every
// node's worklist membership to its owning shard, and refreshes the
// boundary credits — the parallel counterpart of rebuildActiveSets,
// run on engine entry and whenever the decomposition changes.
func (n *Network) rebuildParallelSets() {
	for i := range n.shards {
		n.shards[i].wl.clear()
	}
	n.rebuildWorklists(func(node int) *worklists { return &n.shards[n.shardOf[node]].wl })
	n.refreshBoundaryCredits()
}

// resetShards clears the per-shard worklists and scratch and restores
// the boundary credits during Network.Reset (which has just emptied
// every buffer), keeping the shard geometry and the deferred buffers'
// backing arrays, and parks the worker group (a reset network may next
// run under a different engine, or not at all). Mailboxes are empty at
// every cycle boundary — the receiving shard drained them inside the
// pass — so no in-flight flit can be stranded here.
func (n *Network) resetShards() {
	n.StopWorkers()
	for i := range n.shards {
		s := &n.shards[i]
		s.wl.clear()
		s.visits, s.specs, s.cdefers, s.moved = 0, 0, 0, false
		s.clearScratch()
	}
	n.refreshBoundaryCredits()
}

// clearScratch empties the deferred buffers, keeping capacity (the
// records are plain integers and port pointers into long-lived router
// structures, so no references need dropping).
func (s *parShard) clearScratch() {
	s.ej = s.ej[:0]
	s.stats = s.stats[:0]
	for t := range s.outbox {
		s.outbox[t] = s.outbox[t][:0]
	}
}

// startWorkers launches the worker group: one goroutine per shard
// beyond shard 0. Workers are lazy — the first parallel Step starts
// them — and park between cycles, so they cost nothing while the
// network idles between runs. Phase-attribution labels are armed here
// iff a CPU profile is already running, so the CLIs' profile-then-run
// order picks them up and unprofiled runs skip the label machinery.
func (n *Network) startWorkers() {
	k := len(n.shards)
	pr := &parRun{
		spin:     spinBudget(k),
		parked:   make([]atomic.Bool, k-1),
		wake:     make([]chan struct{}, k-1),
		popsDone: make([]atomic.Uint64, k),
		linkDone: make([]atomic.Uint64, k),
	}
	if prof.CPUProfileActive() {
		pr.labelPass = pprof.WithLabels(context.Background(), pprof.Labels("phase", "fused-pass"))
		pr.labelWait = pprof.WithLabels(context.Background(), pprof.Labels("phase", "barrier-wait"))
		pr.labelSerial = pprof.WithLabels(context.Background(), pprof.Labels("phase", "serial-replay"))
		pr.labelNone = context.Background()
	}
	for i := range pr.wake {
		pr.wake[i] = make(chan struct{}, 1)
	}
	pr.wg.Add(k - 1)
	for i := 1; i < k; i++ {
		go n.shardWorker(i, pr)
	}
	n.pr = pr
}

// StopWorkers terminates the parallel engine's worker goroutines and
// joins them (a no-op when none are running): when it returns, no
// goroutine of the group exists, parked or otherwise. It is called
// automatically by Reset, SetShards and any engine switch; call it
// directly when discarding a network that stepped under EngineParallel.
// The network remains fully usable — the next parallel Step restarts
// the group.
func (n *Network) StopWorkers() {
	pr := n.pr
	if pr == nil {
		return
	}
	pr.stop.Store(true)
	pr.gen.Add(1)
	for w := range pr.wake {
		select {
		case pr.wake[w] <- struct{}{}:
		default: // a token is already pending; the worker will wake
		}
	}
	pr.wg.Wait()
	n.pr = nil
}

// shardWorker is the per-shard goroutine: it waits on the generation
// barrier, runs the released pass over its shard, announces completion
// on pending, and exits when the stop flag accompanies a release.
func (n *Network) shardWorker(i int, pr *parRun) {
	defer pr.wg.Done()
	s := &n.shards[i]
	last := uint64(0)
	for {
		pr.setLabel(pr.labelWait)
		g := pr.awaitRelease(i-1, last)
		if pr.stop.Load() {
			return
		}
		last = g
		pr.setLabel(pr.labelPass)
		n.runFusedPass(s, g)
		pr.pending.Add(-1)
	}
}

// awaitRelease blocks worker w until the generation moves past last:
// spin for the budget, yield for a while, then park on the wake channel.
// The park publishes intent (parked[w]) and RE-CHECKS the generation
// before blocking, so a release that raced the publish is never missed;
// the coordinator's wake tokens are buffered, so a token sent to a
// worker that un-parked itself is consumed (and discarded by the
// re-check loop) on the next park instead of deadlocking anyone.
func (pr *parRun) awaitRelease(w int, last uint64) uint64 {
	spin := 0
	for {
		if g := pr.gen.Load(); g != last {
			return g
		}
		spin++
		switch {
		case spin <= pr.spin:
			// busy wait
		case spin <= pr.spin+yieldBudget:
			runtime.Gosched()
		default:
			pr.parked[w].Store(true)
			if g := pr.gen.Load(); g != last {
				pr.parked[w].Store(false)
				return g
			}
			<-pr.wake[w]
			pr.parked[w].Store(false)
			spin = 0
		}
	}
}

// release opens a pass for the workers and returns its generation:
// pending is re-armed, then the generation bump releases spinning
// workers (the atomic bump orders every serial-section write before it,
// arena growth from leases included) and parked workers get a wake
// token.
func (pr *parRun) release(workers int) uint64 {
	pr.pending.Store(int64(workers))
	g := pr.gen.Add(1)
	for w := range pr.parked {
		if pr.parked[w].Load() {
			select {
			case pr.wake[w] <- struct{}{}:
			default:
			}
		}
	}
	return g
}

// await blocks the coordinator until every worker finished the pass.
func (pr *parRun) await() {
	for spin := 0; pr.pending.Load() != 0; spin++ {
		if spin >= pr.spin {
			runtime.Gosched()
		}
	}
}

// awaitPops blocks until shard t has published its pops-done mark for
// pass generation g — a point-to-point wait a zero-credit boundary
// port pays before re-reading exact downstream occupancy. It never
// parks: t publishes the mark unconditionally partway through the same
// pass the waiter is in, so the wait is bounded by t's pass prefix.
func (pr *parRun) awaitPops(t int, g uint64) {
	for spin := 0; pr.popsDone[t].Load() < g; spin++ {
		if spin >= pr.spin {
			runtime.Gosched()
		}
	}
}

// awaitLink blocks until shard u has published its link-done mark for
// pass generation g, after which u's mailbox appends of this pass are
// complete (and ordered before the load). Receivers call it for each
// inbound sender before draining; every shard publishes its own mark
// before waiting on anyone, so the waits cannot cycle.
func (pr *parRun) awaitLink(u int, g uint64) {
	for spin := 0; pr.linkDone[u].Load() < g; spin++ {
		if spin >= pr.spin {
			runtime.Gosched()
		}
	}
}

// runFusedPass executes one shard's full single-barrier cycle body,
// publishing the credit-discipline progress marks at the required
// points — popsDone after the last input-buffer pop of the pass,
// linkDone after the last mailbox append — and finally draining the
// shard's own inboxes (complete once every sender's linkDone is in).
func (n *Network) runFusedPass(s *parShard, g uint64) {
	n.parEject(s)
	n.parSwitchInject(s)
	pr := n.pr
	pr.popsDone[s.idx].Store(g)
	n.parLink(s, g)
	pr.linkDone[s.idx].Store(g)
	n.drainInboxes(s, g)
}

// stepParallel advances one cycle under the domain decomposition, as a
// single-barrier fused cycle:
//
//	fused pass (parallel)  ejection → switch+inject → link → inbox
//	                       drain per shard; ejection/stat completions
//	                       deferred, cross-shard deliveries resolved
//	                       in-pass by the credit discipline
//	barrier     (serial)   ejection replay, stats replay, cycle close,
//	                       credit refresh
func (n *Network) stepParallel() {
	n.moved = false
	if len(n.shards) == 1 {
		// Degenerate single-shard decomposition: same machinery minus
		// the workers, barriers and credit waits (no port crosses a
		// shard boundary) — still exercises the pass and replay code.
		s := &n.shards[0]
		n.parEject(s)
		n.replayEjections()
		n.parSwitchInject(s)
		n.parLink(s, 0)
		n.finishParallelCycle()
		return
	}
	if n.pr == nil {
		n.startWorkers()
	}
	pr := n.pr
	workers := len(n.shards) - 1
	s0 := &n.shards[0]
	g := pr.release(workers)
	pr.setLabel(pr.labelPass)
	n.runFusedPass(s0, g)
	pr.setLabel(pr.labelWait)
	pr.await()
	n.barriers++
	pr.setLabel(pr.labelSerial)
	n.replayEjections()
	n.finishParallelCycle()
	pr.setLabel(pr.labelNone)
}

// parEject runs the ejection stage (ejectNode) over one shard's
// worklist, deferring every tail-ejection completion: the pops, mask
// updates and per-packet receive accounting are shard-local (a packet's
// flits all eject at its unique destination), while statistics and the
// arena recycle run in the serial replay.
func (n *Network) parEject(s *parShard) {
	s.wl.ej.forEach(func(node int) {
		s.visits++
		if n.ejectNode(&s.wl, node, &s.ej) {
			s.moved = true
		}
	})
}

// replayEjections applies the deferred ejection completions in shard
// order — which, shards being contiguous and each buffer append-ordered
// by the ascending-node walk, is exactly the serial engines' ejection
// order, so statistics and recycles interleave precisely as in
// EngineActive. It runs at the cycle-end barrier: no lease, recycle or
// collector event can occur between a tail ejection and the barrier,
// so deferring the completions there is unobservable.
func (n *Network) replayEjections() {
	for i := range n.shards {
		s := &n.shards[i]
		for _, pi := range s.ej {
			n.completeEjection(pi)
		}
		s.ej = s.ej[:0]
	}
}

// parSwitchInject runs the switch-traversal and injection stages
// (switchNode, injectNode) over one shard. Fusing them into one span is
// sound because both read and write only the state of the visited
// router and its NI — the serial engines' global phase boundary orders
// nothing that two different routers could observe. The injection
// stage's collector events (packet acceptances, source-blocked cycles)
// are deferred to the end-of-cycle replay; everything else — source
// queue, worm state, the output-queue pushes, the packet's injection
// stamp (its source is unique to this shard) — is local to the shard.
func (n *Network) parSwitchInject(s *parShard) {
	s.wl.sw.forEach(func(node int) {
		s.visits++
		if n.switchNode(&s.wl, node) {
			s.moved = true
		}
	})
	s.wl.ni.forEach(func(node int) {
		s.visits++
		if n.injectNode(&s.wl, node, &s.stats) {
			s.moved = true
		}
	})
}

// parLink mirrors activeLink over one shard's link worklist. Arrivals
// into a router of the same shard are applied directly with exact
// occupancy checks (all of this shard's pops already ran in the fused
// pass, and no other shard pushes into this shard's input slots).
// Cross-shard arrivals use the credit discipline of parLinkPort.
func (n *Network) parLink(s *parShard, g uint64) {
	vcs := n.vcs
	rrVC := int(n.modTab[vcs]) // every port has alg.VCs() queues
	s.wl.out.forEach(func(node int) {
		r := n.routers[node]
		s.visits++
		for i := range r.out {
			op := &r.out[i]
			occ := r.outOcc.port(op.slotBase, vcs)
			if occ == 0 {
				continue
			}
			n.parLinkPort(s, node, r, op, occ, vcs, rrVC, g)
		}
	})
}

// parLinkPort mirrors linkPort under the fused pass. For a same-shard
// destination the downstream fullness read is exact (see parLink). For
// a cross-shard destination the decision consults the cycle-start
// credit counter (outPort.credits[vc]): a positive count proves the
// slot still has room at the serial decision point (its occupancy can
// only have shrunk — the single producer is this port), so the flit
// departs on the spot; a zero count means the owner's pops this cycle
// decide, so the port waits for the downstream shard's popsDone mark
// and re-reads exact occupancy — the identical check the serial link
// stage performs, now resolved inside the pass instead of a cycle-end
// serial replay. Either way the delivery itself travels through the
// pair mailbox (pushing into a foreign shard's bookkeeping directly
// would race with its own pass) and is drained by the receiving shard
// at the end of its pass. Both outcomes reproduce the serial
// round-robin decision exactly.
func (n *Network) parLinkPort(s *parShard, node int, r *router, op *outPort, occ uint64, vcs, rr int, g uint64) {
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
		if v.q.advanced(n.cycle+1) || !n.canDepart(v) {
			continue
		}
		dst := op.ch.Dst
		if t := int(n.shardOf[dst]); t != s.idx {
			if op.credits[vi] > 0 {
				op.credits[vi]--
				s.specs++
			} else {
				s.cdefers++
				n.pr.awaitPops(t, g)
				if op.peer.bufs[vi].full() {
					continue
				}
			}
			h := n.outPop(&s.wl, node, r, op, vi)
			if h.seq() == 0 {
				a.hops[h.pkt()]++
			}
			n.linkFlits[op.ch.ID]++
			s.outbox[t] = append(s.outbox[t], pushRecord{node: dst, p: op.peer, vc: vi, h: h})
			s.moved = true
			return // one flit per physical link per cycle
		}
		if op.peer.bufs[vi].full() {
			continue
		}
		h := n.outPop(&s.wl, node, r, op, vi)
		if h.seq() == 0 {
			a.hops[h.pkt()]++
		}
		n.linkFlits[op.ch.ID]++
		n.inPush(&s.wl, dst, op.peerRouter, op.peer, vi, h)
		s.moved = true
		return // one flit per physical link per cycle
	}
}

// drainInboxes applies the cross-shard arrivals addressed to this shard
// at the end of its own pass, in canonical ascending sender-shard
// order, once every sender's linkDone mark proves its mailbox complete.
// The pushes run against the shard's own routers and worklists (single
// writer), and a boundary port of ANOTHER shard still mid-decision
// cannot observe them: the only slot such a port examines is one this
// very drain can never touch, because its sole producer is that port
// itself and same-cycle records from it would require the port to have
// already decided. Emptying the mailboxes inside the pass keeps every
// cycle-boundary observer (fingerprints, telemetry, conservation,
// Reset) oblivious to the mailbox mechanism.
func (n *Network) drainInboxes(s *parShard, g uint64) {
	if len(s.senders) == 0 {
		return
	}
	pr := n.pr
	for _, u := range s.senders {
		pr.awaitLink(int(u), g)
	}
	for _, u := range s.senders {
		src := &n.shards[u]
		box := src.outbox[s.idx]
		for _, rec := range box {
			n.inPush(&s.wl, rec.node, n.routers[rec.node], rec.p, rec.vc, rec.h)
		}
		src.outbox[s.idx] = box[:0]
	}
}

// refreshBoundaryCredits recomputes every boundary port's per-VC credit
// counters from the downstream buffers. It runs in the serial section
// at each cycle close (and on any rebuild), after all pops and drains —
// i.e. at exactly the instant the next cycle's speculation treats as
// "cycle start", so credits[vc] == free slots of peer.bufs[vc] holds at
// every cycle boundary (an invariant CheckConservation enforces).
func (n *Network) refreshBoundaryCredits() {
	bufCap := n.cfg.InBufCap
	for i := range n.shards {
		s := &n.shards[i]
		for _, bp := range s.bports {
			ip := bp.op.peer
			for vc := range ip.bufs {
				bp.op.credits[vc] = int16(bufCap - ip.bufs[vc].len())
			}
		}
	}
}

// finishParallelCycle is the end-of-cycle serial section — all that
// remains of it after the credit discipline moved the boundary-port
// decisions and the mailbox applies into the passes: replay the
// deferred injection statistics, merge the per-shard scratch counters,
// close the cycle exactly as stepActive does, and refresh the boundary
// credits for the next cycle's speculation.
func (n *Network) finishParallelCycle() {
	for i := range n.shards {
		s := &n.shards[i]
		for _, st := range s.stats {
			n.recordInjection(st)
		}
		s.stats = s.stats[:0]
		if s.moved {
			n.moved = true
			s.moved = false
		}
		n.visits += s.visits
		s.visits = 0
		n.specs += s.specs
		s.specs = 0
		n.cdefers += s.cdefers
		s.cdefers = 0
	}
	if n.moved {
		n.lastActivity = n.cycle
	}
	n.cycle++
	for _, d := range n.modDivs {
		v := n.modTab[d] + 1
		if v == uint32(d) {
			v = 0
		}
		n.modTab[d] = v
	}
	n.refreshBoundaryCredits()
}

// checkParallelInvariants proves the cross-shard bookkeeping the
// parallel engine adds on top of the per-node worklist invariants: the
// shard ranges tile the node space as the pure assignment function
// dictates, no shard's worklists hold a node outside its range (a
// foreign member would be drained by the wrong goroutine), the
// precomputed boundary-port lists name exactly the cross-shard output
// ports in canonical order with credit counters that match the
// downstream buffers (no counter negative — no overdraft — and none
// stale), the sender lists name exactly the shards with inbound
// boundary ports, and — at every cycle boundary — the deferred-effect
// buffers and every per-pair mailbox are empty (each receiving shard
// drained its inboxes inside the pass) and the scratch counters are
// merged, so no packet, credit or statistic is parked between shards.
// Together with CheckConservation's global packet and arena accounting
// this proves cross-shard conservation: every flit that left one
// shard's output queue arrived in the owning shard's input bookkeeping
// the same cycle.
func (n *Network) checkParallelInvariants() error {
	nodes := n.topo.Nodes()
	k := n.shardCount
	if k < 1 || len(n.shards) != k {
		return fmt.Errorf("noc: parallel engine with %d shards configured but %d built", k, len(n.shards))
	}
	for i := range n.shards {
		s := &n.shards[i]
		if s.lo != i*nodes/k || s.hi != (i+1)*nodes/k {
			return fmt.Errorf("noc: shard %d covers [%d,%d), want [%d,%d)", i, s.lo, s.hi, i*nodes/k, (i+1)*nodes/k)
		}
		for _, set := range []struct {
			name string
			s    *activeSet
		}{{"ejection", &s.wl.ej}, {"switch", &s.wl.sw}, {"link", &s.wl.out}, {"injection", &s.wl.ni}} {
			bad := -1
			set.s.forEach(func(v int) {
				if (v < s.lo || v >= s.hi) && bad < 0 {
					bad = v
				}
			})
			if bad >= 0 {
				return fmt.Errorf("noc: node %d on shard %d's %s worklist but owned by shard %d",
					bad, i, set.name, n.shardOf[bad])
			}
		}
		if len(s.ej) != 0 || len(s.stats) != 0 {
			return fmt.Errorf("noc: shard %d holds unreplayed deferred effects at a cycle boundary (%d ejections, %d stats)",
				i, len(s.ej), len(s.stats))
		}
		if len(s.outbox) != k {
			return fmt.Errorf("noc: shard %d has %d mailboxes for %d shards", i, len(s.outbox), k)
		}
		for t := range s.outbox {
			if len(s.outbox[t]) != 0 {
				return fmt.Errorf("noc: shard %d->%d mailbox holds %d undrained link arrivals at a cycle boundary",
					i, t, len(s.outbox[t]))
			}
		}
		// The boundary-port list must be exactly the shard's cross-shard
		// output ports in canonical (ascending node, port) order, and
		// each credit counter must equal the buffer-derived free-slot
		// count — a negative counter would mean speculation overdrew the
		// downstream buffer, a stale one would let the next cycle
		// speculate wrongly.
		bi := 0
		for v := s.lo; v < s.hi; v++ {
			for j := range n.routers[v].out {
				op := &n.routers[v].out[j]
				if int(n.shardOf[op.ch.Dst]) == i {
					continue
				}
				if bi >= len(s.bports) || s.bports[bi].op != op || int(s.bports[bi].node) != v {
					return fmt.Errorf("noc: shard %d boundary-port list out of order or incomplete at node %d", i, v)
				}
				ip := op.peer
				if len(op.credits) < len(ip.bufs) {
					return fmt.Errorf("noc: boundary port %d->%d has %d credit counters for %d VCs",
						v, op.ch.Dst, len(op.credits), len(ip.bufs))
				}
				for vc := range ip.bufs {
					c := int(op.credits[vc])
					if c < 0 {
						return fmt.Errorf("noc: boundary port %d->%d VC %d credit overdraft (%d)",
							v, op.ch.Dst, vc, c)
					}
					if want := n.cfg.InBufCap - ip.bufs[vc].len(); c != want {
						return fmt.Errorf("noc: boundary port %d->%d VC %d holds %d credits, downstream buffer has %d free slots",
							v, op.ch.Dst, vc, c, want)
					}
				}
				bi++
			}
		}
		if bi != len(s.bports) {
			return fmt.Errorf("noc: shard %d lists %d boundary ports, geometry has %d", i, len(s.bports), bi)
		}
		// The sender list must name exactly the shards with at least one
		// boundary port into this shard, ascending — the end-of-pass
		// drain reads only these mailboxes, so a missing sender would
		// strand its deliveries.
		si := 0
		for u := 0; u < k; u++ {
			if u == i {
				continue
			}
			has := false
			for _, bp := range n.shards[u].bports {
				if int(n.shardOf[bp.op.ch.Dst]) == i {
					has = true
					break
				}
			}
			if !has {
				continue
			}
			if si >= len(s.senders) || int(s.senders[si]) != u {
				return fmt.Errorf("noc: shard %d sender list out of order or incomplete at sender %d", i, u)
			}
			si++
		}
		if si != len(s.senders) {
			return fmt.Errorf("noc: shard %d lists %d senders, geometry has %d", i, len(s.senders), si)
		}
		if s.visits != 0 || s.specs != 0 || s.cdefers != 0 || s.moved {
			return fmt.Errorf("noc: shard %d scratch counters not merged at a cycle boundary", i)
		}
	}
	for v := 0; v < nodes; v++ {
		if want := ((v+1)*k - 1) / nodes; int(n.shardOf[v]) != want {
			return fmt.Errorf("noc: shardOf[%d] = %d, want %d", v, n.shardOf[v], want)
		}
	}
	return nil
}
