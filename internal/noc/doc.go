// Package noc is a cycle-accurate model of the wormhole-switched
// Network-on-Chip the paper simulates in OMNeT++: packets of constant
// flit count are injected by per-node IPs with Poisson interarrivals,
// head flits are routed hop by hop, body flits follow the path the head
// opened, and the paper's exact buffer architecture is reproduced —
// one-flit input buffers per incoming link, a configurable number of
// output queues (virtual channels) per outgoing link with three-flit
// capacity, and a network interface whose sink consumes flits FIFO.
//
// The model is synchronous: Network.Step advances one clock cycle, in
// which every flit moves at most one pipeline stage (ejection, switch
// traversal, injection, link traversal). All arbitration is round-robin
// and all iteration orders are fixed, so simulations are deterministic.
//
// # Engines
//
// Two interchangeable engines implement Step. The default
// activity-driven engine (active.go) drains per-phase worklists —
// bitmap active sets over routers and sources, updated exactly where
// flits move — so a cycle costs time proportional to in-flight work
// rather than network size, and a fully quiescent network can
// fast-forward across idle cycles via SkipTo. EngineParallel
// (parallel.go) runs ejection, switch+inject and link as ONE fused
// shard-local pass over contiguous router shards with a single
// sense-reversing barrier per cycle. Cross-shard link decisions
// resolve inside the pass through per-(port,VC) credit counters
// snapshotted at each barrier: a positive credit proves downstream
// room and the flit travels speculatively through a
// per-shard-pair mailbox; a spent credit waits point-to-point for the
// downstream shard's pops-done mark and re-reads exact occupancy.
// Each shard drains its inbound mailboxes at the end of its own pass
// in canonical sender order, so cycle-boundary state is bit-identical
// to the serial engine and the barrier's serial section only merges
// counters and refreshes credits — it never replays a link decision
// or moves a flit. Arbitration is derived from the cycle counter: each
// round-robin rotation of length d starts at cycle mod d during a
// cycle, so no rotation pointer is stored. The scan-everything engine
// both replaced is gone; the golden tests hold them to the per-cycle
// fingerprint digests it recorded (testdata/reference-golden.json),
// bit for bit, for every scenario class.
//
// # Arena and handle layout
//
// The hot path is pointer-free. Packet state lives in a
// struct-of-arrays arena (arena.go): parallel slices for ID, endpoints,
// creation/injection cycles, hop and receive counts, indexed by a small
// integer. A flit is a 64-bit handle packing (packet index, sequence
// number, VC tag); since the packet length is constant per network,
// seq == PacketLen-1 identifies the tail without any per-packet length
// field. Router input slots and output VC queues are fixed-capacity
// ring buffers of these handle words, carved from one block per router
// sized from Config.InBufCap/OutBufCap (router.go), and ports, rings and
// queues are value slices, so a phase drain walks a few cache lines per
// router and nothing is chased, grown or allocated inside a cycle; only
// the unbounded NI source queue (packet indices) can grow. The
// one-stage-per-cycle rule needs no per-flit state: each ring stamps
// the cycle of its last push and counts that cycle's pushes, and since
// this cycle's arrivals sit at the tail and cannot leave before the
// next, the head has already moved this cycle exactly when all resident
// flits were pushed in it. Both engines wrap every round-robin rotation
// by subtraction. The freelist of recycled packets is an index stack on
// the arena; recycling changes allocator traffic but never results.
//
// Per-router slot-occupancy masks (mask.go) are multi-word bitmaps with
// a power-of-two per-port stride, so any degree × VC product is
// supported by both engines (the old single-word masks forced large
// routers onto a scan-everything engine).
package noc
