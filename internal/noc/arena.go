package noc

import "fmt"

// This file is the struct-of-arrays packet arena and the packed flit
// handle — the pointer-free representation behind the hot path. Every
// packet leased by Inject is one index into parallel field slices;
// every flit in a router buffer is one 64-bit handle word packing
// (packet index, sequence number, VC tag). The phase drains in
// active.go/parallel.go therefore walk dense arrays of integers: no
// pointer is ever chased (or allocated) inside a cycle. A record holds
// per-packet state only: the one-stage-per-cycle stamp of a flit
// belongs to the ring buffer holding it (router.go).

// Handle field widths. The VC tag sits in the low bits so retagging a
// flit at switch traversal is one masked or; the packet index occupies
// the top 38 bits, far beyond any reachable live population.
const (
	vcBits  = 6
	seqBits = 20
	vcMask  = 1<<vcBits - 1
	seqMask = 1<<seqBits - 1

	// MaxVCs and MaxPacketLen bound the geometry a network can be built
	// with, so every (vc, seq) pair fits its handle field; NewNetwork
	// rejects anything larger. Both sit orders of magnitude above the
	// paper's parameters (2 VCs, 6-flit packets).
	MaxVCs       = 1 << vcBits
	MaxPacketLen = 1 << seqBits
)

// flitH is a flit handle: the packed (packet index, seq, VC) word the
// router buffers store. Packet length is constant per network
// (Config.PacketLen), so the handle needs no tail bit: seq ==
// PacketLen-1 identifies the tail.
type flitH uint64

// mkFlit packs a handle.
func mkFlit(pkt int32, seq, vc int) flitH {
	return flitH(uint64(pkt)<<(vcBits+seqBits) | uint64(seq)<<vcBits | uint64(vc))
}

// pkt returns the arena index of the flit's packet.
func (h flitH) pkt() int32 { return int32(h >> (vcBits + seqBits)) }

// seq returns the flit's 0-based position within its packet.
func (h flitH) seq() int { return int(h>>vcBits) & seqMask }

// vc returns the virtual-channel tag the flit currently carries.
func (h flitH) vc() int { return int(h) & vcMask }

// withVC returns the handle retagged to travel on vc (the switch stage
// moves a flit onto the output VC its worm won).
func (h flitH) withVC(vc int) flitH { return h&^vcMask | flitH(vc) }

// packetArena holds every packet record of a network in parallel field
// slices, indexed by the handle's packet index. Records are leased and
// recycled through freeStack, an index stack; index reuse changes
// allocator traffic only, never results.
type packetArena struct {
	// pktLen is the constant Config.PacketLen of the owning network;
	// per-record length storage would duplicate it PacketLen-fold.
	pktLen int

	id       []uint64 // unique per network, in creation order
	src, dst []int32  // endpoint node ids
	created  []uint64 // cycle the IP generated the packet
	injected []uint64 // cycle the head flit left the source queue
	hops     []int32  // link traversals of the head flit
	recv     []int32  // flits consumed at the destination so far
	free     []bool   // resident on freeStack (not leased)

	// freeStack holds the indices of recycled records, leased LIFO.
	freeStack []int32
}

// len returns the number of records ever allocated (the population
// high-water mark).
func (a *packetArena) len() int { return len(a.id) }

// grow appends one zeroed record, returning its index. Growth
// allocates; the steady state of a pooled run leases from freeStack
// instead.
func (a *packetArena) grow() int32 {
	idx := len(a.id)
	a.id = append(a.id, 0)
	a.src = append(a.src, 0)
	a.dst = append(a.dst, 0)
	a.created = append(a.created, 0)
	a.injected = append(a.injected, 0)
	a.hops = append(a.hops, 0)
	a.recv = append(a.recv, 0)
	a.free = append(a.free, false)
	return int32(idx)
}

// bytes reports the resident bytes of the arena's record slices and
// free stack at the current population (lengths, not capacities, so
// the figure is a pure function of the scenario, independent of the
// allocator's growth policy).
func (a *packetArena) bytes() uint64 {
	const recBytes = 8 + 4 + 4 + 8 + 8 + 4 + 4 + 1 // id,src,dst,created,injected,hops,recv,free
	return uint64(a.len())*recBytes + uint64(len(a.freeStack))*4
}

// pktString renders record pi as its ID, endpoints and length, for
// panics and conservation errors (cold paths only).
func (n *Network) pktString(pi int32) string {
	a := &n.arena
	return fmt.Sprintf("pkt%d %d->%d len=%d", a.id[pi], a.src[pi], a.dst[pi], a.pktLen)
}
