package routing

import (
	"fmt"

	"gonoc/internal/topology"
)

// RingRouting is the paper's ring strategy: "clockwise or
// counterclockwise direction is taken from the source to the target
// node, depending on the shortest path direction", with the clockwise
// direction breaking exact ties deterministically. Two virtual channels
// with a dateline between nodes N-1 and 0 make the scheme deadlock-free.
type RingRouting struct {
	ring *topology.Ring
}

// NewRingRouting returns the shortest-direction algorithm for r.
func NewRingRouting(r *topology.Ring) *RingRouting { return &RingRouting{ring: r} }

// Name returns "ring-shortest".
func (a *RingRouting) Name() string { return "ring-shortest" }

// VCs returns 2: the paper's pair of output buffers per ring link.
func (a *RingRouting) VCs() int { return 2 }

// Route moves one hop along the shorter ring direction, switching to
// VC 1 when the hop crosses the dateline of its direction.
func (a *RingRouting) Route(cur, dst, vc int) Decision {
	n := a.ring.Nodes()
	cw := a.ring.ClockwiseDistance(cur, dst)
	dir := topology.DirClockwise
	if ccw := n - cw; ccw < cw {
		dir = topology.DirCounterClockwise
	}
	return Decision{Dir: dir, VC: ringVC(n, cur, dir, vc)}
}

// ringVC applies the dateline rule shared by ring and Spidergon ring
// channels: a clockwise hop from node N-1 to 0, or a counterclockwise
// hop from node 0 to N-1, moves the packet to VC 1. A packet never
// crosses its direction's dateline twice (paths are shorter than the
// ring), so the VC-1 channel dependency chain is acyclic.
func ringVC(n, cur int, dir topology.Direction, vc int) int {
	if dir == topology.DirClockwise && cur == n-1 {
		return 1
	}
	if dir == topology.DirCounterClockwise && cur == 0 {
		return 1
	}
	return vc
}

// SpidergonRouting is the paper's Across-first scheme: "first, if the
// target node for a packet is at distance D > N/4 on the external ring
// ... then the across link is traversed first, to reach the opposite
// node. Second, clockwise or counterclockwise direction is taken and
// maintained, depending on the target's position."
//
// The rule is evaluated per hop but is self-stabilising: after one
// across hop the remaining ring distance is strictly below N/4, so the
// across link is never chosen again and the "first" semantics hold
// without per-packet state.
type SpidergonRouting struct {
	sg *topology.Spidergon
}

// NewSpidergonRouting returns the Across-first algorithm for s.
func NewSpidergonRouting(s *topology.Spidergon) *SpidergonRouting {
	return &SpidergonRouting{sg: s}
}

// Name returns "across-first".
func (a *SpidergonRouting) Name() string { return "across-first" }

// VCs returns 2, as for the ring.
func (a *SpidergonRouting) VCs() int { return 2 }

// Route takes the across link when the ring distance exceeds N/4
// (restarting on VC 0, since the across hop begins a fresh ring
// traversal), otherwise the shorter ring direction under the dateline
// discipline.
func (a *SpidergonRouting) Route(cur, dst, vc int) Decision {
	n := a.sg.Nodes()
	ringD := a.sg.RingDistance(cur, dst)
	// Strict inequality: at exactly N/4 the ring path ties the across
	// path, and the paper's rule ("distance D > N/4") keeps the ring.
	if 4*ringD > n {
		return Decision{Dir: topology.DirAcross, VC: 0}
	}
	cw := ringCW(n, cur, dst)
	dir := topology.DirClockwise
	if ccw := n - cw; ccw < cw {
		dir = topology.DirCounterClockwise
	}
	return Decision{Dir: dir, VC: ringVC(n, cur, dir, vc)}
}

func ringCW(n, from, to int) int { return ((to-from)%n + n) % n }

// MeshXY is dimension-order routing for the mesh family: "flits from
// the source node migrate along the X (horizontal link) nodes up to the
// column of the target, then along the Y (vertical link) nodes up to
// the target node." XY is deadlock-free with a single buffer per
// channel because it never turns from Y back to X.
//
// On an irregular mesh (partial last row) pure XY can be impossible:
// a packet in the partial row may need a column that does not exist in
// that row. MeshXY then escapes north first (always minimal, since the
// partial row is the bottom row) and resumes XY. The escape introduces
// north→X turns only out of row rows-2, which cannot close a dependency
// cycle; TestMeshXYDeadlockFreeIrregular proves this exhaustively via
// the dependency-graph checker.
type MeshXY struct {
	mesh *topology.Mesh
}

// NewMeshXY returns dimension-order routing for m.
func NewMeshXY(m *topology.Mesh) *MeshXY { return &MeshXY{mesh: m} }

// Name returns "xy".
func (a *MeshXY) Name() string { return "xy" }

// VCs returns 1: the paper's single output buffer per mesh link.
func (a *MeshXY) VCs() int { return 1 }

// Route performs one XY step with the irregular-mesh north escape.
func (a *MeshXY) Route(cur, dst, vc int) Decision {
	m := a.mesh
	x, y := m.Coord(cur)
	dx, dy := m.Coord(dst)
	if m.Irregular() && y == m.Rows()-1 && dy != y {
		// Leaving the partial bottom row: go north before X so the X
		// traversal happens in a full row. (dy < y always holds here.)
		return Decision{Dir: topology.DirNorth, VC: 0}
	}
	switch {
	case x < dx:
		return Decision{Dir: topology.DirEast, VC: 0}
	case x > dx:
		return Decision{Dir: topology.DirWest, VC: 0}
	case y < dy:
		return Decision{Dir: topology.DirSouth, VC: 0}
	default:
		return Decision{Dir: topology.DirNorth, VC: 0}
	}
}

// MeshYX is the YX-order twin of MeshXY, used by the design-space
// experiments to quantify the (absence of) sensitivity to dimension
// order. It does not support irregular meshes.
type MeshYX struct {
	mesh *topology.Mesh
}

// NewMeshYX returns YX dimension-order routing for a full mesh m; it
// returns an error for irregular meshes, where the south-escape dual of
// the XY fix does not exist (the missing nodes are in the bottom row).
func NewMeshYX(m *topology.Mesh) (*MeshYX, error) {
	if m.Irregular() {
		return nil, fmt.Errorf("routing: yx routing unsupported on irregular mesh %s", m.Name())
	}
	return &MeshYX{mesh: m}, nil
}

// Name returns "yx".
func (a *MeshYX) Name() string { return "yx" }

// VCs returns 1.
func (a *MeshYX) VCs() int { return 1 }

// Route performs one YX step: vertical first, then horizontal.
func (a *MeshYX) Route(cur, dst, vc int) Decision {
	m := a.mesh
	x, y := m.Coord(cur)
	dx, dy := m.Coord(dst)
	switch {
	case y < dy:
		return Decision{Dir: topology.DirSouth, VC: 0}
	case y > dy:
		return Decision{Dir: topology.DirNorth, VC: 0}
	case x < dx:
		return Decision{Dir: topology.DirEast, VC: 0}
	default:
		return Decision{Dir: topology.DirWest, VC: 0}
	}
}
