package core

import (
	"fmt"

	"gonoc/internal/analysis"
)

// This file encodes the hot-spot target placements of Section 3.1.2 of
// the paper (translated from its 1-based to this module's 0-based node
// numbering).
//
// For the 2D mesh: "scenario A is with 2 targets on the opposite
// corners (nodes 1 and N), scenario B is with one target in the corner
// (node 1) and the second one in the middle (node 5 with 2*4=8 mesh and
// node 14 with 4*6=24 mesh), and scenario [C] is with both targets in
// the middle (nodes 5 and 6 with 2*4=8 mesh, and nodes 14 and 15 with
// 4*6=24 mesh)".
//
// For Ring and Spidergon: "scenario A is with two targets in opposition
// (North-South position) on the ring, and scenario B is with two
// targets in North and West positions".

// Placement selects a double-hot-spot target arrangement.
type Placement rune

// The paper's placements. PlacementC applies to meshes only.
const (
	PlacementA Placement = 'A'
	PlacementB Placement = 'B'
	PlacementC Placement = 'C'
)

// MeshCenter returns the 0-based id of the paper's "middle" node of a
// cols×rows mesh: node 5 on the 2×4 mesh and node 14 on the 4×6 mesh
// (1-based), i.e. (cols/2-1, rows/2).
func MeshCenter(cols, rows int) int {
	x := cols/2 - 1
	if x < 0 {
		x = 0
	}
	return rows/2*cols + x
}

// DoubleHotspots returns the two target nodes for the given topology
// kind, node count and placement. For meshes, cols/rows may be zero to
// use the balanced factorisation.
func DoubleHotspots(kind TopologyKind, n int, p Placement, cols, rows int) ([]int, error) {
	switch kind {
	case Ring, Spidergon:
		switch p {
		case PlacementA:
			// North-South opposition.
			return []int{0, n / 2}, nil
		case PlacementB:
			// North and West: three quarters of the way clockwise.
			return []int{0, 3 * n / 4}, nil
		default:
			return nil, fmt.Errorf("core: placement %c undefined for %s", p, kind)
		}
	case Mesh, FactorMesh, IrregularMesh:
		if cols <= 0 || rows <= 0 {
			cols, rows = analysis.IdealMeshDims(n)
		}
		center := MeshCenter(cols, rows)
		switch p {
		case PlacementA:
			return []int{0, n - 1}, nil
		case PlacementB:
			return []int{0, center}, nil
		case PlacementC:
			if center+1 >= n {
				return nil, fmt.Errorf("core: mesh too small for placement C")
			}
			return []int{center, center + 1}, nil
		default:
			return nil, fmt.Errorf("core: placement %c undefined for %s", p, kind)
		}
	default:
		return nil, fmt.Errorf("core: unknown topology kind %q", kind)
	}
}

// SingleHotspot returns the paper's single-target choice: node 0 for the
// vertex-symmetric ring and Spidergon ("in symmetric Ring and Spidergon
// this would not have difference") and, for meshes, either the corner
// (center=false) or the middle node (center=true) — the paper examines
// both since mesh results depend on placement.
func SingleHotspot(kind TopologyKind, n int, center bool, cols, rows int) int {
	switch kind {
	case Mesh, FactorMesh, IrregularMesh:
		if !center {
			return 0
		}
		if cols <= 0 || rows <= 0 {
			cols, rows = analysis.IdealMeshDims(n)
		}
		return MeshCenter(cols, rows)
	default:
		return 0
	}
}
