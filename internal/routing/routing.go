// Package routing implements the deterministic routing algorithms the
// paper assigns to each topology — shortest-direction for the Ring,
// Across-first for the Spidergon, dimension-order (XY) for the 2D Mesh —
// plus the YX twin of XY for dimension-order ablations. Every algorithm
// is a pure function of (node, destination, virtual channel).
//
// Deadlock avoidance follows the paper's buffer architecture: Ring and
// Spidergon channels carry two virtual channels operated as a dateline
// scheme (a packet starts on VC 0 and moves to VC 1 on the channel that
// crosses the ring's dateline), while the mesh needs a single buffer
// because XY routing is turn-restricted. The package also provides a
// channel-dependency-graph checker that proves deadlock freedom of any
// deterministic algorithm on any topology by exhaustive path
// enumeration.
package routing

import (
	"fmt"

	"gonoc/internal/topology"
)

// Decision is one routing step: the direction of the output channel to
// take from the current node, and the virtual channel to occupy on it.
type Decision struct {
	Dir topology.Direction
	VC  int
}

// Algorithm is a deterministic, incremental (per-hop) routing function.
//
// Route is evaluated at every node a packet's head flit visits,
// including the source. cur is the current node, dst the destination
// (cur != dst), and vc the virtual channel the packet currently
// occupies — pass 0 at the source, then feed back the VC of the
// previous Decision. The returned Decision names an output channel that
// must exist at cur.
type Algorithm interface {
	// Name identifies the algorithm, e.g. "xy" or "across-first".
	Name() string
	// VCs returns the number of virtual channels the algorithm
	// requires on every network channel (1 or 2 for the paper's
	// topologies).
	VCs() int
	// Route returns the next hop from cur toward dst.
	Route(cur, dst, vc int) Decision
}

// Path walks the algorithm from src to dst on t and returns the node
// sequence, inclusive. It returns an error if the algorithm names a
// non-existent channel, exceeds 4·N hops (livelock), or revisits a
// (node, vc) state.
func Path(a Algorithm, t topology.Topology, src, dst int) ([]int, error) {
	if src == dst {
		return []int{src}, nil
	}
	limit := 4 * t.Nodes()
	path := []int{src}
	cur, vc := src, 0
	seen := map[[2]int]bool{{src, 0}: true}
	for cur != dst {
		if len(path) > limit {
			return nil, fmt.Errorf("routing: %s exceeded %d hops from %d to %d", a.Name(), limit, src, dst)
		}
		d := a.Route(cur, dst, vc)
		next, ok := t.Neighbor(cur, d.Dir)
		if !ok {
			return nil, fmt.Errorf("routing: %s at node %d toward %d chose missing direction %v", a.Name(), cur, dst, d.Dir)
		}
		if d.VC < 0 || d.VC >= a.VCs() {
			return nil, fmt.Errorf("routing: %s chose vc %d outside 0..%d", a.Name(), d.VC, a.VCs()-1)
		}
		cur, vc = next, d.VC
		state := [2]int{cur, vc}
		if cur != dst && seen[state] {
			return nil, fmt.Errorf("routing: %s revisits node %d vc %d en route %d->%d", a.Name(), cur, vc, src, dst)
		}
		seen[state] = true
		path = append(path, cur)
	}
	return path, nil
}

// HopCount returns the number of hops the algorithm takes from src to
// dst, or an error from Path.
func HopCount(a Algorithm, t topology.Topology, src, dst int) (int, error) {
	p, err := Path(a, t, src, dst)
	if err != nil {
		return 0, err
	}
	return len(p) - 1, nil
}

// CheckConnected verifies the algorithm delivers every (src, dst) pair
// on t, returning the first failure.
func CheckConnected(a Algorithm, t topology.Topology) error {
	n := t.Nodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if _, err := Path(a, t, s, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckMinimal verifies the algorithm's path length equals the BFS
// shortest-path distance for every pair. All three of the paper's
// routing schemes are minimal on their topologies.
func CheckMinimal(a Algorithm, t topology.Topology) error {
	n := t.Nodes()
	for s := 0; s < n; s++ {
		dist := topology.BFS(t, s)
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			hops, err := HopCount(a, t, s, d)
			if err != nil {
				return err
			}
			if hops != dist[d] {
				return fmt.Errorf("routing: %s takes %d hops %d->%d, shortest is %d", a.Name(), hops, s, d, dist[d])
			}
		}
	}
	return nil
}
