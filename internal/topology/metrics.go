package topology

import (
	"fmt"
	"sort"
)

// This file computes exact graph-theoretic metrics by breadth-first
// search. They are the ground truth against which the paper's
// closed-form ND and E[D] expressions (package analysis) are validated,
// and they are the only way to evaluate the irregular "real" meshes for
// which no closed form exists.

// BFS returns the shortest-path hop distance from src to every node.
// Unreachable nodes get distance -1.
func BFS(t Topology, src int) []int {
	n := t.Nodes()
	if src < 0 || src >= n {
		panic(fmt.Sprintf("topology: BFS source %d out of range", src))
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range t.Out(v) {
			if dist[c.Dst] < 0 {
				dist[c.Dst] = dist[v] + 1
				queue = append(queue, c.Dst)
			}
		}
	}
	return dist
}

// AllPairsDistances returns the full N×N distance matrix via one BFS per
// node. Entry [i][j] is -1 when j is unreachable from i.
func AllPairsDistances(t Topology) [][]int {
	n := t.Nodes()
	d := make([][]int, n)
	for i := 0; i < n; i++ {
		d[i] = BFS(t, i)
	}
	return d
}

// IsConnected reports whether every node reaches every other node.
func IsConnected(t Topology) bool {
	if t.Nodes() == 0 {
		return true
	}
	for _, d := range BFS(t, 0) {
		if d < 0 {
			return false
		}
	}
	// Directed graphs additionally need the reverse reachability; all
	// topologies here are symmetric digraphs, but check anyway so the
	// function is honest for arbitrary inputs.
	rev := newGraph("rev", t.Nodes())
	for _, c := range t.Channels() {
		rev.addChannel(c.Dst, c.Src, c.Dir)
	}
	for _, d := range BFS(rev, 0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// Diameter returns the maximum shortest-path distance over all ordered
// node pairs — the paper's worst-case index ND. It panics if the
// topology is disconnected (ND is undefined there).
func Diameter(t Topology) int {
	max := 0
	for i := 0; i < t.Nodes(); i++ {
		for j, d := range BFS(t, i) {
			if d < 0 {
				panic(fmt.Sprintf("topology: %s is disconnected (%d unreachable from %d)", t.Name(), j, i))
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// AverageDistance returns the mean shortest-path length over all ordered
// pairs of distinct nodes — the paper's E[D]. It panics on a
// disconnected topology.
func AverageDistance(t Topology) float64 {
	n := t.Nodes()
	if n < 2 {
		return 0
	}
	sum := 0
	for i := 0; i < n; i++ {
		for j, d := range BFS(t, i) {
			if d < 0 {
				panic(fmt.Sprintf("topology: %s is disconnected (%d unreachable from %d)", t.Name(), j, i))
			}
			sum += d
		}
	}
	return float64(sum) / float64(n*(n-1))
}

// Eccentricity returns the greatest distance from node v to any node.
func Eccentricity(t Topology, v int) int {
	max := 0
	for _, d := range BFS(t, v) {
		if d < 0 {
			panic(fmt.Sprintf("topology: %s is disconnected", t.Name()))
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Radius returns the minimum eccentricity over all nodes.
func Radius(t Topology) int {
	r := -1
	for v := 0; v < t.Nodes(); v++ {
		e := Eccentricity(t, v)
		if r < 0 || e < r {
			r = e
		}
	}
	return r
}

// DistanceHistogram returns counts[d] = number of ordered pairs at
// distance d, for d in 0..Diameter.
func DistanceHistogram(t Topology) []int {
	var counts []int
	for i := 0; i < t.Nodes(); i++ {
		for _, d := range BFS(t, i) {
			if d < 0 {
				panic(fmt.Sprintf("topology: %s is disconnected", t.Name()))
			}
			for d >= len(counts) {
				counts = append(counts, 0)
			}
			counts[d]++
		}
	}
	return counts
}

// distanceProfile is the sorted multiset of distances from one node,
// used as a cheap vertex-symmetry invariant.
func distanceProfile(t Topology, v int) []int {
	d := BFS(t, v)
	p := make([]int, len(d))
	copy(p, d)
	sort.Ints(p)
	return p
}

// LooksVertexSymmetric checks a strong necessary condition for vertex
// transitivity: every node has the same degree and the same sorted
// distance profile. The paper claims this property for Ring and
// Spidergon; meshes fail it (corners differ from interior nodes). The
// check is not a full automorphism test, hence "Looks".
func LooksVertexSymmetric(t Topology) bool {
	n := t.Nodes()
	if n == 0 {
		return true
	}
	deg0 := Degree(t, 0)
	p0 := distanceProfile(t, 0)
	for v := 1; v < n; v++ {
		if Degree(t, v) != deg0 {
			return false
		}
		p := distanceProfile(t, v)
		for i := range p {
			if p[i] != p0[i] {
				return false
			}
		}
	}
	return true
}

// BisectionChannels returns the number of unidirectional channels that
// cross a minimum balanced cut of the topology (⌊N/2⌋ nodes against
// the rest): the textbook bisection width in channels (halve it for
// physical links). The cut is exact on rings, Spidergon and full
// meshes, and an upper bound on irregular meshes:
//   - ring: the contiguous half (ids below N/2), which cuts two links;
//   - Spidergon: two opposite quarter arcs, which keep every across link
//     inside one half (exactly one crosses when N ≡ 2 mod 4), so the
//     cut is 8 channels for N ≡ 0 and 10 for N ≡ 2 (mod 4) — the
//     contiguous half would cut all N/2 across links;
//   - full mesh, factor meshes included: the smaller of the balanced
//     row-major and column-major cuts, i.e. a straight cut across the
//     longer dimension (with a one-node jog when N is odd);
//   - irregular mesh: the row-major cut, an upper bound on the minimum.
func BisectionChannels(t Topology) int {
	n := t.Nodes()
	half := n / 2
	lowIDs := func(v int) bool { return v < half }
	switch g := t.(type) {
	case *Spidergon:
		q := n / 4
		return crossingChannels(t, func(v int) bool { return v < q || (v >= g.half && v < n-q) })
	case *Mesh:
		if !g.Irregular() {
			colMajor := func(v int) bool {
				x, y := g.Coord(v)
				return x*g.rows+y < half
			}
			return min(crossingChannels(t, lowIDs), crossingChannels(t, colMajor))
		}
	}
	return crossingChannels(t, lowIDs)
}

// crossingChannels counts the channels with exactly one end in the set
// inFirst selects.
func crossingChannels(t Topology, inFirst func(v int) bool) int {
	cross := 0
	for _, c := range t.Channels() {
		if inFirst(c.Src) != inFirst(c.Dst) {
			cross++
		}
	}
	return cross
}

// PathExists reports whether dst is reachable from src.
func PathExists(t Topology, src, dst int) bool {
	return BFS(t, src)[dst] >= 0
}

// ShortestPath returns one shortest path from src to dst as a node
// sequence (inclusive of both endpoints), or nil when unreachable.
// Among equal-length paths the lexicographically first by channel order
// is returned, deterministically.
func ShortestPath(t Topology, src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	n := t.Nodes()
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == dst {
			break
		}
		for _, c := range t.Out(v) {
			if dist[c.Dst] < 0 {
				dist[c.Dst] = dist[v] + 1
				prev[c.Dst] = v
				queue = append(queue, c.Dst)
			}
		}
	}
	if dist[dst] < 0 {
		return nil
	}
	path := []int{dst}
	for v := dst; v != src; v = prev[v] {
		path = append(path, prev[v])
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
