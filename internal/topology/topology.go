// Package topology models the Network-on-Chip interconnect graphs the
// paper compares: Ring, Spidergon and the 2D Mesh family (ideal square,
// factorised rectangular, and irregular meshes with a partially filled
// last row).
//
// A topology is a directed multigraph of unidirectional channels: per the
// paper, "channels as unidirectional pairs of links", so every physical
// bidirectional link contributes two Channel values. Channel identifiers
// are dense and deterministic, so routing tables, buffer arrays and
// dependency graphs can be indexed by them directly.
package topology

import "fmt"

// Direction labels the class of a channel at its source node. Routing
// functions use directions to express decisions ("go clockwise", "take
// the across link") instead of raw neighbour ids.
type Direction int

// Channel direction classes. Ring and Spidergon use Clockwise,
// CounterClockwise and Across; the mesh family uses the four compass
// directions.
const (
	DirInvalid Direction = iota
	DirClockwise
	DirCounterClockwise
	DirAcross
	DirEast
	DirWest
	DirNorth
	DirSouth

	// DirCount bounds the enum for dense per-direction tables.
	DirCount
)

// dirNames is indexed by Direction; the array length ties it to the
// enum, so a direction added without a name renders as "".
var dirNames = [DirCount]string{
	DirInvalid:          "invalid",
	DirClockwise:        "cw",
	DirCounterClockwise: "ccw",
	DirAcross:           "across",
	DirEast:             "east",
	DirWest:             "west",
	DirNorth:            "north",
	DirSouth:            "south",
}

// String returns the lowercase conventional name of the direction, or
// direction(n) outside the enum.
func (d Direction) String() string {
	if d >= 0 && d < DirCount {
		return dirNames[d]
	}
	return fmt.Sprintf("direction(%d)", int(d))
}

// Channel is one unidirectional link from Src to Dst. ID is the dense
// index of the channel within its topology (stable across runs).
type Channel struct {
	ID  int
	Src int
	Dst int
	Dir Direction
}

// String renders the channel as "src -dir-> dst".
func (c Channel) String() string {
	return fmt.Sprintf("%d -%s-> %d", c.Src, c.Dir, c.Dst)
}

// Topology is the read-only interface all interconnect graphs satisfy.
type Topology interface {
	// Name identifies the instance, e.g. "spidergon-16" or "mesh-4x6".
	Name() string
	// Nodes returns the node count N; nodes are numbered 0..N-1.
	Nodes() int
	// Channels returns all unidirectional channels in ID order. The
	// returned slice is shared; callers must not modify it.
	Channels() []Channel
	// Out returns the channels leaving node, in deterministic order.
	Out(node int) []Channel
	// In returns the channels entering node, in deterministic order.
	In(node int) []Channel
	// Neighbor returns the node reached from node via direction d,
	// with ok=false when no such channel exists.
	Neighbor(node int, d Direction) (int, bool)
}

// graph is the shared storage behind every concrete topology.
type graph struct {
	name     string
	n        int
	channels []Channel
	out      [][]Channel
	in       [][]Channel
}

func newGraph(name string, n int) *graph {
	return &graph{
		name: name,
		n:    n,
		out:  make([][]Channel, n),
		in:   make([][]Channel, n),
	}
}

// addChannel appends a unidirectional channel and returns it.
func (g *graph) addChannel(src, dst int, dir Direction) Channel {
	if src < 0 || src >= g.n || dst < 0 || dst >= g.n {
		panic(fmt.Sprintf("topology: channel %d->%d out of range (n=%d)", src, dst, g.n))
	}
	if src == dst {
		panic(fmt.Sprintf("topology: self-loop at node %d", src))
	}
	c := Channel{ID: len(g.channels), Src: src, Dst: dst, Dir: dir}
	g.channels = append(g.channels, c)
	g.out[src] = append(g.out[src], c)
	g.in[dst] = append(g.in[dst], c)
	return c
}

func (g *graph) Name() string        { return g.name }
func (g *graph) Nodes() int          { return g.n }
func (g *graph) Channels() []Channel { return g.channels }

func (g *graph) Out(node int) []Channel { return g.out[node] }
func (g *graph) In(node int) []Channel  { return g.in[node] }

func (g *graph) Neighbor(node int, d Direction) (int, bool) {
	for _, c := range g.out[node] {
		if c.Dir == d {
			return c.Dst, true
		}
	}
	return -1, false
}

// ChannelBetween returns the channel from src to dst on t, with ok=false
// when the nodes are not adjacent in that orientation.
func ChannelBetween(t Topology, src, dst int) (Channel, bool) {
	for _, c := range t.Out(src) {
		if c.Dst == dst {
			return c, true
		}
	}
	return Channel{}, false
}

// Degree returns the out-degree of node (the paper's "node degree",
// counting physical links, which equals out-channels under the
// unidirectional-pair convention).
func Degree(t Topology, node int) int { return len(t.Out(node)) }

// MaxDegree returns the largest node degree in the topology.
func MaxDegree(t Topology) int {
	m := 0
	for v := 0; v < t.Nodes(); v++ {
		if d := Degree(t, v); d > m {
			m = d
		}
	}
	return m
}

// MinDegree returns the smallest node degree in the topology.
func MinDegree(t Topology) int {
	if t.Nodes() == 0 {
		return 0
	}
	m := Degree(t, 0)
	for v := 1; v < t.Nodes(); v++ {
		if d := Degree(t, v); d < m {
			m = d
		}
	}
	return m
}

// LinkCount returns the number of unidirectional channels — the paper's
// "number of network links" (2N for Ring, 3N for Spidergon,
// 2(m-1)n + 2(n-1)m for an m×n mesh).
func LinkCount(t Topology) int { return len(t.Channels()) }
