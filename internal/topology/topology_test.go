package topology

import (
	"fmt"
	"testing"
	"testing/quick"
)

// directions lists every Direction in [0, DirCount) with its name and
// opposite.
var directions = []struct {
	d        Direction
	name     string
	opposite Direction
}{
	{DirInvalid, "invalid", DirInvalid},
	{DirClockwise, "cw", DirCounterClockwise},
	{DirCounterClockwise, "ccw", DirClockwise},
	{DirAcross, "across", DirAcross},
	{DirEast, "east", DirWest},
	{DirWest, "west", DirEast},
	{DirNorth, "north", DirSouth},
	{DirSouth, "south", DirNorth},
	{DirChord, "chord", DirChordBack},
	{DirChordBack, "chord-back", DirChord},
}

// Every direction of the enum has its own non-empty name, and values
// outside the enum render as direction(n).
func TestDirectionString(t *testing.T) {
	if len(directions) != int(DirCount) {
		t.Fatalf("table covers %d directions, the enum has %d", len(directions), DirCount)
	}
	seen := map[string]bool{}
	for i, tc := range directions {
		if tc.d != Direction(i) {
			t.Fatalf("table row %d holds direction %d", i, int(tc.d))
		}
		got := tc.d.String()
		if got != tc.name {
			t.Errorf("%d.String() = %q, want %q", i, got, tc.name)
		}
		if seen[got] {
			t.Errorf("name %q is not unique", got)
		}
		seen[got] = true
	}
	for _, d := range []Direction{DirCount, -1} {
		if got, want := d.String(), fmt.Sprintf("direction(%d)", int(d)); got != want {
			t.Errorf("%d.String() = %q, want %q", int(d), got, want)
		}
	}
}

// Opposite maps every direction into [0, DirCount), and the opposite of
// the opposite is the direction itself.
func TestDirectionOpposite(t *testing.T) {
	for _, tc := range directions {
		o := tc.d.Opposite()
		if o != tc.opposite {
			t.Errorf("%v.Opposite() = %v, want %v", tc.d, o, tc.opposite)
		}
		if o < 0 || o >= DirCount {
			t.Errorf("%v.Opposite() = %d, outside [0, DirCount)", tc.d, int(o))
		}
		if o.Opposite() != tc.d {
			t.Errorf("%v.Opposite().Opposite() = %v", tc.d, o.Opposite())
		}
	}
}

func TestChannelString(t *testing.T) {
	c := Channel{ID: 0, Src: 1, Dst: 2, Dir: DirEast}
	if c.String() != "1 -east-> 2" {
		t.Errorf("channel string = %q", c.String())
	}
}

func TestRingConstruction(t *testing.T) {
	r := MustRing(8)
	if r.Nodes() != 8 {
		t.Fatalf("nodes = %d", r.Nodes())
	}
	if LinkCount(r) != 16 { // paper: 2N links
		t.Fatalf("links = %d, want 16", LinkCount(r))
	}
	for v := 0; v < 8; v++ {
		if Degree(r, v) != 2 {
			t.Fatalf("degree(%d) = %d, want 2", v, Degree(r, v))
		}
		cw, ok := r.Neighbor(v, DirClockwise)
		if !ok || cw != (v+1)%8 {
			t.Fatalf("cw neighbor of %d = %d", v, cw)
		}
		ccw, ok := r.Neighbor(v, DirCounterClockwise)
		if !ok || ccw != (v+7)%8 {
			t.Fatalf("ccw neighbor of %d = %d", v, ccw)
		}
	}
}

func TestRingTooSmall(t *testing.T) {
	if _, err := NewRing(2); err == nil {
		t.Fatal("ring of 2 accepted")
	}
	if _, err := NewRing(0); err == nil {
		t.Fatal("ring of 0 accepted")
	}
}

func TestRingDistanceMatchesBFS(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8, 13, 20} {
		r := MustRing(n)
		for a := 0; a < n; a++ {
			bfs := BFS(r, a)
			for b := 0; b < n; b++ {
				if r.Distance(a, b) != bfs[b] {
					t.Fatalf("ring-%d Distance(%d,%d)=%d, BFS=%d", n, a, b, r.Distance(a, b), bfs[b])
				}
			}
		}
	}
}

func TestRingClockwiseDistance(t *testing.T) {
	r := MustRing(10)
	if r.ClockwiseDistance(2, 5) != 3 {
		t.Fatal("cw distance forward")
	}
	if r.ClockwiseDistance(5, 2) != 7 {
		t.Fatal("cw distance wrap")
	}
	if r.ClockwiseDistance(4, 4) != 0 {
		t.Fatal("cw distance self")
	}
}

func TestRingDiameter(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{3, 1}, {4, 2}, {8, 4}, {9, 4}, {16, 8}} {
		r := MustRing(tc.n)
		if r.Diameter() != tc.want {
			t.Errorf("ring-%d analytic diameter = %d, want %d", tc.n, r.Diameter(), tc.want)
		}
		if got := Diameter(r); got != tc.want {
			t.Errorf("ring-%d BFS diameter = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestSpidergonConstruction(t *testing.T) {
	s := MustSpidergon(12)
	if LinkCount(s) != 36 { // paper: 3N links
		t.Fatalf("links = %d, want 36", LinkCount(s))
	}
	for v := 0; v < 12; v++ {
		if Degree(s, v) != 3 { // paper: constant node degree 3
			t.Fatalf("degree(%d) = %d, want 3", v, Degree(s, v))
		}
		ac, ok := s.Neighbor(v, DirAcross)
		if !ok || ac != (v+6)%12 {
			t.Fatalf("across neighbor of %d = %d", v, ac)
		}
	}
	if s.Across(3) != 9 || s.Across(9) != 3 {
		t.Fatal("across computation")
	}
}

func TestSpidergonRejectsBadN(t *testing.T) {
	if _, err := NewSpidergon(7); err == nil {
		t.Fatal("odd spidergon accepted")
	}
	if _, err := NewSpidergon(2); err == nil {
		t.Fatal("tiny spidergon accepted")
	}
}

func TestSpidergonDistanceMatchesBFS(t *testing.T) {
	for _, n := range []int{4, 6, 8, 10, 12, 16, 22, 32, 40} {
		s := MustSpidergon(n)
		for a := 0; a < n; a++ {
			bfs := BFS(s, a)
			for b := 0; b < n; b++ {
				if s.Distance(a, b) != bfs[b] {
					t.Fatalf("spidergon-%d Distance(%d,%d)=%d, BFS=%d",
						n, a, b, s.Distance(a, b), bfs[b])
				}
			}
		}
	}
}

func TestSpidergonDiameter(t *testing.T) {
	// Paper: ND = ceiling(N/4).
	for _, tc := range []struct{ n, want int }{
		{8, 2}, {12, 3}, {16, 4}, {20, 5}, {22, 6}, {32, 8},
	} {
		s := MustSpidergon(tc.n)
		if s.Diameter() != tc.want {
			t.Errorf("spidergon-%d analytic ND = %d, want %d", tc.n, s.Diameter(), tc.want)
		}
		if got := Diameter(s); got != tc.want {
			t.Errorf("spidergon-%d BFS ND = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestMeshConstruction(t *testing.T) {
	m := MustMesh(4, 3) // 4 cols, 3 rows
	if m.Nodes() != 12 {
		t.Fatalf("nodes = %d", m.Nodes())
	}
	// Paper: 2(m-1)n + 2(n-1)m channels.
	want := 2*(4-1)*3 + 2*(3-1)*4
	if LinkCount(m) != want {
		t.Fatalf("links = %d, want %d", LinkCount(m), want)
	}
	// Corner degree 2, edge degree 3, interior degree 4.
	if Degree(m, 0) != 2 {
		t.Fatalf("corner degree = %d", Degree(m, 0))
	}
	if Degree(m, 1) != 3 {
		t.Fatalf("edge degree = %d", Degree(m, 1))
	}
	if Degree(m, 5) != 4 { // (1,1) interior
		t.Fatalf("interior degree = %d", Degree(m, 5))
	}
}

func TestMeshCoords(t *testing.T) {
	m := MustMesh(4, 3)
	x, y := m.Coord(6)
	if x != 2 || y != 1 {
		t.Fatalf("coord(6) = (%d,%d)", x, y)
	}
	id, ok := m.NodeAt(2, 1)
	if !ok || id != 6 {
		t.Fatalf("nodeAt(2,1) = %d,%v", id, ok)
	}
	if _, ok := m.NodeAt(4, 0); ok {
		t.Fatal("out-of-range x accepted")
	}
	if _, ok := m.NodeAt(0, 3); ok {
		t.Fatal("out-of-range y accepted")
	}
	if _, ok := m.NodeAt(-1, 0); ok {
		t.Fatal("negative x accepted")
	}
}

func TestMeshNeighborDirections(t *testing.T) {
	m := MustMesh(3, 3)
	// Center node 4 at (1,1).
	for _, tc := range []struct {
		dir  Direction
		want int
	}{{DirEast, 5}, {DirWest, 3}, {DirNorth, 1}, {DirSouth, 7}} {
		got, ok := m.Neighbor(4, tc.dir)
		if !ok || got != tc.want {
			t.Fatalf("neighbor(4,%v) = %d,%v want %d", tc.dir, got, ok, tc.want)
		}
	}
	// Corner 0 has no west/north.
	if _, ok := m.Neighbor(0, DirWest); ok {
		t.Fatal("corner has west neighbor")
	}
	if _, ok := m.Neighbor(0, DirNorth); ok {
		t.Fatal("corner has north neighbor")
	}
}

func TestMeshDistanceAndDiameter(t *testing.T) {
	m := MustMesh(4, 6)
	if m.Distance(0, 23) != 3+5 {
		t.Fatalf("manhattan distance = %d", m.Distance(0, 23))
	}
	if m.Diameter() != 8 { // paper: ND = m+n-2
		t.Fatalf("diameter = %d", m.Diameter())
	}
	if Diameter(m) != 8 {
		t.Fatalf("BFS diameter = %d", Diameter(m))
	}
	// Full mesh: Manhattan == BFS everywhere.
	for a := 0; a < m.Nodes(); a++ {
		bfs := BFS(m, a)
		for b := 0; b < m.Nodes(); b++ {
			if m.Distance(a, b) != bfs[b] {
				t.Fatalf("mesh distance(%d,%d) mismatch", a, b)
			}
		}
	}
}

func TestMeshInvalid(t *testing.T) {
	if _, err := NewMesh(0, 5); err == nil {
		t.Fatal("0-column mesh accepted")
	}
	if _, err := NewMesh(1, 1); err == nil {
		t.Fatal("1x1 mesh accepted")
	}
}

func TestIrregularMeshCoversExactlyN(t *testing.T) {
	for n := 2; n <= 70; n++ {
		m := MustIrregularMesh(n)
		if m.Nodes() != n {
			t.Fatalf("irregular mesh %d has %d nodes", n, m.Nodes())
		}
		if !IsConnected(m) {
			t.Fatalf("irregular mesh %d disconnected", n)
		}
	}
}

func TestIrregularMeshPerfectSquareIsIdeal(t *testing.T) {
	m := MustIrregularMesh(16)
	if m.Cols() != 4 || m.Rows() != 4 || m.Irregular() {
		t.Fatalf("imesh-16 = %dx%d irregular=%v", m.Cols(), m.Rows(), m.Irregular())
	}
}

func TestIrregularMeshPartialLastRow(t *testing.T) {
	m := MustIrregularMesh(13) // 4 cols: 3 full rows + 1 node
	if m.Cols() != 4 || m.Rows() != 4 || m.LastRowNodes() != 1 || !m.Irregular() {
		t.Fatalf("imesh-13 shape = %dx%d last=%d", m.Cols(), m.Rows(), m.LastRowNodes())
	}
	// Node 12 at (0,3) exists; (1,3) does not.
	if _, ok := m.NodeAt(0, 3); !ok {
		t.Fatal("(0,3) missing")
	}
	if _, ok := m.NodeAt(1, 3); ok {
		t.Fatal("(1,3) should not exist")
	}
	// Node 12 connects only north to node 8.
	if Degree(m, 12) != 1 {
		t.Fatalf("degree(12) = %d", Degree(m, 12))
	}
}

func TestFactorMesh(t *testing.T) {
	m := MustFactorMesh(24)
	if m.Cols() != 4 || m.Rows() != 6 {
		t.Fatalf("factor mesh 24 = %dx%d, want 4x6", m.Cols(), m.Rows())
	}
	m = MustFactorMesh(13) // prime: chain
	if m.Cols() != 1 || m.Rows() != 13 {
		t.Fatalf("factor mesh 13 = %dx%d, want 1x13", m.Cols(), m.Rows())
	}
	if Diameter(m) != 12 {
		t.Fatalf("chain diameter = %d", Diameter(m))
	}
}

func TestTorusConstruction(t *testing.T) {
	tr := MustTorus(4, 4)
	if tr.Nodes() != 16 || LinkCount(tr) != 64 {
		t.Fatalf("torus 4x4: nodes=%d links=%d", tr.Nodes(), LinkCount(tr))
	}
	for v := 0; v < 16; v++ {
		if Degree(tr, v) != 4 {
			t.Fatalf("torus degree(%d) = %d", v, Degree(tr, v))
		}
	}
	// Wraparound: node 0's west neighbor is 3, north neighbor is 12.
	if w, _ := tr.Neighbor(0, DirWest); w != 3 {
		t.Fatalf("torus west wrap = %d", w)
	}
	if nn, _ := tr.Neighbor(0, DirNorth); nn != 12 {
		t.Fatalf("torus north wrap = %d", nn)
	}
}

func TestTorusDistanceMatchesBFS(t *testing.T) {
	tr := MustTorus(5, 3)
	for a := 0; a < tr.Nodes(); a++ {
		bfs := BFS(tr, a)
		for b := 0; b < tr.Nodes(); b++ {
			if tr.Distance(a, b) != bfs[b] {
				t.Fatalf("torus distance(%d,%d)=%d bfs=%d", a, b, tr.Distance(a, b), bfs[b])
			}
		}
	}
	if tr.Diameter() != Diameter(tr) {
		t.Fatal("torus analytic diameter mismatch")
	}
}

func TestTorusRejectsSmall(t *testing.T) {
	if _, err := NewTorus(2, 4); err == nil {
		t.Fatal("2-wide torus accepted")
	}
}

func TestChordalRing(t *testing.T) {
	c := MustChordalRing(10, 3)
	if c.Stride() != 3 {
		t.Fatal("stride")
	}
	// Degree 4: cw, ccw, chord out, chord in-reverse.
	for v := 0; v < 10; v++ {
		if Degree(c, v) != 4 {
			t.Fatalf("chordal degree(%d) = %d", v, Degree(c, v))
		}
	}
	if !IsConnected(c) {
		t.Fatal("chordal ring disconnected")
	}
	// Chords shorten paths: ring-10 diameter 5, chordal must be smaller.
	if Diameter(c) >= 5 {
		t.Fatalf("chordal diameter = %d, want < 5", Diameter(c))
	}
}

func TestChordalRingValidation(t *testing.T) {
	if _, err := NewChordalRing(10, 5); err == nil {
		t.Fatal("stride n/2 accepted (should direct to spidergon)")
	}
	if _, err := NewChordalRing(10, 1); err == nil {
		t.Fatal("stride 1 accepted")
	}
	if _, err := NewChordalRing(10, 9); err == nil {
		t.Fatal("stride n-1 accepted")
	}
	if _, err := NewChordalRing(4, 2); err == nil {
		t.Fatal("n=4 accepted")
	}
}

func TestChannelIDsDense(t *testing.T) {
	for _, top := range []Topology{
		MustRing(8), MustSpidergon(8), MustMesh(3, 3), MustTorus(3, 3),
		MustIrregularMesh(11), MustChordalRing(9, 2),
	} {
		for i, c := range top.Channels() {
			if c.ID != i {
				t.Fatalf("%s: channel %d has id %d", top.Name(), i, c.ID)
			}
		}
	}
}

func TestChannelBetween(t *testing.T) {
	m := MustMesh(3, 3)
	c, ok := ChannelBetween(m, 0, 1)
	if !ok || c.Dir != DirEast {
		t.Fatalf("channel 0->1 = %v,%v", c, ok)
	}
	if _, ok := ChannelBetween(m, 0, 8); ok {
		t.Fatal("non-adjacent channel found")
	}
}

func TestInOutConsistency(t *testing.T) {
	for _, top := range []Topology{
		MustRing(9), MustSpidergon(10), MustMesh(4, 5),
		MustIrregularMesh(14), MustTorus(3, 4), MustChordalRing(11, 3),
	} {
		outSum, inSum := 0, 0
		for v := 0; v < top.Nodes(); v++ {
			outSum += len(top.Out(v))
			inSum += len(top.In(v))
			for _, c := range top.Out(v) {
				if c.Src != v {
					t.Fatalf("%s: out channel of %d has src %d", top.Name(), v, c.Src)
				}
			}
			for _, c := range top.In(v) {
				if c.Dst != v {
					t.Fatalf("%s: in channel of %d has dst %d", top.Name(), v, c.Dst)
				}
			}
		}
		if outSum != LinkCount(top) || inSum != LinkCount(top) {
			t.Fatalf("%s: in/out totals %d/%d != %d", top.Name(), inSum, outSum, LinkCount(top))
		}
	}
}

func TestSymmetricDigraph(t *testing.T) {
	// Every channel has a reverse channel (unidirectional pairs).
	for _, top := range []Topology{
		MustRing(7), MustSpidergon(12), MustMesh(4, 4),
		MustIrregularMesh(10), MustTorus(3, 3), MustChordalRing(9, 2),
	} {
		for _, c := range top.Channels() {
			if _, ok := ChannelBetween(top, c.Dst, c.Src); !ok {
				t.Fatalf("%s: channel %v has no reverse", top.Name(), c)
			}
		}
	}
}

func TestLooksVertexSymmetric(t *testing.T) {
	if !LooksVertexSymmetric(MustRing(10)) {
		t.Error("ring should be vertex symmetric")
	}
	if !LooksVertexSymmetric(MustSpidergon(12)) {
		t.Error("spidergon should be vertex symmetric")
	}
	if !LooksVertexSymmetric(MustTorus(4, 4)) {
		t.Error("torus should be vertex symmetric")
	}
	if LooksVertexSymmetric(MustMesh(3, 3)) {
		t.Error("mesh should not be vertex symmetric")
	}
	if LooksVertexSymmetric(MustIrregularMesh(7)) {
		t.Error("irregular mesh should not be vertex symmetric")
	}
}

func TestMinMaxDegree(t *testing.T) {
	m := MustMesh(4, 4)
	if MinDegree(m) != 2 || MaxDegree(m) != 4 {
		t.Fatalf("mesh degrees = %d..%d", MinDegree(m), MaxDegree(m))
	}
	s := MustSpidergon(8)
	if MinDegree(s) != 3 || MaxDegree(s) != 3 {
		t.Fatalf("spidergon degrees = %d..%d", MinDegree(s), MaxDegree(s))
	}
}

func TestBisectionChannels(t *testing.T) {
	// Ring: 2 links cross the cut, each 2 channels = 4.
	if got := BisectionChannels(MustRing(8)); got != 4 {
		t.Fatalf("ring bisection = %d, want 4", got)
	}
	// Spidergon N: ring cut 4 + N/2 across channels... across links from
	// i<N/2 go to i+N/2 in the other half: N/2 forward + N/2 reverse.
	if got := BisectionChannels(MustSpidergon(8)); got != 4+8 {
		t.Fatalf("spidergon-8 bisection = %d, want 12", got)
	}
	// 4x4 mesh horizontal cut: 4 links * 2 = 8 channels.
	if got := BisectionChannels(MustMesh(4, 4)); got != 8 {
		t.Fatalf("mesh bisection = %d, want 8", got)
	}
}

func TestDistanceHistogram(t *testing.T) {
	r := MustRing(6)
	h := DistanceHistogram(r)
	// Distances from each node: 0,1,1,2,2,3 -> per node: one 0, two 1s,
	// two 2s, one 3. Times 6 nodes.
	want := []int{6, 12, 12, 6}
	if len(h) != len(want) {
		t.Fatalf("histogram = %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
}

func TestEccentricityAndRadius(t *testing.T) {
	m := MustMesh(3, 3)
	if Eccentricity(m, 4) != 2 { // center
		t.Fatalf("center eccentricity = %d", Eccentricity(m, 4))
	}
	if Eccentricity(m, 0) != 4 { // corner
		t.Fatalf("corner eccentricity = %d", Eccentricity(m, 0))
	}
	if Radius(m) != 2 {
		t.Fatalf("radius = %d", Radius(m))
	}
}

func TestShortestPath(t *testing.T) {
	m := MustMesh(3, 3)
	p := ShortestPath(m, 0, 8)
	if len(p) != 5 || p[0] != 0 || p[4] != 8 {
		t.Fatalf("path = %v", p)
	}
	// Consecutive nodes adjacent.
	for i := 0; i+1 < len(p); i++ {
		if _, ok := ChannelBetween(m, p[i], p[i+1]); !ok {
			t.Fatalf("path step %d->%d not a channel", p[i], p[i+1])
		}
	}
	if got := ShortestPath(m, 3, 3); len(got) != 1 || got[0] != 3 {
		t.Fatalf("self path = %v", got)
	}
}

func TestPathExists(t *testing.T) {
	if !PathExists(MustRing(5), 0, 3) {
		t.Fatal("ring path missing")
	}
}

func TestAllPairsDistancesSymmetric(t *testing.T) {
	for _, top := range []Topology{MustSpidergon(10), MustIrregularMesh(11)} {
		d := AllPairsDistances(top)
		n := top.Nodes()
		for i := 0; i < n; i++ {
			if d[i][i] != 0 {
				t.Fatalf("%s: d[%d][%d] = %d", top.Name(), i, i, d[i][i])
			}
			for j := 0; j < n; j++ {
				if d[i][j] != d[j][i] {
					t.Fatalf("%s: asymmetric distances %d,%d", top.Name(), i, j)
				}
			}
		}
	}
}

// Property: triangle inequality holds for BFS distances on spidergons.
func TestPropertyTriangleInequality(t *testing.T) {
	f := func(nRaw, aRaw, bRaw, cRaw uint8) bool {
		n := 6 + 2*(int(nRaw)%14) // even 6..32
		s := MustSpidergon(n)
		a, b, c := int(aRaw)%n, int(bRaw)%n, int(cRaw)%n
		return s.Distance(a, c) <= s.Distance(a, b)+s.Distance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: the paper's link-count formulas hold for all sizes.
func TestPropertyLinkCountFormulas(t *testing.T) {
	f := func(raw uint8) bool {
		n := 6 + 2*(int(raw)%20)
		if LinkCount(MustRing(n)) != 2*n {
			return false
		}
		if LinkCount(MustSpidergon(n)) != 3*n {
			return false
		}
		cols, rows := 2+int(raw)%5, 2+int(raw/5)%5
		want := 2*(cols-1)*rows + 2*(rows-1)*cols
		return LinkCount(MustMesh(cols, rows)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: irregular mesh diameter lies between ideal-mesh and
// chain bounds and the graph stays connected.
func TestPropertyIrregularMeshSane(t *testing.T) {
	f := func(raw uint8) bool {
		n := 4 + int(raw)%60
		m := MustIrregularMesh(n)
		if m.Nodes() != n || !IsConnected(m) {
			return false
		}
		d := Diameter(m)
		return d >= 1 && d <= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
