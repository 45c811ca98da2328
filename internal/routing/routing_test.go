package routing

import (
	"strings"
	"testing"
	"testing/quick"

	"gonoc/internal/topology"
)

func TestRingRoutingMinimalAndConnected(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8, 12, 17, 24} {
		r := topology.MustRing(n)
		a := NewRingRouting(r)
		if err := CheckMinimal(a, r); err != nil {
			t.Fatalf("ring-%d: %v", n, err)
		}
	}
}

func TestRingRoutingTieBreaksClockwise(t *testing.T) {
	r := topology.MustRing(8)
	a := NewRingRouting(r)
	// 0 -> 4 is an exact tie; the rule picks clockwise.
	d := a.Route(0, 4, 0)
	if d.Dir != topology.DirClockwise {
		t.Fatalf("tie broke to %v", d.Dir)
	}
}

func TestRingDatelineVCSwitch(t *testing.T) {
	r := topology.MustRing(8)
	a := NewRingRouting(r)
	// Clockwise across the 7->0 boundary switches to VC 1.
	d := a.Route(7, 2, 0)
	if d.Dir != topology.DirClockwise || d.VC != 1 {
		t.Fatalf("dateline cw decision = %+v", d)
	}
	// Counterclockwise across 0->7 switches to VC 1.
	d = a.Route(0, 6, 0)
	if d.Dir != topology.DirCounterClockwise || d.VC != 1 {
		t.Fatalf("dateline ccw decision = %+v", d)
	}
	// VC 1 is sticky once set.
	d = a.Route(1, 3, 1)
	if d.VC != 1 {
		t.Fatalf("vc1 not sticky: %+v", d)
	}
	// Ordinary hops keep VC 0.
	d = a.Route(2, 5, 0)
	if d.VC != 0 {
		t.Fatalf("ordinary hop moved to vc %d", d.VC)
	}
}

func TestRingRoutingDeadlockFree(t *testing.T) {
	for _, n := range []int{4, 8, 13, 16} {
		r := topology.MustRing(n)
		if err := CheckDeadlockFree(NewRingRouting(r), r); err != nil {
			t.Fatalf("ring-%d: %v", n, err)
		}
	}
}

// A single-VC ring MUST show a dependency cycle — this validates that
// the checker actually detects deadlock, and documents why the paper's
// ring needs its second output buffer.
func TestSingleVCRingHasCycle(t *testing.T) {
	r := topology.MustRing(8)
	a := &singleVCRing{ring: r}
	err := CheckDeadlockFree(a, r)
	if err == nil {
		t.Fatal("single-VC ring reported deadlock-free")
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// singleVCRing routes like RingRouting but without the dateline.
type singleVCRing struct{ ring *topology.Ring }

func (a *singleVCRing) Name() string { return "ring-novc" }
func (a *singleVCRing) VCs() int     { return 1 }
func (a *singleVCRing) Route(cur, dst, vc int) Decision {
	n := a.ring.Nodes()
	cw := ringCW(n, cur, dst)
	dir := topology.DirClockwise
	if n-cw < cw {
		dir = topology.DirCounterClockwise
	}
	return Decision{Dir: dir, VC: 0}
}

func TestSpidergonRoutingMinimal(t *testing.T) {
	for _, n := range []int{4, 6, 8, 12, 16, 20, 30, 32} {
		s := topology.MustSpidergon(n)
		a := NewSpidergonRouting(s)
		if err := CheckMinimal(a, s); err != nil {
			t.Fatalf("spidergon-%d: %v", n, err)
		}
	}
}

func TestSpidergonAcrossFirstSemantics(t *testing.T) {
	s := topology.MustSpidergon(16)
	a := NewSpidergonRouting(s)
	// 0 -> 8 is opposite: across, then done.
	p, err := Path(a, s, 0, 8)
	if err != nil || len(p) != 2 || p[1] != 8 {
		t.Fatalf("opposite path = %v, %v", p, err)
	}
	// 0 -> 7: ring distance 7 > 4, so across to 8 then ccw to 7.
	p, err = Path(a, s, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p[1] != 8 {
		t.Fatalf("across-first not taken: %v", p)
	}
	// After the across hop the across link must never appear again.
	for i := 1; i+1 < len(p); i++ {
		ch, _ := topology.ChannelBetween(s, p[i], p[i+1])
		if ch.Dir == topology.DirAcross {
			t.Fatalf("across taken twice in %v", p)
		}
	}
	// 0 -> 4: ring distance exactly N/4 = 4; the rule keeps the ring.
	p, err = Path(a, s, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p[1] != 1 {
		t.Fatalf("boundary distance should stay on ring: %v", p)
	}
}

func TestSpidergonDirectionMaintained(t *testing.T) {
	// Once on the ring, the direction never flips.
	s := topology.MustSpidergon(20)
	a := NewSpidergonRouting(s)
	for src := 0; src < 20; src++ {
		for dst := 0; dst < 20; dst++ {
			if src == dst {
				continue
			}
			p, err := Path(a, s, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			sawCW, sawCCW := false, false
			for i := 0; i+1 < len(p); i++ {
				ch, _ := topology.ChannelBetween(s, p[i], p[i+1])
				switch ch.Dir {
				case topology.DirClockwise:
					sawCW = true
				case topology.DirCounterClockwise:
					sawCCW = true
				}
			}
			if sawCW && sawCCW {
				t.Fatalf("path %v mixes ring directions", p)
			}
		}
	}
}

func TestSpidergonRoutingDeadlockFree(t *testing.T) {
	for _, n := range []int{8, 12, 16, 24} {
		s := topology.MustSpidergon(n)
		if err := CheckDeadlockFree(NewSpidergonRouting(s), s); err != nil {
			t.Fatalf("spidergon-%d: %v", n, err)
		}
	}
}

func TestMeshXYMinimalAndDeadlockFree(t *testing.T) {
	for _, d := range []struct{ c, r int }{{2, 4}, {4, 6}, {3, 3}, {5, 4}, {1, 6}, {8, 2}} {
		m := topology.MustMesh(d.c, d.r)
		a := NewMeshXY(m)
		if err := CheckMinimal(a, m); err != nil {
			t.Fatalf("mesh %dx%d: %v", d.c, d.r, err)
		}
		if err := CheckDeadlockFree(a, m); err != nil {
			t.Fatalf("mesh %dx%d: %v", d.c, d.r, err)
		}
	}
}

func TestMeshXYPathShape(t *testing.T) {
	m := topology.MustMesh(4, 4)
	a := NewMeshXY(m)
	// 0 (0,0) -> 15 (3,3): all X moves then all Y moves.
	p, err := Path(a, m, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 7, 11, 15}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

func TestMeshXYIrregularMinimalDeadlockFree(t *testing.T) {
	for _, n := range []int{5, 7, 10, 11, 13, 14, 18, 23, 27} {
		m := topology.MustIrregularMesh(n)
		a := NewMeshXY(m)
		if err := CheckConnected(a, m); err != nil {
			t.Fatalf("imesh-%d: %v", n, err)
		}
		if err := CheckMinimal(a, m); err != nil {
			t.Fatalf("imesh-%d: %v", n, err)
		}
		if err := CheckDeadlockFree(a, m); err != nil {
			t.Fatalf("imesh-%d: %v", n, err)
		}
	}
}

func TestMeshXYNorthEscape(t *testing.T) {
	// imesh-13 is 4 cols, 3 full rows + node 12 at (0,3).
	m := topology.MustIrregularMesh(13)
	a := NewMeshXY(m)
	// From 12, destination column 3 (node 11 at (3,2)): must escape
	// north first because (1,3) does not exist.
	d := a.Route(12, 11, 0)
	if d.Dir != topology.DirNorth {
		t.Fatalf("escape decision = %+v", d)
	}
	p, err := Path(a, m, 12, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(p)-1 != topology.BFS(m, 12)[11] {
		t.Fatalf("escape path %v not minimal", p)
	}
}

func TestMeshYX(t *testing.T) {
	m := topology.MustMesh(4, 4)
	a, err := NewMeshYX(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMinimal(a, m); err != nil {
		t.Fatal(err)
	}
	if err := CheckDeadlockFree(a, m); err != nil {
		t.Fatal(err)
	}
	// YX goes vertical first.
	p, _ := Path(a, m, 0, 15)
	if p[1] != 4 {
		t.Fatalf("yx path = %v", p)
	}
	if _, err := NewMeshYX(topology.MustIrregularMesh(7)); err == nil {
		t.Fatal("yx accepted an irregular mesh")
	}
}

// mixedOrder is minimal on a full mesh but turn-unrestricted: XY toward
// even destinations, YX toward odd ones. Together the two orders take
// every turn, so the dependency checker must find the cycle that a
// single dimension order avoids.
type mixedOrder struct{ xy, yx Algorithm }

func (a mixedOrder) Name() string { return "mixed-order" }
func (a mixedOrder) VCs() int     { return 1 }
func (a mixedOrder) Route(cur, dst, vc int) Decision {
	if dst%2 == 0 {
		return a.xy.Route(cur, dst, vc)
	}
	return a.yx.Route(cur, dst, vc)
}

func TestUnrestrictedMinimalHasCycle(t *testing.T) {
	m := topology.MustMesh(3, 3)
	yx, err := NewMeshYX(m)
	if err != nil {
		t.Fatal(err)
	}
	a := mixedOrder{xy: NewMeshXY(m), yx: yx}
	if err := CheckMinimal(a, m); err != nil {
		t.Fatal(err)
	}
	if err := CheckDeadlockFree(a, m); err == nil {
		t.Fatal("turn-unrestricted minimal routing reported deadlock-free")
	}
}

func TestPathSelfIsTrivial(t *testing.T) {
	r := topology.MustRing(6)
	p, err := Path(NewRingRouting(r), r, 2, 2)
	if err != nil || len(p) != 1 || p[0] != 2 {
		t.Fatalf("self path = %v, %v", p, err)
	}
}

func TestPathDetectsBadAlgorithm(t *testing.T) {
	r := topology.MustRing(6)
	bad := badAlg{}
	if _, err := Path(bad, r, 0, 3); err == nil {
		t.Fatal("missing-direction algorithm not detected")
	}
	if _, err := Path(badVC{}, r, 0, 3); err == nil {
		t.Fatal("out-of-range VC not detected")
	}
	if _, err := Path(loopAlg{}, r, 0, 3); err == nil {
		t.Fatal("looping algorithm not detected")
	}
}

type badAlg struct{}

func (badAlg) Name() string { return "bad" }
func (badAlg) VCs() int     { return 1 }
func (badAlg) Route(cur, dst, vc int) Decision {
	return Decision{Dir: topology.DirEast, VC: 0} // rings have no east
}

type badVC struct{}

func (badVC) Name() string { return "badvc" }
func (badVC) VCs() int     { return 1 }
func (badVC) Route(cur, dst, vc int) Decision {
	return Decision{Dir: topology.DirClockwise, VC: 5}
}

type loopAlg struct{}

func (loopAlg) Name() string { return "loop" }
func (loopAlg) VCs() int     { return 2 }
func (loopAlg) Route(cur, dst, vc int) Decision {
	// Alternate VCs so (node, vc) states don't repeat early, but never
	// make progress toward most destinations: always clockwise, which
	// on a ring does terminate... so use vc to oscillate direction.
	if vc == 0 {
		return Decision{Dir: topology.DirClockwise, VC: 1}
	}
	return Decision{Dir: topology.DirCounterClockwise, VC: 0}
}

func TestDependencyGraphStats(t *testing.T) {
	r := topology.MustRing(8)
	g, err := BuildDependencyGraph(NewRingRouting(r), r)
	if err != nil {
		t.Fatal(err)
	}
	if g.Resources() == 0 || g.Edges() == 0 {
		t.Fatalf("degenerate CDG: %d resources %d edges", g.Resources(), g.Edges())
	}
	if g.FindCycle() != nil {
		t.Fatal("dateline ring CDG has a cycle")
	}
}

// Property: spidergon across-first hop count equals the analytic
// distance for random pairs and sizes.
func TestPropertySpidergonHops(t *testing.T) {
	f := func(nRaw, sRaw, dRaw uint8) bool {
		n := 6 + 2*(int(nRaw)%14)
		s := topology.MustSpidergon(n)
		a := NewSpidergonRouting(s)
		src, dst := int(sRaw)%n, int(dRaw)%n
		if src == dst {
			return true
		}
		h, err := HopCount(a, s, src, dst)
		return err == nil && h == s.Distance(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: XY on random full meshes always routes in exactly the
// Manhattan distance with at most one X->Y turn.
func TestPropertyMeshXYOneTurn(t *testing.T) {
	f := func(cRaw, rRaw, sRaw, dRaw uint8) bool {
		c, r := 2+int(cRaw)%6, 2+int(rRaw)%6
		m := topology.MustMesh(c, r)
		n := m.Nodes()
		src, dst := int(sRaw)%n, int(dRaw)%n
		if src == dst {
			return true
		}
		a := NewMeshXY(m)
		p, err := Path(a, m, src, dst)
		if err != nil || len(p)-1 != m.Distance(src, dst) {
			return false
		}
		turns := 0
		lastWasX := true
		for i := 0; i+1 < len(p); i++ {
			ch, _ := topology.ChannelBetween(m, p[i], p[i+1])
			isX := ch.Dir == topology.DirEast || ch.Dir == topology.DirWest
			if i > 0 && lastWasX != isX {
				turns++
			}
			lastWasX = isX
		}
		return turns <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
