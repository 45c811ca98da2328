package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"gonoc/internal/analysis"
)

// cacheKeyVersion tags the canonical encoding. Bump it whenever the
// encoding below or the semantics of any hashed field change, so stale
// cache entries from older binaries can never be mistaken for current
// results.
const cacheKeyVersion = "gonoc-scenario-v1"

// CacheKey returns the content-addressed identity of the scenario: a
// hex digest over the normalized specification, seed included. Two
// scenarios with equal keys run the identical simulation bit for bit,
// so a result store may replay a cached Result instead of re-running.
//
// Normalization resolves the spec choices that do not change the
// simulation: unset mesh dimensions collapse to the ideal
// factorisation Build would pick anyway. Everything else — including
// the hot-spot target order, which steers per-packet RNG draws — is
// hashed literally.
func (s Scenario) CacheKey() string {
	var b strings.Builder
	b.WriteString(cacheKeyVersion)
	cols, rows := s.normalizedDims()
	fmt.Fprintf(&b, "|topo=%s|n=%d|cols=%d|rows=%d", s.Topo, s.Nodes, cols, rows)
	fmt.Fprintf(&b, "|traffic=%s|hotspots=%v|perm=%s", s.Traffic, s.HotSpots, s.Permutation)
	fmt.Fprintf(&b, "|lambda=%x|routing=%s|process=%d", s.Lambda, s.Routing, int(s.Process))
	fmt.Fprintf(&b, "|warmup=%d|measure=%d|seed=%d", s.Warmup, s.Measure, s.Seed)
	c := s.Config
	fmt.Fprintf(&b, "|plen=%d|outbuf=%d|inbuf=%d|sink=%d|inject=%d|srcq=%d|switch=%d",
		c.PacketLen, c.OutBufCap, c.InBufCap, c.SinkRate, c.InjectRate, c.SourceQueueCap, int(c.Switching))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// normalizedDims resolves the mesh dimension choice Build would
// make for unset Cols/Rows, so the identity keys below hash what is
// actually simulated. CacheKey and networkKey share it: the two must
// normalize identically or a Workspace could reuse a network whose
// geometry differs from what Build constructs.
func (s Scenario) normalizedDims() (cols, rows int) {
	cols, rows = s.Cols, s.Rows
	if s.Topo == Mesh && (cols <= 0 || rows <= 0) {
		cols, rows = analysis.IdealMeshDims(s.Nodes)
	}
	return cols, rows
}

// networkKey identifies the scenario fields a built noc.Network depends
// on — interconnect, routing and buffer geometry, with mesh
// dimensions normalized exactly as in CacheKey (shared helper). Two
// scenarios with equal networkKeys can run on the same (Reset) network;
// traffic, rates, seeds and horizons deliberately stay out, which is
// what lets a Workspace reuse one network across every replication and
// rate point of a campaign curve.
func (s Scenario) networkKey() string {
	cols, rows := s.normalizedDims()
	c := s.Config
	return fmt.Sprintf("%s|%d|%d|%d|%s|%d|%d|%d|%d|%d|%d|%d",
		s.Topo, s.Nodes, cols, rows, s.Routing,
		c.PacketLen, c.OutBufCap, c.InBufCap, c.SinkRate, c.InjectRate, c.SourceQueueCap, int(c.Switching))
}
