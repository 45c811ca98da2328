package exp

import (
	"bytes"
	"context"
	"encoding/csv"
	"math"
	"reflect"
	"strings"
	"testing"

	"gonoc/internal/core"
)

// testCampaign is a small but real cross-product: 2 topologies × 1
// size × 2 rates × 3 replications = 12 simulations at reduced cycle
// counts.
func testCampaign() Campaign {
	return Campaign{
		Name:       "test",
		Topologies: []core.TopologyKind{core.Ring, core.Spidergon},
		Nodes:      []int{8},
		Traffics:   []TrafficSpec{{Kind: core.UniformTraffic}},
		FlitRates:  []float64{0.05, 0.2},
		Reps:       3,
		Seed:       42,
		Warmup:     200,
		Measure:    2000,
	}
}

// Campaign expansion is deterministic: two expansions agree exactly,
// replication seeds are distinct, and enumeration order is the
// documented nesting.
func TestPointsDeterministic(t *testing.T) {
	c := testCampaign()
	a, err := c.Points()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2*1*1*2*3 {
		t.Fatalf("expanded %d points", len(a))
	}
	seeds := map[uint64]bool{}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("point %d differs between expansions", i)
		}
		if a[i].Index != i {
			t.Fatalf("point %d has Index %d", i, a[i].Index)
		}
		seeds[a[i].Scenario.Seed] = true
	}
	if len(seeds) != len(a) {
		t.Fatalf("only %d distinct seeds for %d points", len(seeds), len(a))
	}
	// Nesting: first all reps of (ring, rate 0.05), then (ring, 0.2)…
	if a[0].Topo != core.Ring || a[0].FlitRate != 0.05 || a[0].Rep != 0 {
		t.Fatalf("unexpected first point %+v", a[0])
	}
	if a[2].Rep != 2 || a[3].FlitRate != 0.2 || a[3].Rep != 0 {
		t.Fatal("replications are not innermost")
	}
	if a[6].Topo != core.Spidergon {
		t.Fatalf("topology is not outermost: %+v", a[6])
	}
}

// The same campaign emits byte-identical JSONL at parallel 1, 4 and
// 16: scheduling must not leak into the output.
func TestJSONLByteIdenticalAcrossParallelism(t *testing.T) {
	c := testCampaign()
	var outs []*bytes.Buffer
	for _, parallel := range []int{1, 4, 16} {
		var buf bytes.Buffer
		r := Runner{Parallel: parallel}
		if _, err := r.Run(context.Background(), c, NewJSONLWriter(&buf)); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, &buf)
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0].Bytes(), outs[i].Bytes()) {
			t.Fatal("JSONL output differs across -parallel 1/4/16")
		}
	}
	// One run record per (scenario, replication), one summary per grid
	// point.
	lines := strings.Split(strings.TrimRight(outs[0].String(), "\n"), "\n")
	runs, summaries := 0, 0
	for _, l := range lines {
		switch {
		case strings.Contains(l, `"kind":"run"`):
			runs++
		case strings.Contains(l, `"kind":"summary"`):
			summaries++
		default:
			t.Fatalf("unclassifiable record: %s", l)
		}
	}
	if runs != 12 || summaries != 4 {
		t.Fatalf("got %d run and %d summary records, want 12 and 4", runs, summaries)
	}
}

// CSV output is deterministic across parallelism too.
func TestCSVByteIdenticalAcrossParallelism(t *testing.T) {
	c := testCampaign()
	var a, b bytes.Buffer
	if _, err := (Runner{Parallel: 1}).Run(context.Background(), c, NewCSVWriter(&a)); err != nil {
		t.Fatal(err)
	}
	if _, err := (Runner{Parallel: 8}).Run(context.Background(), c, NewCSVWriter(&b)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("CSV output differs across parallelism")
	}
	if !strings.HasPrefix(a.String(), "kind,campaign,topo,") {
		t.Fatalf("missing header: %q", strings.SplitN(a.String(), "\n", 2)[0])
	}
}

// Aggregates carry cross-replication means and CI95 half-widths with
// the documented semantics: reps counted, CI zero only when degenerate,
// and the mean equal to the arithmetic mean of the per-run records.
func TestAggregationCI95(t *testing.T) {
	agg := newAggregator()
	lat := []float64{10, 12, 14}
	for rep, v := range lat {
		agg.add(Outcome{
			Campaign: "t",
			Point:    Point{GridIndex: 0, Rep: rep, Topo: core.Ring, Nodes: 8, Traffic: "uniform", FlitRate: 0.1},
			Result:   core.Result{MeanLatency: v, Throughput: 0.5},
		})
	}
	aggs := agg.aggregates()
	if len(aggs) != 1 {
		t.Fatalf("%d aggregates", len(aggs))
	}
	a := aggs[0]
	if a.Reps != 3 {
		t.Fatalf("Reps = %d", a.Reps)
	}
	if math.Abs(a.Latency.Mean-12) > 1e-12 {
		t.Fatalf("latency mean = %v", a.Latency.Mean)
	}
	// sd = 2, stderr = 2/sqrt(3); 3 reps → 2 dof → t = 4.303, not the
	// normal 1.96 (which would understate the interval by 2.2×).
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(a.Latency.CI95-want) > 1e-12 {
		t.Fatalf("latency CI95 = %v, want %v", a.Latency.CI95, want)
	}
	// Identical replications collapse the interval to zero.
	if a.Throughput.CI95 != 0 {
		t.Fatalf("constant metric CI95 = %v", a.Throughput.CI95)
	}
}

// A single replication yields CI95 = 0, never NaN, so records always
// marshal.
func TestAggregationSingleRep(t *testing.T) {
	agg := newAggregator()
	agg.add(Outcome{Point: Point{GridIndex: 0}, Result: core.Result{MeanLatency: 5}})
	a := agg.aggregates()[0]
	if a.Reps != 1 || a.Latency.Mean != 5 || a.Latency.CI95 != 0 {
		t.Fatalf("single-rep aggregate: %+v", a)
	}
}

// Replications genuinely vary: distinct seeds must produce a non-zero
// CI95 on latency at a moderate load.
func TestReplicationsVary(t *testing.T) {
	c := testCampaign()
	aggs, err := RunCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 4 {
		t.Fatalf("%d aggregates", len(aggs))
	}
	varied := false
	for _, a := range aggs {
		if a.Reps != 3 {
			t.Fatalf("aggregate %v has Reps %d", a, a.Reps)
		}
		if a.Latency.CI95 > 0 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("all replications produced identical latency: seeds are not independent")
	}
}

// A replication that measured nothing (NaN latency) is skipped, not
// folded in: it must not poison the mean of the replications that did
// measure.
func TestAggregationSkipsNaN(t *testing.T) {
	agg := newAggregator()
	for rep, v := range []float64{10, math.NaN(), 14} {
		agg.add(Outcome{
			Point:  Point{GridIndex: 0, Rep: rep},
			Result: core.Result{MeanLatency: v, Throughput: 0.1},
		})
	}
	a := agg.aggregates()[0]
	if a.Reps != 3 {
		t.Fatalf("Reps = %d", a.Reps)
	}
	if a.Latency.Mean != 12 {
		t.Fatalf("latency mean = %v, want 12 from the two finite replications", a.Latency.Mean)
	}
}

// Explicit zero Warmup and Seed survive expansion: zero is a valid
// choice for both, not a request for defaults.
func TestZeroWarmupAndSeedHonored(t *testing.T) {
	c := testCampaign()
	c.Warmup, c.Seed = 0, 0
	pts, err := c.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Scenario.Warmup != 0 {
			t.Fatalf("explicit zero warmup rewritten to %d", p.Scenario.Warmup)
		}
	}
	c2 := testCampaign()
	c2.Warmup, c2.Seed = 0, 1
	pts2, err := c2.Points()
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Scenario.Seed == pts2[0].Scenario.Seed {
		t.Fatal("master seeds 0 and 1 derived the same replication seed")
	}
}

// CSV fields with embedded commas are quoted, not column-shifted.
func TestCSVQuotesFreeFormFields(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	err := w.Run(Outcome{
		Campaign: "ring,baseline",
		Point:    Point{Topo: core.Ring, Nodes: 8, Traffic: "hotspot, center", FlitRate: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[1]) != len(rows[0]) {
		t.Fatalf("rows misaligned: %v", rows)
	}
	if rows[1][1] != "ring,baseline" || rows[1][4] != "hotspot, center" {
		t.Fatalf("fields corrupted: %v", rows[1])
	}
}

// Cancelling the context aborts the campaign with the context error.
func TestRunnerCancellation(t *testing.T) {
	c := testCampaign()
	c.Reps = 50 // enough work that cancellation lands mid-campaign
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	r := Runner{Parallel: 2, Progress: func(done, total int) {
		n++
		if n == 3 {
			cancel()
		}
	}}
	_, err := r.Run(ctx, c)
	if err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
}

// An unbuildable grid cell surfaces as an expansion error naming the
// point.
func TestCampaignValidation(t *testing.T) {
	c := testCampaign()
	c.Topologies = []core.TopologyKind{"klein-bottle"}
	if _, err := c.Points(); err == nil {
		t.Fatal("bogus topology expanded without error")
	}
	c = testCampaign()
	c.FlitRates = nil
	if _, err := c.Points(); err == nil {
		t.Fatal("rateless campaign expanded without error")
	}
}

// Cells are validated once, through their first emitted replication —
// and that replication is still the one the error names: the first
// point of the first invalid cell, in enumeration order.
func TestCampaignValidationNamesFirstOffender(t *testing.T) {
	c := testCampaign()
	c.Nodes = []int{8, 7} // spidergon-7 is the only invalid geometry (odd)
	_, err := c.Points()
	if want := "exp: spidergon-7/uniform@0.05#0: "; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Points() error %v, want prefix %q", err, want)
	}
	// An extension round starts at the first replication it adds.
	_, err = c.pointsN(func(int) int { return 5 }, func(int) int { return 3 })
	if want := "exp: spidergon-7/uniform@0.05#3: "; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("pointsN() error %v, want prefix %q", err, want)
	}
	// Validity rules that read the rate see every cell, not one per curve.
	c = testCampaign()
	c.FlitRates = []float64{0.05, -0.2}
	_, err = c.Points()
	if want := "exp: ring-8/uniform@-0.2#0: "; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Points() error %v, want prefix %q", err, want)
	}
}

// Expansion cost is per point, not per point times topology: growing
// the fabric or the replication count adds no allocations (the point
// slice is one allocation either way; validation no longer builds a
// graph per replication).
func TestExpansionAllocsIndependentOfSizeAndReps(t *testing.T) {
	allocs := func(nodes, reps int) float64 {
		c := testCampaign()
		c.Topologies = []core.TopologyKind{core.Ring, core.Spidergon, core.Mesh}
		c.Nodes = []int{nodes}
		c.Reps = reps
		return testing.AllocsPerRun(5, func() {
			if _, err := c.Points(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(8, 2)
	if big := allocs(64, 20); big > small+2 {
		t.Fatalf("expanding 64-node cells x 20 reps costs %.0f allocations, 8-node cells x 2 reps %.0f", big, small)
	}
}

// The runner's progress callback counts every run exactly once, in
// order.
func TestRunnerProgress(t *testing.T) {
	c := testCampaign()
	var seen []int
	r := Runner{Parallel: 4, Progress: func(done, total int) {
		if total != 12 {
			t.Fatalf("total = %d", total)
		}
		seen = append(seen, done)
	}}
	if _, err := r.Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 12 || seen[0] != 1 || seen[11] != 12 {
		t.Fatalf("progress sequence %v", seen)
	}
}
