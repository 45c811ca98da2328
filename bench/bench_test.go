package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// The dist probe re-executes the running binary as a worker; under `go
// test` that binary is the test binary, so it must honour the same
// environment switch main does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(distWorkerEnv); spec != "" {
		if err := serveDistWorker(spec); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median / quantiles(n=4).
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{10, 20, 30, 40}, 25, 12.5, 37.5},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, 5, 2, 8},
		{[]float64{1.5, 1.5, 1.5}, 1.5, 1.5, 1.5},
		{[]float64{4}, 4, 4, 4},
		{nil, 0, 0, 0},
	} {
		q1, q3 := quartiles(tc.xs)
		if m := median(tc.xs); m != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%v: median %g q1 %g q3 %g, want %g %g %g", tc.xs, m, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{10, 20, 30, 40}); s != 1 {
		t.Errorf("spread = %g, want (37.5-12.5)/25 = 1", s)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false},
		{19, 0, false}, // 9.5 samples above the median
		{20, 0.5, true},
		{99, 0.5, true}, // 9.9 beyond p90
		{100, 0.9, true},
		{199, 0.9, true},
		{200, 0.95, true},
		{624, 0.95, true}, // paper.cold's point count: 6 beyond p99
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		if p, ok := tailPercentile(tc.n); p != tc.p || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, p, ok, tc.p, tc.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.95, 100}, {1, 100}, {0.01, 10}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	iv := func(id, parent int, name string, lo, hi int) span {
		return span{ID: id, Parent: parent, Name: name, Start: ms(lo), End: ms(hi), Calls: 1, Busy: ms(hi - lo)}
	}
	for _, tc := range []struct {
		name  string
		spans []span
		want  map[int]time.Duration
	}{
		{"children are subtracted",
			[]span{iv(0, -1, "bench.unit", 0, 100), iv(1, 0, "exp.a", 10, 30), iv(2, 0, "exp.b", 50, 90)},
			map[int]time.Duration{0: ms(40), 1: ms(20), 2: ms(40)}},
		{"overlapping children are not counted twice",
			[]span{iv(0, -1, "bench.unit", 0, 100), iv(1, 0, "core.p", 10, 60), iv(2, 0, "core.p", 40, 80), iv(3, 0, "core.p", 50, 55)},
			map[int]time.Duration{0: ms(30), 1: ms(50), 2: ms(40), 3: ms(5)}},
		{"children are clipped to the parent",
			[]span{iv(0, -1, "bench.unit", 10, 50), iv(1, 0, "exp.a", 0, 20), iv(2, 0, "exp.b", 40, 70)},
			map[int]time.Duration{0: ms(20)}},
		{"a batch child counts its busy time, not its envelope",
			[]span{iv(0, -1, "sim.RunUntil", 0, 100), {ID: 1, Parent: 0, Name: "noc.step", Start: 0, End: ms(100), Calls: 1000, Busy: ms(70)}},
			map[int]time.Duration{0: ms(30), 1: ms(70)}},
		{"grandchildren only reduce their own parent",
			[]span{iv(0, -1, "bench.unit", 0, 100), iv(1, 0, "exp.run", 0, 80), iv(2, 1, "exp.sink", 10, 30)},
			map[int]time.Duration{0: ms(20), 1: ms(60), 2: ms(20)}},
	} {
		got := selfTimes(tc.spans)
		for id, want := range tc.want {
			if got[id] != want {
				t.Errorf("%s: self[%d] = %v, want %v", tc.name, id, got[id], want)
			}
		}
	}

	layers, wall := layerSelf([]span{
		iv(0, -1, "bench.unit", 0, 100), iv(1, 0, "sim.RunUntil", 10, 90),
		{ID: 2, Parent: 1, Name: "noc.step", Start: ms(10), End: ms(90), Calls: 50, Busy: ms(60)},
		iv(3, -1, "bench.probes", 200, 300), iv(4, 3, "stats.probe", 200, 250),
	})
	want := map[string]time.Duration{"bench": ms(70), "sim": ms(20), "noc": ms(60), "stats": ms(50)}
	if fmt.Sprint(layers) != fmt.Sprint(want) || wall != ms(200) {
		t.Errorf("layerSelf = %v over %v, want %v over 200ms", layers, wall, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program naming the same
// workloads and metrics, and checks the file against the driver's rules.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []bound `json:"end_to_end"`
		PerLayer   []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloadSpecs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadSpecs[i].name || w.Why != workloadSpecs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q)", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []bound, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if len(m.Unit) > 16 || len(m.Name) > 64 || (m.Better != "higher" && m.Better != "lower") {
				t.Errorf("%s %s: bad unit, name or direction", kind, m.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, on toy sizes: the
// harness must keep compiling and running against the internal APIs it
// calls, and its own correctness checks (golden digests included) must
// hold.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 1, trace: trace, smoke: true, nproc: workers(), out: out}
			rep, det, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d failed: %s", w.name, trace, rep.Failed, rep.Attempted, det.Error)
			}
			defs := metricDefs(trace)
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or mis-united", w.name, trace, d.name)
				} else if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, d.name, m.Value)
				}
			}
			if trace {
				if c := rep.Metrics["trace_coverage_frac"].Value; c < 0.9 || c > 1.1 {
					t.Errorf("%s: layer self times cover %.3f of the traced wall", w.name, c)
				}
				if _, err := os.Stat(out + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := findWorkload("knee.turbo"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCompareAA(t *testing.T) {
	bounds := []bound{{Name: "sim_cycles_per_s", Better: "higher", Bound: 0.1}, {Name: "setup_s", Better: "lower", Bound: 0.25}}
	mk := func(metric string, vs ...float64) row { return newRow(metric, "w", "", vs) }
	for _, tc := range []struct {
		name  string
		a, b  row
		agree bool
	}{
		{"same", mk("sim_cycles_per_s", 100, 101, 102), mk("sim_cycles_per_s", 100, 101, 102), true},
		{"B faster is fine", mk("sim_cycles_per_s", 100, 101, 102), mk("sim_cycles_per_s", 150, 151, 152), true},
		{"B slower beyond the bound", mk("sim_cycles_per_s", 100, 101, 102), mk("sim_cycles_per_s", 85, 86, 87), false},
		{"spread beyond the bound", mk("sim_cycles_per_s", 80, 100, 120), mk("sim_cycles_per_s", 100, 101, 102), false},
		{"setup_s spread is not judged", mk("setup_s", 0.5, 1, 1.5), mk("setup_s", 0.9, 1, 1.1), true},
		{"setup_s median is", mk("setup_s", 1, 1, 1), mk("setup_s", 1.3, 1.3, 1.3), false},
		{"failed_frac must be 0", mk("failed_frac", 0), mk("failed_frac", 0.5), false},
		{"hops_err_max must repeat", mk("hops_err_max", 0.02, 0.03), mk("hops_err_max", 0.02, 0.031), false},
	} {
		if _, agree := compareAA([]row{tc.a}, []row{tc.b}, bounds); agree != tc.agree {
			t.Errorf("%s: agree = %v, want %v", tc.name, agree, tc.agree)
		}
	}
}
