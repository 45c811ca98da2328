package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gonoc/internal/core"
	"gonoc/internal/exp"
)

// sizing fixes how much work one timed unit of each workload is. The
// full sizing is what BENCHMARK.json measures; smoke is the same code on
// toy sizes so `go test ./bench` keeps the harness compiling and running
// against the internal APIs in a few seconds.
type sizing struct {
	// paper.cold: nocfigs' grid (three replications, all figures) at
	// these sizes and cycle counts.
	paperSizes                []int
	paperWarmup, paperMeasure uint64
	paperReps                 int
	// replay.sinks: ring/spidergon/mesh x replayNodes x replayRates
	// rates (0.01 apart) x replayReps, no warm-up.
	replayNodes             []int
	replayRates, replayReps int
	replayMeasure           uint64
	// knee.*: mesh-8x8 uniform at 0.45 flits/cycle/source, kneeRuns
	// fresh runs per unit.
	kneeWarmup, kneeMeasure uint64
	kneeRuns                int
	kneeWarmRun             uint64 // the set-up run that warms the process
	decodeCycles            uint64 // capture length of the telemetry.Decode probe
	probeOps                int    // operations per stand-alone (est.) probe
}

var fullSizing = sizing{
	paperSizes: []int{16, 64}, paperWarmup: 300, paperMeasure: 2000, paperReps: 3,
	replayNodes: []int{8, 16, 32, 64}, replayRates: 40, replayReps: 25, replayMeasure: 50,
	kneeWarmup: 1000, kneeMeasure: 5000, kneeRuns: 10, kneeWarmRun: 3000,
	decodeCycles: 30000, probeOps: 400000,
}

var smokeSizing = sizing{
	paperSizes: []int{8}, paperWarmup: 100, paperMeasure: 400, paperReps: 2,
	replayNodes: []int{8}, replayRates: 10, replayReps: 7, replayMeasure: 50,
	kneeWarmup: 100, kneeMeasure: 400, kneeRuns: 2, kneeWarmRun: 200,
	decodeCycles: 400, probeOps: 4000,
}

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	nproc    int    // campaign workers: min(NumCPU, GOMAXPROCS)
	out      string // where traces and tables are written (bench/out)
	dir      string // scratch directory of this run inside out, removed when it ends
	sz       sizing // chosen by smoke; runWorkload fills it in
}

// unitResult is one timed repetition of a workload.
type unitResult struct {
	wall   time.Duration
	cycles uint64  // simulated cycles whose results the unit delivered
	points uint64  // campaign points the unit delivered
	digest string  // SHA-256 of the output the correctness checks compare
	rssMB  float64 // VmHWM when the unit ended (the runner fills it in)
}

// workload is one set of generated inputs plus the driver that pushes
// them through the system. The program under test only ever sees the
// scenarios and campaigns, never the workload's name.
type workload interface {
	// setup builds everything the timed region needs from nothing; it
	// may run several times, each replacing the previous state.
	setup() error
	// unit runs one repetition: untraced when tr is nil, otherwise
	// recording spans under parent.
	unit(tr *tracer, parent int) (unitResult, error)
	// verify runs the workload-level correctness checks once the timed
	// loop is over; an error fails every unit of the run.
	verify(units []unitResult) error
	// layers runs the traced run's stand-alone probes and stores the
	// per-layer metrics.
	layers(tr *tracer, parent int, out map[string]float64) error
	// digests names the SHA-256 digests compared with golden.json at
	// the default seed.
	digests() map[string]string
}

// workloadSpec ties a workload name to its reason and constructor; the
// names and reasons are mirrored in BENCHMARK.json (a test compares).
type workloadSpec struct {
	name, why string
	make      func(runConfig) workload
}

var workloadSpecs = []workloadSpec{
	{"paper.cold", "Regenerates the paper's Fig 5-11 grids cold into a fresh cache: all three topologies, idle to saturated, so noc/traffic/sim/stats dominate and exp pool + cache writes ride along.",
		func(c runConfig) workload { return &paper{cfg: c} }},
	{"replay.sinks", "Replays a fully cached 12000-point campaign into JSONL+CSV+SQLite: zero simulation, so only exp expansion, cache reads, aggregation, encoders and sqlitefile are timed.",
		func(c runConfig) workload { return newReplay(c) }},
	{"knee.serial", "One mesh-8x8 point at 90% of saturation on the serial engine: a single busy thread with no pool, cache or sink; the denominator for the other knee workloads.",
		func(c runConfig) workload { return &knee{cfg: c, mode: kneeSerial} }},
	{"knee.telemetry", "The knee point with per-cycle telemetry captured to a file: differs from knee.serial only in the telemetry layer, so their ratio is the telemetry-on cost.",
		func(c runConfig) workload { return &knee{cfg: c, mode: kneeTelemetry} }},
	{"knee.auto", "The knee point with StepParallel=-1: whatever engine and shard width auto-selection picks on this host, the parallel engine's keep-or-cut workload.",
		func(c runConfig) workload { return &knee{cfg: c, mode: kneeAuto} }},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// shaFile digests a file and returns its size.
func shaFile(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// sameDigests is the repetition check every workload shares: equal
// inputs must give byte-identical outputs on every unit.
func sameDigests(units []unitResult, what string) error {
	for _, u := range units[1:] {
		if u.digest != units[0].digest {
			return fmt.Errorf("%s differs between repetitions: %s vs %s", what, u.digest[:12], units[0].digest[:12])
		}
	}
	return nil
}

// paperFigures lists what `nocfigs` (all figures) simulates, in its order.
var paperFigures = []struct {
	name string
	gen  func(context.Context, exp.FigureOpts) (*core.Table, error)
}{
	{"fig5", exp.Fig5Validation},
	{"fig6", exp.Fig6HotspotThroughput},
	{"fig7", exp.Fig7HotspotLatency},
	{"fig8", exp.Fig8DoubleHotspotThroughput},
	{"fig9", exp.Fig9DoubleHotspotLatency},
	{"fig10", exp.Fig10UniformThroughput},
	{"fig11", exp.Fig11UniformLatency},
}

// uniformCampaign is the Fig 10/11 grid as a public exp.Campaign, for
// the probes that need the campaign itself rather than its table.
func uniformCampaign(c runConfig) exp.Campaign {
	return exp.Campaign{
		Name:       "uniform",
		Topologies: []core.TopologyKind{core.Ring, core.Spidergon, core.Mesh},
		Nodes:      c.sz.paperSizes,
		Traffics:   []exp.TrafficSpec{{Kind: core.UniformTraffic}},
		FlitRates:  exp.DefaultFigureOpts().UniformFlitRates,
		Reps:       c.sz.paperReps,
		Seed:       c.seed,
		Warmup:     c.sz.paperWarmup,
		Measure:    c.sz.paperMeasure,
	}
}

func scratch(c runConfig, name string) string { return filepath.Join(c.dir, name) }
