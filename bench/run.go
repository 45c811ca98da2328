package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names with directions and bounds; a test keeps the two equal.
type metricDef struct{ name, unit string }

// endToEnd are what a gonoc user sees. Every *_per_s is per second of
// HOST wall time; "cycles" are SIMULATED. On replay.sinks the cycles are
// replayed from the cache, not simulated, so there sim_cycles_per_s moves
// with points_per_s; on the other workloads it is the other way round.
var endToEnd = []metricDef{
	{"sim_cycles_per_s", "cycles/s"},
	{"points_per_s", "points/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer come from the traced run only. A metric a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{"trace_overhead_frac", "frac"},
	{"trace_coverage_frac", "frac"},
	{"hops_err_max", "frac"},
	{"noc.step_s", "s"},
	{"noc.ns_per_cycle", "ns/cycle"},
	{"noc.ns_per_flit_hop", "ns/flit-hop"},
	{"noc.visits_per_cycle", "1/cycle"},
	{"noc.ticked_frac", "frac"},
	{"noc.barriers_per_cycle", "1/cycle"},
	{"noc.spec_ratio", "frac"},
	{"noc.shards", "count"},
	{"traffic-sim.residual_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns/event"},
	{"stats.ns_per_packet", "ns/packet"},
	{"stats.packets", "count"},
	{"telemetry.sample_ns_per_cycle", "ns/cycle"},
	{"telemetry.bytes_per_cycle", "B/cycle"},
	{"telemetry.decode_mb_per_s", "MB/s"},
	{"core.points", "count"},
	{"core.point_wall_ms.p50", "ms"},
	{"core.point_wall_ms.p90", "ms"},
	{"core.workspace_build_s", "s"},
	{"topology-routing.build_s", "s"},
	{"exp.pool_efficiency", "frac"},
	{"exp.expand_s", "s"},
	{"exp.cachekey_ns_per_point", "ns/point"},
	{"exp.cache_open_s", "s"},
	{"exp.cache_store_ns_per_point", "ns/point"},
	{"exp.cache_hit_ratio", "frac"},
	{"exp.jsonl_rows_per_s", "rows/s"},
	{"exp.csv_rows_per_s", "rows/s"},
	{"exp.sqlite_rows_per_s", "rows/s"},
	{"sqlitefile.write_mb_per_s", "MB/s"},
	{"dist.overhead_frac", "frac"},
	{"dist.leases", "count"},
	{"dist.restarts", "count"},
	{"dist.steals", "count"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints: the driver's contract.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before it: what the harness and a reader need that
// the contract has no key for.
type detail struct {
	Workload   string             `json:"workload"`
	Trace      bool               `json:"trace"`
	Host       fingerprint        `json:"host"`
	Units      int                `json:"units"` // timed repetitions behind each median
	FailedFrac float64            `json:"failed_frac"`
	HopsErrMax float64            `json:"hops_err_max,omitempty"`
	Digests    map[string]string  `json:"digests"`
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
	Error      string             `json:"error,omitempty"`
}

// fingerprint identifies the host and build a number was measured on.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	GOGC       string `json:"gogc"`
	Git        string `json:"git"`
	Seed       uint64 `json:"seed"`
	Reps       int    `json:"reps,omitempty"`
	Smoke      bool   `json:"smoke,omitempty"`
}

func hostFingerprint(seed uint64, smoke bool) fingerprint {
	fp := fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: "unknown", GOGC: "100", Git: "unknown", Seed: seed, Smoke: smoke,
	}
	if v := os.Getenv("GOGC"); v != "" {
		fp.GOGC = v
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Git = s.Value
			}
		}
	}
	return fp
}

// workers is the closed-loop client count of the campaign workloads.
func workers() int {
	n := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < n {
		n = g
	}
	return n
}

// resetPeakRSS makes a unit start the way a fresh CLI invocation would:
// the heap collected and returned to the OS, and the kernel's resident-set
// high-water mark reset (writing 5 to clear_refs), so that VmHWM after the
// unit is that unit's own peak. A process-lifetime VmHWM is the maximum
// over some twenty units whose GC cycles land differently each time, which
// read 83 MB or 100 MB on replay.sinks from one run to the next; the
// median of per-unit peaks does not. Where clear_refs cannot be written
// the readings fall back to the lifetime mark.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

//go:embed golden.json
var goldenJSON []byte

// checkGolden compares the run's digests with golden.json, which holds
// the default seed's outputs for each sizing.
func checkGolden(cfg runConfig, got map[string]string) error {
	if cfg.seed != 1 {
		return nil
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	set := golden["full"]
	if cfg.smoke {
		set = golden["smoke"]
	}
	for name, d := range got {
		if set[name] != d {
			return fmt.Errorf("digest %s = %s, golden.json has %q", name, d, set[name])
		}
	}
	return nil
}

const (
	minUnits       = 3  // timed repetitions behind a median, however short --seconds is
	minSetups      = 3  // set-up passes behind setup_s
	maxSetups      = 15 // … and their cap, for set-ups of a few milliseconds
	setupBudgetSec = 1.0
)

// runWorkload is one invocation: set up, repeat the workload's unit for
// cfg.seconds, check the outputs, and report. An error means the run
// could not measure at all; a workload that ran but failed its checks is
// reported through the counts instead.
func runWorkload(cfg runConfig) (report, detail, error) {
	spec, err := findWorkload(cfg.workload)
	if err != nil {
		return report{}, detail{}, err
	}
	cfg.sz = fullSizing
	if cfg.smoke {
		cfg.sz = smokeSizing
	}
	cfg.dir = filepath.Join(cfg.out, fmt.Sprintf("work-%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return report{}, detail{}, err
	}
	defer os.RemoveAll(cfg.dir)

	w := spec.make(cfg)
	det := detail{Workload: cfg.workload, Trace: cfg.trace}
	values := map[string]float64{}
	rep := report{}
	var all []unitResult // every successful unit, for the correctness checks
	var lastErr error
	unit := func(tr *tracer, parent int) (unitResult, bool) {
		resetPeakRSS()
		rep.Attempted++
		u, err := w.unit(tr, parent)
		u.rssMB = peakRSSMB()
		if err != nil {
			rep.Failed++
			lastErr = err
			return u, false
		}
		all = append(all, u)
		return u, true
	}

	if cfg.trace {
		err = runTraced(cfg, w, unit, values, &det)
	} else {
		err = runUntraced(cfg, w, unit, values, &det)
	}
	if err != nil {
		return report{}, detail{}, err
	}

	if len(all) > 0 && lastErr == nil {
		if lastErr = w.verify(all); lastErr == nil {
			lastErr = checkGolden(cfg, w.digests())
		}
		if lastErr != nil { // a failed check fails every unit of the run
			rep.Failed = rep.Attempted
		}
	}
	if lastErr != nil {
		det.Error = lastErr.Error()
	}
	rep.Correct = rep.Failed == 0
	det.FailedFrac = float64(rep.Failed) / float64(rep.Attempted)
	det.Digests = w.digests()
	if p, ok := w.(*paper); ok {
		det.HopsErrMax = p.hopsErr
	}

	defs := metricDefs(cfg.trace)
	rep.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		rep.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return rep, det, nil
}

// metricDefs lists what a run reports: the per-layer metrics when traced,
// the end-to-end ones otherwise.
func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func runUntraced(cfg runConfig, w workload, unit func(*tracer, int) (unitResult, bool), values map[string]float64, det *detail) error {
	// setup_s: several complete set-up passes, median reported, so that
	// work moved out of the timed region shows up here.
	var setups []float64
	start := time.Now()
	for len(setups) < minSetups || (time.Since(start).Seconds() < setupBudgetSec && len(setups) < maxSetups) {
		t0 := time.Now()
		det.Host = hostFingerprint(cfg.seed, cfg.smoke)
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if cfg.smoke {
			break
		}
	}

	// One untimed repetition first: page-cache and CPU-frequency
	// outliers of a first run must never enter a median.
	unit(nil, -1)
	var cps, pps, rss []float64
	start = time.Now()
	for i := 0; i < minUnits || (!cfg.smoke && time.Since(start).Seconds() < cfg.seconds); i++ {
		if u, ok := unit(nil, -1); ok {
			cps = append(cps, float64(u.cycles)/u.wall.Seconds())
			pps = append(pps, float64(u.points)/u.wall.Seconds())
			rss = append(rss, u.rssMB)
		}
	}
	if len(cps) == 0 {
		return fmt.Errorf("no repetition of %s succeeded", cfg.workload)
	}
	det.Units = len(cps)
	values["sim_cycles_per_s"] = median(cps)
	values["points_per_s"] = median(pps)
	values["setup_s"] = median(setups)
	values["peak_rss_mb"] = median(rss)
	q1, q3 := quartiles(cps)
	fmt.Printf("# %s: %d timed units, sim_cycles_per_s q1-q3 %.6g-%.6g (host seconds, simulated cycles)\n", cfg.workload, len(cps), q1, q3)
	return nil
}

func runTraced(cfg runConfig, w workload, unit func(*tracer, int) (unitResult, bool), values map[string]float64, det *detail) error {
	det.Host = hostFingerprint(cfg.seed, cfg.smoke)
	if err := w.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer(cfg.workload)
	var plain, traced []float64
	// Untraced and traced units alternate, so both see the same machine
	// state; half of --seconds goes here, the probes take the rest.
	start := time.Now()
	for i := 0; i < 1 || (!cfg.smoke && time.Since(start).Seconds() < cfg.seconds/2); i++ {
		if u, ok := unit(nil, -1); ok {
			plain = append(plain, u.wall.Seconds())
		}
		root := tr.begin("bench.unit", -1)
		u, ok := unit(tr, root)
		tr.end(root)
		if ok {
			traced = append(traced, u.wall.Seconds())
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("no traced repetition of %s succeeded", cfg.workload)
	}
	det.Units = len(traced)
	root := tr.begin("bench.probes", -1)
	err := w.layers(tr, root, values)
	tr.end(root)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}

	values["trace_overhead_frac"] = median(traced)/median(plain) - 1
	layers, wall := layerSelf(tr.spans)
	det.LayerSelfS = map[string]float64{}
	var self time.Duration
	for layer, d := range layers {
		det.LayerSelfS[layer] = d.Seconds()
		self += d
	}
	values["trace_coverage_frac"] = self.Seconds() / wall.Seconds()
	printLayers(cfg.workload, det.LayerSelfS, wall.Seconds())
	return tr.write(filepath.Join(cfg.out, "trace-"+cfg.workload+".json"))
}

func printLayers(workload string, layers map[string]float64, wall float64) {
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(a, b int) bool { return layers[names[a]] > layers[names[b]] })
	fmt.Printf("# %s: layer self times over %.3f s of traced host wall\n", workload, wall)
	for _, l := range names {
		fmt.Printf("# %-12s %9.3f s %5.1f%%\n", l, layers[l], 100*layers[l]/wall)
	}
}

// printReport writes the human-readable lines, then the detail line, then
// the contract's JSON object as the last line of standard output.
func printReport(rep report, det detail) error {
	fmt.Printf("# host %+v\n", det.Host)
	for _, d := range metricDefs(det.Trace) {
		if v := rep.Metrics[d.name].Value; v != 0 { // 0 = a layer this workload does not exercise
			fmt.Printf("%-30s %-15s %14.6g %s (n=%d)\n", d.name, det.Workload, v, d.unit, det.Units)
		}
	}
	fmt.Printf("%-30s %-15s %14.6g %s\n", "failed_frac", det.Workload, det.FailedFrac, "frac")
	if det.HopsErrMax > 0 && !det.Trace {
		fmt.Printf("%-30s %-15s %14.6g %s\n", "hops_err_max", det.Workload, det.HopsErrMax, "frac")
	}
	if det.Error != "" {
		fmt.Printf("# FAILED: %s\n", det.Error)
	}
	db, err := json.Marshal(det)
	if err != nil {
		return err
	}
	rb, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("detail %s\n%s\n", db, rb)
	return nil
}
