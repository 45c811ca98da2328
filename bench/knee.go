package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"time"

	"gonoc/internal/core"
	"gonoc/internal/noc"
	"gonoc/internal/telemetry"
)

type kneeMode int

const (
	kneeSerial kneeMode = iota
	kneeTelemetry
	kneeAuto
)

// knee runs one lone saturation point — mesh-8x8, uniform, 0.45 flits/
// cycle/source (90 % of the analytic bound) — three ways. The three modes
// must produce byte-identical core.Result JSON: only host time may differ.
//
// A unit is kneeRuns runs of the point, each on a fresh core.Workspace as
// `nocsim` would run it. The freshness matters: the parallel engine's
// speed depends on where the allocator happened to place that network
// (measured: 54k vs 63k cycles/s from one build to the next, steady for
// the life of a build), so a unit averages over several builds and the
// run takes the median over units.
type knee struct {
	cfg  runConfig
	mode kneeMode

	last       core.Result // of the last untraced run
	resultJSON []byte
	capture    string     // digest of the last capture file
	traces     []simTrace // one per traced run
}

func (k *knee) scenario(mode kneeMode, measure uint64) core.Scenario {
	s := core.NewScenario(core.Mesh, 64, core.UniformTraffic, 0.45/float64(noc.DefaultConfig().PacketLen))
	s.Warmup, s.Measure, s.Seed = k.cfg.sz.kneeWarmup, measure, k.cfg.seed
	if mode == kneeAuto {
		s.StepParallel = -1
	}
	return s
}

// captureTo streams s's telemetry to path the way `nocsim -telemetry`
// does; done flushes and closes the file and returns the recorder's
// final counters.
func captureTo(s *core.Scenario, path string) (done func() (telemetry.Stats, error), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	var st telemetry.Stats
	s.Telemetry = &telemetry.Options{W: bw, Stats: &st}
	return func() (telemetry.Stats, error) {
		if err := bw.Flush(); err != nil {
			f.Close()
			return st, err
		}
		return st, f.Close()
	}, nil
}

// setup warms the process — code paths, CPU, the capture file's pages —
// with one short run of the point.
func (k *knee) setup() error {
	var ws core.Workspace
	s := k.scenario(k.mode, k.cfg.sz.kneeWarmRun)
	if k.mode != kneeTelemetry {
		_, err := ws.Run(s)
		return err
	}
	done, err := captureTo(&s, scratch(k.cfg, "knee.tsd"))
	if err != nil {
		return err
	}
	_, err = ws.Run(s)
	if _, cerr := done(); err == nil {
		err = cerr
	}
	return err
}

func (k *knee) unit(tr *tracer, parent int) (unitResult, error) {
	s := k.scenario(k.mode, k.cfg.sz.kneeMeasure)
	runs := uint64(k.cfg.sz.kneeRuns)
	u := unitResult{cycles: runs * (s.Warmup + s.Measure), points: runs}
	for i := uint64(0); i < runs; i++ {
		wall, err := k.run(s, tr, parent)
		if err != nil {
			return unitResult{}, err
		}
		u.wall += wall
	}
	u.digest = sha(k.resultJSON)
	return u, nil
}

// run is one timed run of the point, from an empty Workspace to the
// closed capture file, followed by its untimed checks.
func (k *knee) run(s core.Scenario, tr *tracer, parent int) (time.Duration, error) {
	capPath := scratch(k.cfg, "knee.tsd")
	t0 := time.Now()
	var done func() (telemetry.Stats, error)
	if k.mode == kneeTelemetry {
		var err error
		if done, err = captureTo(&s, capPath); err != nil {
			return 0, err
		}
	}
	var st simTrace
	var err error
	if tr == nil {
		var ws core.Workspace
		k.last, err = ws.Run(s)
	} else {
		var sim tracedSim
		st, err = sim.run(s, tr, parent)
	}
	var tel telemetry.Stats
	if done != nil {
		var cerr error
		if tel, cerr = done(); err == nil {
			err = cerr
		}
	}
	wall := time.Since(t0)
	if err != nil {
		return 0, err
	}

	if tr == nil {
		var buf bytes.Buffer
		if err := core.WriteResultJSON(&buf, k.last); err != nil {
			return 0, err
		}
		if k.resultJSON != nil && !bytes.Equal(buf.Bytes(), k.resultJSON) {
			return 0, fmt.Errorf("core.Result JSON differs between repetitions")
		}
		k.resultJSON = buf.Bytes()
	} else {
		// The traced loop is a re-assembly of RunPerf: it only counts
		// if it is the same simulation as the untraced run before it.
		if err := st.matches(k.last); err != nil {
			return 0, err
		}
		k.traces = append(k.traces, st)
	}
	if k.mode == kneeTelemetry {
		digest, size, err := shaFile(capPath)
		if err != nil {
			return 0, err
		}
		if tr != nil {
			tel = st.tel
		}
		if uint64(size) != tel.Bytes {
			return 0, fmt.Errorf("capture is %d bytes on disk, recorder reports %d", size, tel.Bytes)
		}
		if k.capture != "" && digest != k.capture {
			return 0, fmt.Errorf("telemetry capture differs between repetitions")
		}
		k.capture = digest
	}
	return wall, nil
}

func (k *knee) verify([]unitResult) error {
	if k.mode == kneeSerial { // run already compared every repetition with the first

		return nil
	}
	// The other two modes must reproduce the plain serial run exactly.
	var ws core.Workspace
	ref, err := ws.Run(k.scenario(kneeSerial, k.cfg.sz.kneeMeasure))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := core.WriteResultJSON(&buf, ref); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), k.resultJSON) {
		return fmt.Errorf("result differs from the serial engine's")
	}
	if k.mode == kneeTelemetry {
		return k.checkCapture()
	}
	return nil
}

// checkCapture decodes a short capture and holds it against the run's
// own result: the final cumulative link traversals must equal
// Result.LinkTraversals exactly, and — with no warm-up, so the collector
// sees every packet — the final cumulative ejected flits must be the
// ejected packets plus at most one partly drained packet per node. The
// long timed captures are covered by their digest; decoding one would
// cost more host time and memory than the run that wrote it.
func (k *knee) checkCapture() error {
	s := k.scenario(kneeSerial, k.cfg.sz.kneeWarmRun)
	s.Warmup = 0
	var buf bytes.Buffer
	s.Telemetry = &telemetry.Options{W: &buf}
	var ws core.Workspace
	res, err := ws.Run(s)
	if err != nil {
		return err
	}
	c, err := telemetry.Decode(&buf)
	if err != nil {
		return err
	}
	last := c.Samples() - 1
	var links, ej uint64
	for l := 0; l < c.Spec().Links; l++ {
		links += c.Link(last, l)
	}
	for n := 0; n < c.Spec().Nodes; n++ {
		ej += c.Ej(last, n)
	}
	plen := uint64(s.Config.PacketLen)
	if links != res.LinkTraversals {
		return fmt.Errorf("capture ends at %d link traversals, result has %d", links, res.LinkTraversals)
	}
	if lo := res.EjectedPackets * plen; ej < lo || ej >= lo+uint64(s.Nodes)*plen {
		return fmt.Errorf("capture ends at %d ejected flits, result has %d packets of %d", ej, res.EjectedPackets, plen)
	}
	return nil
}

func (k *knee) digests() map[string]string {
	d := map[string]string{"knee.result": sha(k.resultJSON)}
	if k.mode == kneeTelemetry {
		d["knee.capture"] = k.capture
	}
	return d
}

func (k *knee) layers(tr *tracer, parent int, out map[string]float64) error {
	med := func(f func(simTrace) float64) float64 {
		xs := make([]float64, len(k.traces))
		for i, t := range k.traces {
			xs[i] = f(t)
		}
		return median(xs)
	}
	t := k.traces[len(k.traces)-1] // the counts repeat exactly; any run will do
	s := k.scenario(k.mode, k.cfg.sz.kneeMeasure)
	cycles := float64(s.Warmup + s.Measure + 1)
	ticked := float64(t.step.calls)
	out["noc.step_s"] = med(func(t simTrace) float64 { return t.step.busy.Seconds() })
	out["noc.ns_per_cycle"] = out["noc.step_s"] * 1e9 / ticked
	out["noc.ns_per_flit_hop"] = out["noc.step_s"] * 1e9 / float64(t.linkTraversals)
	out["noc.visits_per_cycle"] = float64(t.perf.RouterVisits) / cycles
	out["noc.ticked_frac"] = (cycles - float64(t.perf.SkippedCycles)) / cycles
	out["noc.shards"] = float64(t.shards)
	out["noc.barriers_per_cycle"] = float64(t.perf.Barriers) / ticked
	if attempts := t.perf.SpeculativeDeliveries + t.perf.CreditDefers; attempts > 0 {
		out["noc.spec_ratio"] = float64(t.perf.SpeculativeDeliveries) / float64(attempts)
	}
	out["traffic-sim.residual_s"] = med(func(t simTrace) float64 {
		return (t.runUntil - t.step.busy - t.sample.busy).Seconds()
	})
	out["sim.events"] = float64(t.events)
	out["stats.packets"] = float64(t.ejected)
	if t.sample.calls > 0 {
		out["telemetry.sample_ns_per_cycle"] = med(func(t simTrace) float64 {
			return float64(t.sample.busy.Nanoseconds()) / float64(t.sample.calls)
		})
		out["telemetry.bytes_per_cycle"] = float64(t.tel.Bytes) / float64(t.tel.Samples)
	}

	probeSimLayers(k.cfg, tr, parent, out)
	if err := probeBuild(tr, parent, []core.Scenario{k.scenario(kneeSerial, k.cfg.sz.kneeWarmRun)}, out); err != nil {
		return err
	}
	if k.mode == kneeTelemetry {
		return k.probeDecode(tr, parent, out)
	}
	return nil
}

// probeDecode times telemetry.Decode on a capture of decodeCycles cycles.
func (k *knee) probeDecode(tr *tracer, parent int, out map[string]float64) error {
	s := k.scenario(kneeSerial, k.cfg.sz.decodeCycles)
	var buf bytes.Buffer
	s.Telemetry = &telemetry.Options{W: &buf}
	enc := tr.begin("core.capture_for_decode", parent)
	var ws core.Workspace
	_, err := ws.Run(s)
	tr.end(enc)
	if err != nil {
		return err
	}
	size := float64(buf.Len())
	dec := tr.begin("telemetry.decode", parent)
	_, err = telemetry.Decode(&buf)
	d := tr.end(dec)
	if err != nil {
		return err
	}
	out["telemetry.decode_mb_per_s"] = size / 1e6 / d.Seconds()
	return nil
}

// probeSimLayers runs the two stand-alone (est.) probes for layers only
// reachable from inside another: kernel event dispatch and the collector.
func probeSimLayers(c runConfig, tr *tracer, parent int, out map[string]float64) {
	sp := tr.begin("sim.probe_events", parent)
	out["sim.ns_per_event"] = probeKernel(c.sz.probeOps, 64)
	tr.end(sp)
	sp = tr.begin("stats.probe_packets", parent)
	out["stats.ns_per_packet"] = probeCollector(c.sz.probeOps)
	tr.end(sp)
}

// probeBuild measures, summed over the given geometries, what building
// costs: Scenario.Build alone (topology + routing tables), and a fresh
// Workspace's first run minus the same run repeated on it warm.
func probeBuild(tr *tracer, parent int, geos []core.Scenario, out map[string]float64) error {
	sp := tr.begin("core.probe_build", parent)
	defer tr.end(sp)
	var build, fresh time.Duration
	for _, s := range geos {
		t0 := time.Now()
		if _, _, err := s.Build(); err != nil {
			return err
		}
		build += time.Since(t0)

		var ws core.Workspace
		t0 = time.Now()
		if _, err := ws.Run(s); err != nil {
			return err
		}
		cold := time.Since(t0)
		t0 = time.Now()
		if _, err := ws.Run(s); err != nil {
			return err
		}
		if warm := time.Since(t0); cold > warm {
			fresh += cold - warm
		}
	}
	out["topology-routing.build_s"] = build.Seconds()
	out["core.workspace_build_s"] = fresh.Seconds()
	return nil
}
