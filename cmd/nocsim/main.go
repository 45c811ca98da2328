// Command nocsim runs a single NoC simulation and prints its
// performance indexes.
//
// Usage:
//
//	nocsim -topo spidergon -n 16 -traffic uniform -lambda 0.02 \
//	       -warmup 1000 -cycles 10000 -seed 1
//
// Topologies: ring, spidergon, mesh, imesh, fmesh.
// Traffic: uniform, or hotspot with -targets "0,8".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gonoc/internal/core"
	"gonoc/internal/prof"
	"gonoc/internal/telemetry"
)

func main() {
	var (
		topo    = flag.String("topo", "spidergon", "topology: ring|spidergon|mesh|imesh|fmesh")
		n       = flag.Int("n", 16, "number of nodes")
		cols    = flag.Int("cols", 0, "mesh columns (0 = balanced factorisation)")
		rows    = flag.Int("rows", 0, "mesh rows (0 = balanced factorisation)")
		tk      = flag.String("traffic", "uniform", "traffic: uniform|hotspot")
		targets = flag.String("targets", "", "hotspot targets, comma separated (default: paper placement)")
		lambda  = flag.Float64("lambda", 0.01, "packets/cycle per source")
		flits   = flag.Float64("flitrate", 0, "per-source flits/cycle (overrides -lambda when > 0)")
		pkt     = flag.Int("pkt", 6, "packet length in flits")
		outbuf  = flag.Int("outbuf", 3, "output queue capacity in flits")
		inbuf   = flag.Int("inbuf", 1, "input buffer capacity in flits")
		warmup  = flag.Uint64("warmup", 1000, "warm-up cycles (unmeasured)")
		cycles  = flag.Uint64("cycles", 10000, "measured cycles")
		seed    = flag.Uint64("seed", 1, "random seed")
		jsonOut = flag.Bool("json", false, "emit the result as JSON")
		scnFile = flag.String("config", "", "JSON scenario file (overrides other flags)")
		stepPar = flag.Int("step-parallel", 0, "router shards for the domain-decomposed Step engine with credit-based cross-shard speculation (0 = serial, -1 = auto: min(GOMAXPROCS, routers/4); results are identical)")
		telFile = flag.String("telemetry", "", "write a per-cycle telemetry capture to this file (decode with noctsd)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	// Telemetry writes through one buffered file writer; finish()
	// flushes and reports the capture size after the run completes.
	var (
		telOpts  *telemetry.Options
		telStats telemetry.Stats
		telDone  = func() {}
	)
	if *telFile != "" {
		f, err := os.Create(*telFile)
		if err != nil {
			fatal(err)
		}
		bw := bufio.NewWriter(f)
		telOpts = &telemetry.Options{W: bw, Stats: &telStats}
		telDone = func() {
			if err := bw.Flush(); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "nocsim: telemetry: %d samples in %d chunks, %d bytes -> %s\n",
				telStats.Samples, telStats.Chunks, telStats.Bytes, *telFile)
		}
	}

	if *scnFile != "" {
		data, err := os.ReadFile(*scnFile)
		if err != nil {
			fatal(err)
		}
		scenarios, err := core.ReadScenarios(data)
		if err != nil {
			fatal(err)
		}
		if telOpts != nil && len(scenarios) != 1 {
			fatal(fmt.Errorf("-telemetry captures a single scenario; %s has %d", *scnFile, len(scenarios)))
		}
		for _, sc := range scenarios {
			sc.StepParallel = *stepPar
			sc.Telemetry = telOpts
			r, err := core.Run(sc)
			if err != nil {
				fatal(err)
			}
			if *jsonOut {
				if err := core.WriteResultJSON(os.Stdout, r); err != nil {
					fatal(err)
				}
			} else {
				report(sc, r)
			}
		}
		telDone()
		return
	}

	s := core.NewScenario(core.TopologyKind(*topo), *n, core.TrafficKind(*tk), *lambda)
	s.StepParallel = *stepPar
	s.Cols, s.Rows = *cols, *rows
	s.Warmup, s.Measure, s.Seed = *warmup, *cycles, *seed
	s.Config.PacketLen = *pkt
	s.Config.OutBufCap = *outbuf
	s.Config.InBufCap = *inbuf
	if *flits > 0 {
		s.Lambda = *flits / float64(*pkt)
	}
	if s.Traffic == core.HotSpotTraffic {
		if *targets != "" {
			hs, err := parseTargets(*targets)
			if err != nil {
				fatal(err)
			}
			s.HotSpots = hs
		} else {
			s.HotSpots = []int{core.SingleHotspot(s.Topo, s.Nodes, false, s.Cols, s.Rows)}
		}
	}

	s.Telemetry = telOpts
	r, err := core.Run(s)
	if err != nil {
		fatal(err)
	}
	telDone()
	if *jsonOut {
		if err := core.WriteResultJSON(os.Stdout, r); err != nil {
			fatal(err)
		}
		return
	}
	report(s, r)
}

func report(s core.Scenario, r core.Result) {
	fmt.Printf("scenario            %s\n", s.Label())
	fmt.Printf("topology            %s (%d sources)\n", r.TopologyName, r.Sources)
	fmt.Printf("offered load        %.4f flits/cycle (%.4f per source)\n", r.OfferedFlitRate, r.OfferedPerSource)
	fmt.Printf("accepted load       %.4f flits/cycle\n", r.AcceptedFlitRate)
	fmt.Printf("throughput          %.4f flits/cycle (%.4f per node, %.4f packets/cycle)\n",
		r.Throughput, r.ThroughputPerNode, r.PacketRate)
	fmt.Printf("latency mean        %.2f cycles (p50 %.1f, p95 %.1f; network-only %.2f)\n",
		r.MeanLatency, r.P50Latency, r.P95Latency, r.MeanNetLatency)
	fmt.Printf("mean hops           %.3f\n", r.MeanHops)
	fmt.Printf("packets             injected %d, ejected %d, source-blocked cycles %d\n",
		r.InjectedPackets, r.EjectedPackets, r.SourceBlocked)
	fmt.Printf("link utilisation    mean %.4f, max %.4f flits/cycle (%d traversals)\n",
		r.MeanLinkUtil, r.MaxLinkUtil, r.LinkTraversals)
	fmt.Printf("energy estimate     %.2f per packet, %.0f total (default cost model)\n",
		r.EnergyPerPacket, r.TotalEnergy)
}

func parseTargets(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad target %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocsim:", err)
	os.Exit(1)
}
