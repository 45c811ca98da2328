// Command bench is gonoc's wall-clock benchmark: five workloads, four
// end-to-end metrics, and a traced run that breaks each workload's host
// time down by layer. See bench/README.md.
//
//	go run ./bench                                   # every workload, -reps runs each; table + bench/out/results.json
//	go run ./bench -trace 1                          # the traced run: per-layer metrics, bench/out/trace-<workload>.json
//	go run ./bench -aa                               # two complete sets on one build, compared with BENCHMARK.json's bounds
//	go run ./bench -workload knee.serial -seed 3     # one run of one workload, in this process
//
// The last form is what BENCHMARK.json's command runs (through
// bench/run.sh, which keeps the build inside the checkout): it prints one
// JSON object as its last line. Every other form runs each workload in a
// sequential child process of its own, so peak_rss_mb is per workload.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	if spec := os.Getenv(distWorkerEnv); spec != "" {
		if err := serveDistWorker(spec); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
		seed    = flag.Uint64("seed", 1, "workload seed; run i of a workload uses seed+i")
		seconds = flag.Float64("seconds", 12, "host seconds each run measures for")
		trace   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
		reps    = flag.Int("reps", 5, "runs per workload (each in a fresh process, each with another seed)")
		aa      = flag.Bool("aa", false, "run two complete sets and compare them with BENCHMARK.json's bounds")
		smoke   = flag.Bool("smoke", false, "toy sizes and a fixed repetition count: seconds, not minutes")
		out     = flag.String("out", "bench/out", "directory for traces, results.json and scratch files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if g, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); g > n {
		return fail(fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this host; timings would measure the scheduler", g, n))
	}
	if *name != "" {
		if _, err := findWorkload(*name); err != nil {
			return fail(err)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}

	if *name != "" && !*aa {
		cfg := runConfig{
			workload: *name, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
			nproc: workers(), out: *out,
		}
		rep, det, err := runWorkload(cfg)
		if err != nil {
			return fail(err)
		}
		if err := printReport(rep, det); err != nil {
			return fail(err)
		}
		return 0
	}

	h := harness{seed: *seed, seconds: *seconds, trace: *trace != 0, reps: *reps, smoke: *smoke, out: *out, only: *name}
	if *aa {
		return h.runAA()
	}
	return h.runPlain()
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}
