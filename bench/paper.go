package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"gonoc/internal/core"
	"gonoc/internal/dist"
	"gonoc/internal/exp"
)

// paper does in-process what `nocfigs -sizes … -reps … -cache <fresh
// dir>` does: every figure table of the paper, all simulated figures
// sharing one fresh exp.FileCache and a pool of nproc workers.
type paper struct {
	cfg runConfig

	hopsErr  float64       // max |sim hops - analytic E[D]| / E[D] of the Fig 5 table
	rec      *recCache     // of the last traced unit
	untraced time.Duration // wall of the last untraced unit
	tables   string        // digest of the rendered tables
}

func (p *paper) opts(cache exp.Cache) exp.FigureOpts {
	return exp.FigureOpts{
		Sizes: p.cfg.sz.paperSizes, Warmup: p.cfg.sz.paperWarmup, Measure: p.cfg.sz.paperMeasure,
		Seed: p.cfg.seed, Reps: p.cfg.sz.paperReps, Parallel: p.cfg.nproc, Cache: cache,
	}
}

// setup warms what a resident user would have warm — the code paths and
// the exp layer's workspace pool for every geometry — by running the
// light-load validation grid once, uncached.
func (p *paper) setup() error {
	_, err := exp.Fig5Validation(context.Background(), p.opts(nil))
	return err
}

func (p *paper) unit(tr *tracer, parent int) (unitResult, error) {
	dir := scratch(p.cfg, "figcache")
	if err := os.RemoveAll(dir); err != nil { // every unit starts cold
		return unitResult{}, err
	}
	ctx := context.Background()
	t0 := time.Now()
	sp := tr.begin("exp.cache_open", parent)
	fc, err := exp.OpenFileCache(dir)
	tr.end(sp)
	if err != nil {
		return unitResult{}, err
	}
	defer fc.Close()
	var cache exp.Cache = fc
	if tr != nil {
		p.rec = &recCache{inner: fc, keep: true}
		cache = p.rec
	}
	o := p.opts(cache)

	var text strings.Builder
	text.WriteString(core.Fig2Diameter(4, 64).Text())
	text.WriteString(core.Fig3AvgDistance(4, 64).Text())
	for _, f := range paperFigures {
		sp := tr.begin("exp."+f.name, parent)
		var before stopwatch
		if tr != nil {
			before = p.rec.store
		}
		f0 := time.Now()
		tab, err := f.gen(ctx, o)
		if tr != nil {
			tr.batch("exp.cache_store", sp, f0, time.Now(), p.rec.store.calls-before.calls, p.rec.store.busy-before.busy)
		}
		tr.end(sp)
		if err != nil {
			return unitResult{}, err
		}
		text.WriteString(tab.Text())
		if f.name == "fig5" {
			p.hopsErr = fig5HopsErr(tab)
		}
	}
	sp = tr.begin("exp.cache_close", parent)
	err = fc.Close()
	tr.end(sp)
	wall := time.Since(t0)
	if err != nil {
		return unitResult{}, err
	}
	if tr == nil {
		p.untraced = wall
	}
	p.tables = sha([]byte(text.String()))
	return unitResult{
		wall:   wall,
		cycles: uint64(fc.Misses()) * (o.Warmup + o.Measure), // only misses were simulated
		points: uint64(fc.Hits() + fc.Misses()),
		digest: p.tables,
	}, nil
}

// fig5HopsErr is the paper's own validation read off the Fig 5 table:
// the largest relative gap between a simulated mean hop count and the
// analytic average distance of the same topology and size.
func fig5HopsErr(t *core.Table) float64 {
	analytic := map[string]map[float64]float64{}
	for _, s := range t.Series {
		if name, ok := strings.CutPrefix(s.Name, "analytic-"); ok {
			analytic[name] = map[float64]float64{}
			for i, x := range s.X {
				analytic[name][x] = s.Y[i]
			}
		}
	}
	worst := 0.0
	for _, s := range t.Series {
		name, ok := strings.CutPrefix(s.Name, "sim-")
		if !ok {
			continue
		}
		for i, x := range s.X {
			if ed := analytic[name][x]; ed > 0 {
				worst = math.Max(worst, math.Abs(s.Y[i]-ed)/ed)
			}
		}
	}
	return worst
}

// hopsErrLimit fails a run whose simulated distances left the analytic
// model: light-load hop counts are sample means of the exact E[D], so
// anything near this is a routing or accounting bug, not noise.
const hopsErrLimit = 0.15

func (p *paper) verify(units []unitResult) error {
	if err := sameDigests(units, "rendered figure tables"); err != nil {
		return err
	}
	if p.hopsErr == 0 || p.hopsErr > hopsErrLimit {
		return fmt.Errorf("Fig 5 validation: hops_err_max = %.4f outside (0, %.2f]", p.hopsErr, hopsErrLimit)
	}
	return nil
}

func (p *paper) digests() map[string]string { return map[string]string{"paper.tables": p.tables} }

// recCache wraps the cache handed to the runner so the traced run can
// count lookups, time stores and — with keep — learn which scenarios the
// figure code (whose campaigns are private to exp) actually simulated.
// Lookup is called from every pool worker, Store only from the runner's
// single emission goroutine.
type recCache struct {
	inner         exp.Cache
	keep          bool
	lookups, hits atomic.Uint64
	store         stopwatch
	stored        []core.Result
}

func (c *recCache) Lookup(key string) (core.Result, bool) {
	r, ok := c.inner.Lookup(key)
	c.lookups.Add(1)
	if ok {
		c.hits.Add(1)
	}
	return r, ok
}

func (c *recCache) Store(key string, r core.Result) error {
	var err error
	c.store.time(func() { err = c.inner.Store(key, r) })
	if c.keep {
		c.stored = append(c.stored, r)
	}
	return err
}

// loadBand classifies a simulated point by how hard its sources were
// pushed back: the share of source-cycles with a flit ready that the
// network refused.
func loadBand(r core.Result) string {
	blocked := float64(r.SourceBlocked) / (float64(r.Sources) * float64(r.Scenario.Measure))
	switch {
	case blocked < 0.01:
		return "free"
	case blocked < 0.20:
		return "loaded"
	}
	return "saturated"
}

// groupRow is one row of the "where the time goes" table.
type groupRow struct {
	Group  string  `json:"group"` // topology-N/load band
	N      int     `json:"n"`
	TotalS float64 `json:"total_s"`
	Share  float64 `json:"share"`
	P50ms  float64 `json:"p50_ms"`
	TailP  float64 `json:"tail_p"` // 0 when the group is too small for one
	TailMs float64 `json:"tail_ms"`
	walls  []float64
}

func (p *paper) layers(tr *tracer, parent int, out map[string]float64) error {
	out["hops_err_max"] = p.hopsErr
	out["exp.cache_hit_ratio"] = float64(p.rec.hits.Load()) / float64(p.rec.lookups.Load())
	out["exp.cache_store_ns_per_point"] = float64(p.rec.store.busy.Nanoseconds()) / float64(p.rec.store.calls)

	// Serial pass: every point the figures simulated, one after the
	// other on one Workspace, so each gets a wall time of its own.
	pass := tr.begin("bench.serial_pass", parent)
	var ws core.Workspace
	groups := map[string]*groupRow{}
	var rows []*groupRow // in order of first appearance
	var walls []float64
	var sum time.Duration
	for _, want := range p.rec.stored {
		sp := tr.begin("core.point", pass)
		got, err := ws.Run(want.Scenario)
		d := tr.end(sp)
		if err != nil {
			return err
		}
		if got.EjectedPackets != want.EjectedPackets || got.Throughput != want.Throughput {
			return fmt.Errorf("serial re-run of %s differs from the pooled run", want.Scenario.Label())
		}
		sum += d
		ms := float64(d.Nanoseconds()) / 1e6
		walls = append(walls, ms)
		key := fmt.Sprintf("%s-%d/%s", want.Scenario.Topo, want.Scenario.Nodes, loadBand(want))
		g := groups[key]
		if g == nil {
			g = &groupRow{Group: key}
			groups[key] = g
			rows = append(rows, g)
		}
		g.walls = append(g.walls, ms)
	}
	tr.end(pass)
	out["core.points"] = float64(len(walls))
	out["core.point_wall_ms.p50"] = median(walls)
	out["core.point_wall_ms.p90"] = percentile(walls, 0.9)
	out["exp.pool_efficiency"] = sum.Seconds() / (float64(p.cfg.nproc) * p.untraced.Seconds())
	if err := p.writeGroups(rows, walls, sum); err != nil {
		return err
	}

	probeSimLayers(p.cfg, tr, parent, out)
	seen := map[string]bool{}
	var geos []core.Scenario
	for _, r := range p.rec.stored {
		if key := fmt.Sprintf("%s-%d", r.Scenario.Topo, r.Scenario.Nodes); !seen[key] {
			seen[key] = true
			geos = append(geos, r.Scenario)
		}
	}
	if err := probeBuild(tr, parent, geos, out); err != nil {
		return err
	}
	c := uniformCampaign(p.cfg)
	if _, err := probeExpand(tr, parent, c, out); err != nil {
		return err
	}
	return p.probeDist(tr, parent, c, out)
}

// writeGroups prints the "where the time goes" table and stores it next
// to the trace.
func (p *paper) writeGroups(rows []*groupRow, walls []float64, sum time.Duration) error {
	for _, g := range rows {
		g.N = len(g.walls)
		for _, w := range g.walls {
			g.TotalS += w / 1e3
		}
		g.Share = g.TotalS / sum.Seconds()
		g.P50ms = median(g.walls)
		if tp, ok := tailPercentile(g.N); ok && tp > 0.5 {
			g.TailP, g.TailMs = tp, percentile(g.walls, tp)
		}
	}
	all := &groupRow{Group: "all", N: len(walls), TotalS: sum.Seconds(), Share: 1, P50ms: median(walls)}
	if tp, ok := tailPercentile(all.N); ok && tp > 0.5 {
		all.TailP, all.TailMs = tp, percentile(walls, tp)
	}
	rows = append(rows, all)
	fmt.Printf("# where the time goes: %d simulated points run serially, %.3f s (host)\n", len(p.rec.stored), sum.Seconds())
	fmt.Printf("# %-24s %5s %9s %7s %9s %s\n", "topology-N/load", "n", "total_s", "share", "p50_ms", "tail")
	for _, g := range rows {
		tail := "-"
		if g.TailP > 0 {
			tail = fmt.Sprintf("p%g=%.3fms", g.TailP*100, g.TailMs)
		}
		fmt.Printf("# %-24s %5d %9.3f %6.1f%% %9.3f %s\n", g.Group, g.N, g.TotalS, 100*g.Share, g.P50ms, tail)
	}
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(p.cfg.out, "where-"+p.cfg.workload+".json"), append(b, '\n'), 0o644)
}

// probeExpand times campaign expansion and cache-key hashing — the work
// a fully warm replay cannot avoid — and returns the expanded points.
func probeExpand(tr *tracer, parent int, c exp.Campaign, out map[string]float64) ([]exp.Point, error) {
	sp := tr.begin("exp.probe_expand", parent)
	defer tr.end(sp)
	t0 := time.Now()
	pts, err := c.Points()
	if err != nil {
		return nil, err
	}
	out["exp.expand_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	for i := range pts {
		_ = pts[i].Scenario.CacheKey()
	}
	out["exp.cachekey_ns_per_point"] = float64(time.Since(t0).Nanoseconds()) / float64(len(pts))
	return pts, nil
}

// distWorkerEnv carries the campaign to re-exec'd worker processes: a
// worker is this same binary started with the variable set.
const distWorkerEnv = "GONOC_BENCH_DIST_WORKER"

// shardRunner adapts the campaign runner to dist's lease interface, as
// nocsweep's worker mode does.
func shardRunner(c exp.Campaign, parallel int) dist.ShardRunner {
	return func(ctx context.Context, lease dist.Lease, w io.Writer, progress func(done, total int)) error {
		r := exp.Runner{Parallel: parallel, Shard: exp.Shard{Index: lease.Shard, Count: lease.Count}, Progress: progress}
		_, err := r.Run(ctx, c, exp.NewJSONLWriter(w))
		return err
	}
}

// serveDistWorker is the worker half: serve shard leases of the campaign
// in the environment until the coordinator closes stdin.
func serveDistWorker(spec string) error {
	var c exp.Campaign
	if err := json.Unmarshal([]byte(spec), &c); err != nil {
		return fmt.Errorf("%s: %w", distWorkerEnv, err)
	}
	return dist.ServeWorker(context.Background(), os.Stdin, os.Stdout, shardRunner(c, 1), dist.WorkerOptions{})
}

// probeDist runs the Fig 10 grid once in-process and once through a
// dist.Coordinator supervising nproc re-exec'd worker processes. Three
// processes on two cores measure the scheduler as much as dist, so the
// ratio is reported, never bounded.
func (p *paper) probeDist(tr *tracer, parent int, c exp.Campaign, out map[string]float64) error {
	sp := tr.begin("exp.uniform_in_process", parent)
	var want bytes.Buffer
	_, err := exp.Runner{Parallel: p.cfg.nproc}.Run(context.Background(), c, exp.NewJSONLWriter(&want))
	inproc := tr.end(sp)
	if err != nil {
		return err
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	spec, err := json.Marshal(c)
	if err != nil {
		return err
	}
	pts, err := c.Points()
	if err != nil {
		return err
	}
	shards := 4 * p.cfg.nproc
	if shards > len(pts) {
		shards = len(pts)
	}
	workDir := scratch(p.cfg, "dist")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	var got bytes.Buffer
	co, err := dist.New(dist.Options{
		Workers: p.cfg.nproc,
		Shards:  shards,
		Launch:  &dist.LocalLauncher{Argv: []string{exe}, Env: append(os.Environ(), distWorkerEnv+"="+string(spec)), Stderr: os.Stderr},
		Inline:  shardRunner(c, p.cfg.nproc),
		Out:     &got,
		WorkDir: workDir,
	})
	if err != nil {
		return err
	}
	sp = tr.begin("dist.coordinator_run", parent)
	_, err = co.Run(context.Background())
	viaDist := tr.end(sp)
	if err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fmt.Errorf("dist merged JSONL differs from the in-process stream")
	}
	out["dist.overhead_frac"] = viaDist.Seconds()/inproc.Seconds() - 1
	out["dist.leases"] = float64(co.CountEvents(dist.EventLease))
	out["dist.restarts"] = float64(co.CountEvents(dist.EventRestart))
	out["dist.steals"] = float64(co.CountEvents(dist.EventSteal))
	return nil
}
