package exp

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"gonoc/internal/core"
	"gonoc/internal/exp/pool"
)

// workspaces recycles core.Workspaces across the simulations of a
// campaign (and across campaigns): a worker picking up a task reuses a
// previous run's network, kernel and collector instead of rebuilding
// them, which removes per-replication setup allocations entirely when
// consecutive tasks share a network geometry — the common case, since
// campaign grids enumerate replications and rates innermost. Reuse is
// invisible in the output: a workspace run is bit-identical to a fresh
// one.
var workspaces = sync.Pool{New: func() any { return new(core.Workspace) }}

// Shard names one slice of a campaign partitioned across processes:
// shard Index of Count runs the contiguous Point.Index range
// [Index*total/Count, (Index+1)*total/Count). The zero value (Count 0
// or 1) means unsharded. Because the grid expansion is deterministic,
// every process computes the same partition locally, and concatenating
// the N shard output streams in index order reproduces the unsharded
// run-record stream byte for byte (shards suppress summary records;
// MergeRuns regenerates them from the concatenation).
type Shard struct {
	Index, Count int
}

func (s Shard) active() bool { return s.Count > 1 }

func (s Shard) validate() error {
	if !s.active() {
		return nil
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("exp: shard %d/%d out of range", s.Index, s.Count)
	}
	return nil
}

// Runner executes campaigns on a bounded worker pool. Scenario runs are
// fully independent and individually deterministic, so any parallelism
// produces the same results; the runner additionally delivers them to
// sinks in campaign enumeration order, making the emitted byte streams
// independent of scheduling too.
//
// Beyond plain execution the runner supports a content-addressed result
// cache (Cache), deterministic partitioning across processes (Shard),
// variance-aware adaptive replication (CITarget/MaxReps) and
// saturation-knee grid refinement (Refine). The adaptive features grow
// the executed point set only as a deterministic function of measured
// results, so all output streams stay byte-identical at any
// parallelism.
type Runner struct {
	// Parallel bounds the runner's total worker budget; <= 0 selects
	// GOMAXPROCS. With StepShards set, the budget is split between
	// campaign-level workers and intra-scenario shards (see StepShards).
	Parallel int
	// StepShards, when > 1, runs every simulation's Network.Step
	// domain-decomposed across that many router shards
	// (Scenario.StepParallel) and divides the campaign-level worker
	// count by the same factor, so the machine's parallelism budget is
	// spent inside scenarios instead of across them. Negative requests
	// the automatic shard width per scenario (min(GOMAXPROCS,
	// routers/4), serial when that is 1) WITHOUT dividing the worker
	// budget — useful when scenario sizes vary and only the large ones
	// should decompose. Results and all emitted byte streams are
	// unchanged — the parallel engine is bit-identical and StepParallel
	// is excluded from cache keys and serialization. Prefer
	// campaign-level parallelism (many short points) and reserve
	// StepShards for campaigns dominated by a few long saturation
	// points, where a lone run should use the whole machine.
	StepShards int
	// Progress, when set, is called after each delivered outcome with
	// the number of completed and total planned runs (the total grows
	// when adaptive replication or refinement schedules more). It runs
	// on the emission goroutine, in order.
	Progress func(done, total int)
	// Cache, when set, is consulted before every simulation by scenario
	// cache key and filled with fresh results in emission order. A
	// fully warm cache replays a campaign with zero simulations.
	Cache Cache
	// CITarget, when positive, enables variance-aware stopping: each
	// grid point receives additional replications (beyond the
	// campaign's Reps) until the CI95 half-width of both throughput and
	// mean latency is at most CITarget times the respective mean, or
	// MaxReps is reached.
	CITarget float64
	// MaxReps caps per-point replications under CITarget; <= 0 selects
	// four times the campaign's base replication count (at least 8).
	MaxReps int
	// Refine, when positive, enables saturation-knee refinement: after
	// the base grid completes, extra injection rates are inserted
	// around the first flattening of the measured throughput and
	// simulated like any other grid point. Refinement iterates to a
	// bounded fixed point: each pass re-locates the knee on the
	// enriched curve and bisects around it again, until the knee's
	// bracketing intervals narrow below 0.1% of the curve's rate span
	// or Refine extra rates have been inserted per curve (the bound).
	Refine int
	// Shard selects one deterministic slice of the campaign; see Shard.
	// Sharding composes with Cache but not with the adaptive features.
	Shard Shard
}

// task is one scheduled simulation: a point plus its owning campaign
// name and cache bookkeeping.
type task struct {
	pt       Point
	campaign string
	key      string
	res      core.Result
	cached   bool
}

// gridGroup is one campaign's contiguous block of global grid indices
// [base, base+n).
type gridGroup struct {
	c    Campaign
	base int
	n    int
}

// runState carries the mutable state of one RunAll invocation. Grid
// indices, point indices, and replication bookkeeping are global across
// all campaigns of the batch.
type runState struct {
	r     Runner
	ctx   context.Context
	sinks []Sink
	agg   *aggregator

	done, total int
	nextID      int   // next global Point.Index
	nextGrid    int   // next global grid index
	repsBase    []int // configured replications per global grid
	repsDone    []int // executed replications per global grid
}

// addGroup registers a campaign's cells in the global grid space.
func (st *runState) addGroup(c Campaign, cells int) gridGroup {
	g := gridGroup{c: c, base: st.nextGrid, n: cells}
	st.nextGrid += cells
	base := c.withDefaults().Reps
	for i := 0; i < cells; i++ {
		st.repsBase = append(st.repsBase, base)
		st.repsDone = append(st.repsDone, base)
	}
	return g
}

// Run expands the campaign, executes every point, streams outcomes to
// the sinks in enumeration order, and finally delivers one aggregate
// per grid point (mean and CI95 across replications) to both the sinks
// and the caller. Cancelling ctx stops scheduling new runs and returns
// the context error; in-flight simulations finish first.
func (r Runner) Run(ctx context.Context, c Campaign, sinks ...Sink) ([]Aggregate, error) {
	return r.RunAll(ctx, []Campaign{c}, sinks...)
}

// RunAll executes several campaigns as one batch on a shared worker
// pool: points are enumerated campaign by campaign, outcomes stream to
// the sinks in that global order, and the returned aggregates follow
// it too. One batch means cross-campaign parallelism — the figure
// generators use it to run a figure's many small curves concurrently.
func (r Runner) RunAll(ctx context.Context, cs []Campaign, sinks ...Sink) ([]Aggregate, error) {
	if err := r.Shard.validate(); err != nil {
		return nil, err
	}
	if r.Shard.active() && (r.CITarget > 0 || r.Refine > 0) {
		return nil, fmt.Errorf("exp: sharding is incompatible with adaptive replication and refinement")
	}

	st := &runState{r: r, ctx: ctx, sinks: sinks, agg: newAggregator()}
	var tasks []task
	var groups []gridGroup
	for _, c := range cs {
		pts, err := c.Points()
		if err != nil {
			return nil, err
		}
		g := st.addGroup(c, c.gridSize())
		groups = append(groups, g)
		tasks = slices.Grow(tasks, len(pts))
		for _, p := range pts {
			p.GridIndex += g.base
			p.Index = len(tasks)
			tasks = append(tasks, task{pt: p, campaign: c.Name})
		}
	}
	st.nextID = len(tasks)
	st.total = len(tasks)

	// Sharded execution: run only the local contiguous index range and
	// emit run records; summaries are left to MergeRuns over the
	// concatenated shard streams.
	if r.Shard.active() {
		lo := r.Shard.Index * len(tasks) / r.Shard.Count
		hi := (r.Shard.Index + 1) * len(tasks) / r.Shard.Count
		st.total = hi - lo
		if err := st.runBatch(tasks[lo:hi]); err != nil {
			return nil, err
		}
		return st.agg.aggregates(), ctx.Err()
	}

	if err := st.runBatch(tasks); err != nil {
		return nil, err
	}
	if r.CITarget > 0 {
		if err := st.adapt(groups); err != nil {
			return nil, err
		}
	}
	if r.Refine > 0 {
		refined, err := st.refine(groups)
		if err != nil {
			return nil, err
		}
		if r.CITarget > 0 {
			if err := st.adapt(refined); err != nil {
				return nil, err
			}
		}
	}

	aggs := st.agg.aggregates()
	for _, a := range aggs {
		for _, s := range sinks {
			if err := s.Summary(a); err != nil {
				return nil, err
			}
		}
	}
	return aggs, ctx.Err()
}

// workerBudget resolves the campaign-level worker count: the Parallel
// budget (GOMAXPROCS when unset), divided — rounding up — by the
// per-scenario shard width so campaign workers × step shards stays
// within the configured budget.
func (r Runner) workerBudget() int {
	p := r.Parallel
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if r.StepShards > 1 {
		p = (p + r.StepShards - 1) / r.StepShards
	}
	if p < 1 {
		p = 1
	}
	return p
}

// runBatch executes one slice of tasks on the pool, delivering
// outcomes (and cache stores) in slice order.
func (st *runState) runBatch(batch []task) error {
	if len(batch) == 0 {
		return st.ctx.Err()
	}
	r := st.r
	return pool.Ordered(st.ctx, len(batch), r.workerBudget(),
		func(_ context.Context, i int) error {
			t := &batch[i]
			if r.StepShards != 0 && t.pt.Scenario.StepParallel == 0 {
				// Intra-scenario parallelism: invisible in cache keys,
				// results and emitted records (StepParallel is
				// result-neutral and never serialized). Negative passes
				// the auto-width request through to the engine.
				t.pt.Scenario.StepParallel = r.StepShards
			}
			if r.Cache != nil {
				t.key = t.pt.Scenario.CacheKey()
				if res, ok := r.Cache.Lookup(t.key); ok {
					t.res, t.cached = res, true
					return nil
				}
			}
			ws := workspaces.Get().(*core.Workspace)
			res, err := ws.Run(t.pt.Scenario)
			if err != nil {
				// A failed run (e.g. a conservation violation) may leave
				// the workspace's network in exactly the inconsistent
				// state Reset cannot repair; drop it instead of pooling.
				return fmt.Errorf("exp: %s: %w", t.pt.ID(), err)
			}
			workspaces.Put(ws)
			t.res = res
			return nil
		},
		func(i int) error {
			t := &batch[i]
			if r.Cache != nil && !t.cached {
				if err := r.Cache.Store(t.key, t.res); err != nil {
					return err
				}
			}
			o := Outcome{Campaign: t.campaign, Point: t.pt, Result: t.res}
			st.agg.add(o)
			st.done++
			if r.Progress != nil {
				r.Progress(st.done, st.total)
			}
			for _, s := range st.sinks {
				if err := s.Run(o); err != nil {
					return err
				}
			}
			return nil
		})
}

// satisfied reports whether a grid point's aggregate meets the CI
// target: the 95% half-width of throughput and mean latency each
// within target times the respective mean (metrics with a non-positive
// mean — e.g. a zero-rate point — cannot be normalized and count as
// met).
func satisfied(a Aggregate, target float64) bool {
	for _, m := range []Metric{a.Throughput, a.Latency} {
		if m.Mean > 0 && m.CI95 > target*m.Mean {
			return false
		}
	}
	return true
}

// adapt runs variance-aware stopping rounds over the groups: every
// unsatisfied grid point doubles its replication count (up to the cap)
// per round, with extension seeds continuing each point's original
// stream, until every point is satisfied or capped.
func (st *runState) adapt(groups []gridGroup) error {
	r := st.r
	for {
		var round []task
		for _, grp := range groups {
			target := make([]int, grp.n)
			grew := false
			for l := 0; l < grp.n; l++ {
				g := grp.base + l
				target[l] = st.repsDone[g]
				a, ok := st.agg.get(g)
				if !ok {
					continue
				}
				capReps := r.MaxReps
				if capReps <= 0 {
					capReps = 4 * st.repsBase[g]
					if capReps < 8 {
						capReps = 8
					}
				}
				if st.repsDone[g] >= capReps || satisfied(a, r.CITarget) {
					continue
				}
				next := st.repsDone[g] * 2
				if next > capReps {
					next = capReps
				}
				if next > st.repsDone[g] {
					target[l] = next
					grew = true
				}
			}
			if !grew {
				continue
			}
			pts, err := grp.c.pointsN(
				func(l int) int { return target[l] },
				func(l int) int { return st.repsDone[grp.base+l] })
			if err != nil {
				return err
			}
			for _, p := range pts {
				p.GridIndex += grp.base
				p.Index = st.nextID
				st.nextID++
				round = append(round, task{pt: p, campaign: grp.c.Name})
			}
			for l := 0; l < grp.n; l++ {
				st.repsDone[grp.base+l] = target[l]
			}
		}
		if len(round) == 0 {
			return st.ctx.Err()
		}
		st.total += len(round)
		if err := st.runBatch(round); err != nil {
			return err
		}
	}
}

// ratePoint is one measured injection rate of a refinement curve and
// its global grid index (where the aggregate lives).
type ratePoint struct {
	rate float64
	grid int
}

// refineCurve is the mutable per-curve state of the refinement loop:
// the single-curve campaign template new rates are expanded from, the
// rates measured so far, and the remaining insertion budget.
type refineCurve struct {
	c      Campaign
	pts    []ratePoint
	budget int
}

// refine iterates saturation-knee refinement to a bounded fixed point.
// Each pass locates, on every curve (campaign × topology × nodes ×
// traffic), the first rate interval where the marginal throughput gain
// drops below half the curve's initial slope — the flattening the
// paper's Figures 6, 8 and 10 exhibit at saturation — inserts the
// midpoints of the bracketing intervals, and simulates them like any
// other grid point; the enriched curve then feeds the next pass. A
// curve stops refining when its knee bracket is tighter than
// kneeRefineTol of the rate span, when bisection yields no new rate,
// or when Refine extra rates have been inserted. The synthesized
// single-curve groups are returned so the caller can fold them into
// further adaptive-replication rounds.
func (st *runState) refine(groups []gridGroup) ([]gridGroup, error) {
	var curves []*refineCurve
	for _, grp := range groups {
		cells, err := grp.c.cells()
		if err != nil {
			return nil, err
		}
		type curveKey struct {
			topo    core.TopologyKind
			nodes   int
			traffic string
		}
		byKey := map[curveKey]*refineCurve{}
		var order []curveKey
		for _, cl := range cells {
			k := curveKey{cl.topo, cl.nodes, cl.spec.Name()}
			cv, ok := byKey[k]
			if !ok {
				cc := grp.c
				cc.Topologies = []core.TopologyKind{cl.topo}
				cc.Nodes = []int{cl.nodes}
				cc.Traffics = []TrafficSpec{cl.spec}
				cv = &refineCurve{c: cc, budget: st.r.Refine}
				byKey[k] = cv
				order = append(order, k)
			}
			cv.pts = append(cv.pts, ratePoint{rate: cl.flitRate, grid: cl.grid + grp.base})
		}
		for _, k := range order {
			if cv := byKey[k]; len(cv.pts) >= 3 {
				curves = append(curves, cv)
			}
		}
	}

	var refined []gridGroup
	for {
		var round []task
		for _, cv := range curves {
			if cv.budget <= 0 {
				continue
			}
			sort.SliceStable(cv.pts, func(a, b int) bool { return cv.pts[a].rate < cv.pts[b].rate })
			xs := make([]float64, len(cv.pts))
			ys := make([]float64, len(cv.pts))
			for i, pt := range cv.pts {
				xs[i] = pt.rate
				if a, ok := st.agg.get(pt.grid); ok {
					ys[i] = a.Throughput.Mean
				}
			}
			extra := kneeCandidates(xs, ys)
			if len(extra) > cv.budget {
				extra = extra[:cv.budget]
			}
			if len(extra) == 0 {
				cv.budget = 0 // fixed point reached for this curve
				continue
			}
			cc := cv.c
			cc.FlitRates = extra
			pts, err := cc.Points()
			if err != nil {
				return nil, err
			}
			g := st.addGroup(cc, len(extra))
			refined = append(refined, g)
			for _, p := range pts {
				p.GridIndex += g.base
				p.Index = st.nextID
				st.nextID++
				round = append(round, task{pt: p, campaign: cc.Name})
			}
			for i, rate := range extra {
				cv.pts = append(cv.pts, ratePoint{rate: rate, grid: g.base + i})
			}
			cv.budget -= len(extra)
		}
		if len(round) == 0 {
			break
		}
		st.total += len(round)
		if err := st.runBatch(round); err != nil {
			return nil, err
		}
	}
	if len(refined) == 0 {
		return nil, st.ctx.Err()
	}
	return refined, nil
}

// kneeRefineTol stops bisection once a knee bracket is tighter than
// this fraction of the curve's full rate span: further points would
// refine the knee estimate by less than the measurement noise.
const kneeRefineTol = 1e-3

// kneeCandidates returns the midpoint rates bisecting the knee of the
// measured curve (xs ascending, ys throughput): one in the interval
// entering the knee and one in the interval leaving it, skipping
// intervals already tighter than kneeRefineTol of the span and rates
// already present. An empty result means the curve has no knee or its
// bracket has converged.
func kneeCandidates(xs, ys []float64) []float64 {
	knee := kneeInterval(xs, ys)
	if knee < 0 {
		return nil
	}
	tol := kneeRefineTol * (xs[len(xs)-1] - xs[0])
	var cand []float64
	if knee > 0 && xs[knee]-xs[knee-1] > tol {
		cand = append(cand, (xs[knee-1]+xs[knee])/2)
	}
	if xs[knee+1]-xs[knee] > tol {
		cand = append(cand, (xs[knee]+xs[knee+1])/2)
	}
	return dedupRates(cand, xs)
}

// kneeInterval returns the index i of the first rate interval
// [xs[i], xs[i+1]] whose throughput slope falls below half the initial
// slope, or -1 when the curve never flattens (or is degenerate).
func kneeInterval(xs, ys []float64) int {
	if len(xs) < 3 || xs[1] == xs[0] {
		return -1
	}
	base := (ys[1] - ys[0]) / (xs[1] - xs[0])
	if base <= 0 {
		return -1
	}
	for i := 1; i < len(xs)-1; i++ {
		if xs[i+1] == xs[i] {
			continue
		}
		slope := (ys[i+1] - ys[i]) / (xs[i+1] - xs[i])
		if slope < base/2 {
			return i
		}
	}
	return -1
}

// dedupRates drops candidates that duplicate each other or an existing
// grid rate.
func dedupRates(candidates, existing []float64) []float64 {
	seen := map[float64]bool{}
	for _, x := range existing {
		seen[x] = true
	}
	var out []float64
	for _, x := range candidates {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// RunCampaign executes c with default parallelism and no sinks,
// returning only the aggregates — the one-call form for examples and
// tests.
func RunCampaign(c Campaign) ([]Aggregate, error) {
	return Runner{}.Run(context.Background(), c)
}
