package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"gonoc/internal/core"
	"gonoc/internal/exp"
)

// replay times what a fully warm `nocsweep -cache dir -out -csv -sqlite`
// re-run costs: the campaign is really simulated once, in set-up, into a
// FileCache; each timed unit then opens that cache, pushes every point
// through the runner into three sinks and closes everything. Not one
// cycle is simulated in the timed region.
type replay struct {
	cfg      runConfig
	campaign exp.Campaign
	points   int
	want     string // digest of the set-up pass's JSONL: what every replay must reproduce

	traced []replayTrace
}

// replayTrace is what one traced replay measured.
type replayTrace struct {
	open, sqliteClose  time.Duration
	jsonl, csv, sqlite stopwatch
	lookups, hits      uint64
	dbBytes            int64
}

func newReplay(c runConfig) *replay {
	rates := make([]float64, c.sz.replayRates)
	for i := range rates {
		rates[i] = float64(i+1) / 100
	}
	return &replay{cfg: c, campaign: exp.Campaign{
		Name:       "replay",
		Topologies: []core.TopologyKind{core.Ring, core.Spidergon, core.Mesh},
		Nodes:      c.sz.replayNodes,
		Traffics:   []exp.TrafficSpec{{Kind: core.UniformTraffic}},
		FlitRates:  rates,
		Reps:       c.sz.replayReps,
		Seed:       c.seed,
		Warmup:     0,
		Measure:    c.sz.replayMeasure,
	}}
}

func (r *replay) cacheDir() string { return scratch(r.cfg, "replaycache") }

func (r *replay) setup() error {
	if err := os.RemoveAll(r.cacheDir()); err != nil {
		return err
	}
	pts, err := r.campaign.Points()
	if err != nil {
		return err
	}
	r.points = len(pts)
	cache, err := exp.OpenFileCache(r.cacheDir())
	if err != nil {
		return err
	}
	defer cache.Close()
	h := sha256.New()
	if _, err := (exp.Runner{Parallel: r.cfg.nproc, Cache: cache}).Run(context.Background(), r.campaign, exp.NewJSONLWriter(h)); err != nil {
		return err
	}
	if cache.Misses() != r.points {
		return fmt.Errorf("set-up simulated %d of %d points", cache.Misses(), r.points)
	}
	r.want = hex.EncodeToString(h.Sum(nil))
	return cache.Close()
}

// timedSink charges every call into a sink to its stopwatch. Sinks are
// driven from the runner's single emission goroutine.
type timedSink struct {
	inner exp.Sink
	w     *stopwatch
}

func (s timedSink) Run(o exp.Outcome) (err error) {
	s.w.time(func() { err = s.inner.Run(o) })
	return err
}

func (s timedSink) Summary(a exp.Aggregate) (err error) {
	s.w.time(func() { err = s.inner.Summary(a) })
	return err
}

func (r *replay) unit(tr *tracer, parent int) (unitResult, error) {
	jsonlPath, csvPath, dbPath := scratch(r.cfg, "replay.jsonl"), scratch(r.cfg, "replay.csv"), scratch(r.cfg, "replay.db")
	var rt replayTrace
	t0 := time.Now()

	sp := tr.begin("exp.cache_open", parent)
	fc, err := exp.OpenFileCache(r.cacheDir())
	rt.open = tr.end(sp)
	if err != nil {
		return unitResult{}, err
	}
	defer fc.Close()
	// Files are written unbuffered, as nocsweep writes -out and -csv.
	jf, err := os.Create(jsonlPath)
	if err != nil {
		return unitResult{}, err
	}
	defer jf.Close()
	cf, err := os.Create(csvPath)
	if err != nil {
		return unitResult{}, err
	}
	defer cf.Close()
	sq := exp.NewSQLiteSink(dbPath)
	sinks := []exp.Sink{exp.NewJSONLWriter(jf), exp.NewCSVWriter(cf), sq}
	var cache exp.Cache = fc
	var rc *recCache
	if tr != nil {
		sinks = []exp.Sink{timedSink{sinks[0], &rt.jsonl}, timedSink{sinks[1], &rt.csv}, timedSink{sinks[2], &rt.sqlite}}
		rc = &recCache{inner: fc}
		cache = rc
	}

	sp = tr.begin("exp.runner_run", parent)
	r0 := time.Now()
	_, err = exp.Runner{Parallel: r.cfg.nproc, Cache: cache}.Run(context.Background(), r.campaign, sinks...)
	r1 := time.Now()
	tr.end(sp)
	if err != nil {
		return unitResult{}, err
	}
	tr.batch("exp.jsonl_sink", sp, r0, r1, rt.jsonl.calls, rt.jsonl.busy)
	tr.batch("exp.csv_sink", sp, r0, r1, rt.csv.calls, rt.csv.busy)
	tr.batch("exp.sqlite_sink", sp, r0, r1, rt.sqlite.calls, rt.sqlite.busy)

	sp = tr.begin("sqlitefile.write", parent)
	err = sq.Close()
	rt.sqliteClose = tr.end(sp)
	if err != nil {
		return unitResult{}, err
	}
	sp = tr.begin("exp.close", parent)
	for _, c := range []interface{ Close() error }{jf, cf, fc} {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	tr.end(sp)
	wall := time.Since(t0)
	if err != nil {
		return unitResult{}, err
	}

	if fc.Misses() != 0 || fc.Hits() != r.points {
		return unitResult{}, fmt.Errorf("replay simulated: %d hits, %d misses of %d points", fc.Hits(), fc.Misses(), r.points)
	}
	digest, _, err := shaFile(jsonlPath)
	if err != nil {
		return unitResult{}, err
	}
	if tr != nil {
		rt.lookups, rt.hits = rc.lookups.Load(), rc.hits.Load()
		if st, err := os.Stat(dbPath); err == nil {
			rt.dbBytes = st.Size()
		}
		r.traced = append(r.traced, rt)
	}
	return unitResult{
		wall:   wall,
		cycles: uint64(r.points) * (r.campaign.Warmup + r.campaign.Measure),
		points: uint64(r.points),
		digest: digest,
	}, nil
}

func (r *replay) verify(units []unitResult) error {
	if err := sameDigests(units, "replayed JSONL"); err != nil {
		return err
	}
	if units[0].digest != r.want {
		return fmt.Errorf("replayed JSONL differs from the simulated pass's")
	}
	return nil
}

func (r *replay) digests() map[string]string { return map[string]string{"replay.jsonl": r.want} }

func (r *replay) layers(tr *tracer, parent int, out map[string]float64) error {
	med := func(f func(replayTrace) float64) float64 {
		xs := make([]float64, len(r.traced))
		for i, t := range r.traced {
			xs[i] = f(t)
		}
		return median(xs)
	}
	rate := func(w func(replayTrace) stopwatch) float64 {
		return med(func(t replayTrace) float64 { return float64(w(t).calls) / w(t).busy.Seconds() })
	}
	last := r.traced[len(r.traced)-1]
	out["exp.cache_hit_ratio"] = float64(last.hits) / float64(last.lookups)
	out["exp.cache_open_s"] = med(func(t replayTrace) float64 { return t.open.Seconds() })
	out["exp.jsonl_rows_per_s"] = rate(func(t replayTrace) stopwatch { return t.jsonl })
	out["exp.csv_rows_per_s"] = rate(func(t replayTrace) stopwatch { return t.csv })
	out["exp.sqlite_rows_per_s"] = rate(func(t replayTrace) stopwatch { return t.sqlite })
	out["sqlitefile.write_mb_per_s"] = med(func(t replayTrace) float64 {
		return float64(t.dbBytes) / 1e6 / t.sqliteClose.Seconds()
	})
	_, err := probeExpand(tr, parent, r.campaign, out)
	return err
}
