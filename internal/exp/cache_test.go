package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gonoc/internal/core"
)

// entryLine renders one cache line exactly as Store appends it.
func entryLine(t *testing.T, key string, tput float64) string {
	t.Helper()
	b, err := json.Marshal(encodeEntry(key, core.Result{Throughput: tput}))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Opening indexes keys and decodes nothing, so every way a line can be
// bad must still end where the eager loader ended: skipped at open or
// missed at lookup, re-simulated, re-appended, and served after the
// next open — with the counters exact at every step.
func TestFileCacheRecovery(t *testing.T) {
	type lookup struct {
		key  string
		hit  bool
		tput float64
	}
	a, b := entryLine(t, "a", 1), entryLine(t, "b", 2)
	cases := []struct {
		name    string
		file    string // results.jsonl as found on disk
		openLen int
		lookups []lookup
		endLen  int // after the lookups
	}{
		{"healthy", a + "\n" + b + "\n", 2,
			[]lookup{{"a", true, 1}, {"b", true, 2}, {"c", false, 0}}, 2},
		{"torn last line", a + "\n" + b[:len(b)/2], 1,
			[]lookup{{"a", true, 1}, {"b", false, 0}}, 1},
		{"complete last line without newline", a + "\n" + b, 2,
			[]lookup{{"b", true, 2}}, 2},
		{"foreign lines", "not json at all\n" + a + "\n{\"other\":1}\n\n[1,2]\n", 1,
			[]lookup{{"a", true, 1}, {"other", false, 0}}, 1},
		{"foreign field order", `{"result":{"Throughput":7},"key":"z"}` + "\n", 1,
			[]lookup{{"z", true, 7}}, 1},
		{"framed line, corrupt body", a + "\n" + `{"key":"b","result":{"Throughput":oops}}` + "\n", 2,
			[]lookup{{"b", false, 0}, {"a", true, 1}, {"b", false, 0}}, 1},
		{"framed line under another key", `{"key":"b","result":{"Throughput":9},"key":"x"}` + "\n", 1,
			[]lookup{{"b", false, 0}}, 0},
		{"empty key", `{"key":"","result":{"Throughput":9}}` + "\n" + a + "\n", 1,
			[]lookup{{"", false, 0}, {"a", true, 1}}, 1},
		{"duplicate key: last wins", a + "\n" + b + "\n" + entryLine(t, "a", 3) + "\n", 2,
			[]lookup{{"a", true, 3}, {"b", true, 2}}, 2},
		{"key needing escapes", entryLine(t, `we"ird\<key>`, 4) + "\n", 1,
			[]lookup{{`we"ird\<key>`, true, 4}, {"we", false, 0}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, cacheFile)
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := OpenFileCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.Len() != tc.openLen {
				t.Fatalf("Len after open = %d, want %d", c.Len(), tc.openLen)
			}
			hits, misses := 0, 0
			var missed []string
			for _, l := range tc.lookups {
				r, ok := c.Lookup(l.key)
				if ok != l.hit || (ok && r.Throughput != l.tput) {
					t.Fatalf("Lookup(%q) = %v, %v; want %v, %v", l.key, r.Throughput, ok, l.tput, l.hit)
				}
				if ok {
					hits++
				} else {
					misses++
					missed = append(missed, l.key)
				}
			}
			if c.Hits() != hits || c.Misses() != misses {
				t.Fatalf("counters %d hits, %d misses; want %d, %d", c.Hits(), c.Misses(), hits, misses)
			}
			if c.Len() != tc.endLen {
				t.Fatalf("Len after lookups = %d, want %d", c.Len(), tc.endLen)
			}

			// Every miss is re-simulated by the runner and stored: the
			// line must reach the file (once) and win over whatever bad
			// line carried the key before.
			want := tc.file
			stored := map[string]bool{}
			for _, key := range missed {
				if key == "" || stored[key] {
					continue // an empty key is not cacheable; a repeat is a dup
				}
				stored[key] = true
				for i := 0; i < 2; i++ { // the second Store is a duplicate
					if err := c.Store(key, core.Result{Throughput: 42}); err != nil {
						t.Fatal(err)
					}
				}
				want += entryLine(t, key, 42) + "\n"
				if r, ok := c.Lookup(key); !ok || r.Throughput != 42 {
					t.Fatalf("Lookup(%q) after Store = %v, %v", key, r.Throughput, ok)
				}
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Fatalf("file after stores:\n%s\nwant:\n%s", got, want)
			}
			if strings.HasSuffix(tc.file, "\n") || len(stored) == 0 {
				// (An append after an unterminated line merges with it —
				// as it always has; the next open then skips both.)
				re, err := OpenFileCache(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				for key := range stored {
					if r, ok := re.Lookup(key); !ok || r.Throughput != 42 {
						t.Fatalf("reopened Lookup(%q) = %v, %v", key, r.Throughput, ok)
					}
				}
				if re.Len() != tc.endLen+len(stored) {
					t.Fatalf("reopened Len = %d, want %d", re.Len(), tc.endLen+len(stored))
				}
			}
		})
	}
}

// fixtureCampaign is the campaign testdata/cache-parent/results.jsonl
// was filled from, by the commit before the lazy index (7f68ceb): two
// zero-rate cells, whose results are all NaNs, and two loaded ones.
func fixtureCampaign() Campaign {
	return Campaign{
		Name:       "fixture",
		Topologies: []core.TopologyKind{core.Ring, core.Spidergon},
		Nodes:      []int{8},
		Traffics:   []TrafficSpec{{Kind: core.UniformTraffic}},
		FlitRates:  []float64{0, 0.2},
		Reps:       2,
		Seed:       7,
		Measure:    200,
	}
}

// The on-disk format did not move: a cache written by the previous
// loader replays this campaign without a simulation and to the same
// results a simulation gives, this commit fills a fresh cache with the
// same bytes, and compaction leaves them alone.
func TestFileCacheFormatUnchanged(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "cache-parent", cacheFile))
	if err != nil {
		t.Fatal(err)
	}
	c := fixtureCampaign()
	simulated := runJSONL(t, Runner{Parallel: 2}, c)

	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, cacheFile), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	oc, err := OpenFileCache(old)
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	if replayed := runJSONL(t, Runner{Parallel: 2, Cache: oc}, c); !bytes.Equal(replayed, simulated) {
		t.Fatal("replay from the parent-written cache differs from a simulated run")
	}
	if oc.Len() != 8 || oc.Hits() != 8 || oc.Misses() != 0 {
		t.Fatalf("parent-written cache: %d entries, %d hits, %d misses; want 8, 8, 0", oc.Len(), oc.Hits(), oc.Misses())
	}
	pts, err := c.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:2] { // a NaN-laden entry and a measured one, field by field
		want, err := core.Run(p.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := oc.Lookup(p.Scenario.CacheKey())
		// NaN != NaN: compare through the wire form, which names them.
		if !ok || !reflect.DeepEqual(encodeEntry("", got), encodeEntry("", want)) {
			t.Fatalf("%s: cached %+v, simulated %+v", p.ID(), got, want)
		}
	}
	if dropped, err := oc.Compact(); err != nil || dropped != 0 {
		t.Fatalf("compacting the fixture: dropped %d, err %v", dropped, err)
	}
	if got, err := os.ReadFile(filepath.Join(old, cacheFile)); err != nil || !bytes.Equal(got, fixture) {
		t.Fatalf("compaction changed a healthy file (err %v)", err)
	}

	fresh := t.TempDir()
	fc, err := OpenFileCache(fresh)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if _, err := (Runner{Parallel: 2, Cache: fc}).Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(fresh, cacheFile)); err != nil || !bytes.Equal(got, fixture) {
		t.Fatalf("cache file written now differs from the parent-written one (err %v)", err)
	}
}
