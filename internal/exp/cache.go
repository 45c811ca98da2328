package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"gonoc/internal/core"
)

// Source is the read side of a content-addressed result store: Lookup
// resolves a scenario cache key (core.Scenario.CacheKey) to a
// previously measured result. Implementations must be safe for
// concurrent Lookup — the runner consults the source from every worker.
type Source interface {
	Lookup(key string) (core.Result, bool)
}

// Cache is a result store: a Source that also records fresh results.
// The runner calls Store from its single ordered-emission goroutine,
// concurrently with worker Lookups.
type Cache interface {
	Source
	Store(key string, r core.Result) error
}

// MemCache is an in-memory Cache with hit/miss accounting. The zero
// value is not ready; use NewMemCache.
type MemCache struct {
	mu           sync.RWMutex
	m            map[string]core.Result
	hits, misses atomic.Int64
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache() *MemCache { return &MemCache{m: make(map[string]core.Result)} }

// Lookup implements Source.
func (c *MemCache) Lookup(key string) (core.Result, bool) {
	c.mu.RLock()
	r, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, ok
}

// Store implements Cache.
func (c *MemCache) Store(key string, r core.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = r
	return nil
}

// Len returns the number of cached results.
func (c *MemCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Hits returns the number of successful Lookups so far.
func (c *MemCache) Hits() int { return int(c.hits.Load()) }

// Misses returns the number of failed Lookups so far.
func (c *MemCache) Misses() int { return int(c.misses.Load()) }

// cacheFile is the JSONL store inside a FileCache directory.
const cacheFile = "results.jsonl"

// FileCache is a Cache persisted as one JSONL file in a directory: one
// {"key": ..., "result": ...} object per line, appended (and flushed)
// as each result arrives — one line-sized write per simulation, so an
// interrupt at any point loses nothing already measured. The file is
// append-only during a campaign; Compact rewrites it without the
// superseded lines. Opening the
// cache replays the file, so an interrupted campaign resumes from
// whatever completed — a torn final line (from a killed process) is
// skipped, not fatal. The on-disk order is the runner's emission
// order, hence deterministic for a given campaign.
//
// In memory the cache is the file's bytes plus an index from key to
// line: open only locates each line's key, and Lookup decodes the line
// it is asked for, in the goroutine that asked. A campaign therefore
// pays JSON decoding on its workers, and only for the points it runs.
type FileCache struct {
	f    *os.File
	path string

	mu sync.RWMutex
	// slab holds every line this handle knows: the file as read at open,
	// then each line Store appended. It only ever grows at the end, so a
	// subslice taken under mu stays valid and immutable after unlocking.
	slab  []byte
	index map[string]span

	hits, misses atomic.Int64
}

// span locates one line (without its newline) in FileCache.slab.
type span struct{ off, n int }

// cacheEntry is the JSONL wire form of one cached result. Results can
// carry NaN metrics (a replication that measured no packet), which
// encoding/json rejects, so the wire form stores an explicit list of
// the fields that were NaN and zeroes them in the payload.
type cacheEntry struct {
	Key    string      `json:"key"`
	Result core.Result `json:"result"`
	NaNs   []string    `json:"nans,omitempty"`
}

// nanFields enumerates the Result metrics that can be NaN, as name +
// accessor pairs shared by encode and decode.
var nanFields = []struct {
	name string
	get  func(*core.Result) *float64
}{
	{"mean_latency", func(r *core.Result) *float64 { return &r.MeanLatency }},
	{"p50_latency", func(r *core.Result) *float64 { return &r.P50Latency }},
	{"p95_latency", func(r *core.Result) *float64 { return &r.P95Latency }},
	{"mean_net_latency", func(r *core.Result) *float64 { return &r.MeanNetLatency }},
	{"mean_hops", func(r *core.Result) *float64 { return &r.MeanHops }},
	{"energy_per_packet", func(r *core.Result) *float64 { return &r.EnergyPerPacket }},
	{"total_energy", func(r *core.Result) *float64 { return &r.TotalEnergy }},
}

func encodeEntry(key string, r core.Result) cacheEntry {
	e := cacheEntry{Key: key, Result: r}
	for _, f := range nanFields {
		if p := f.get(&e.Result); math.IsNaN(*p) {
			*p = 0
			e.NaNs = append(e.NaNs, f.name)
		}
	}
	return e
}

func (e cacheEntry) decode() core.Result {
	r := e.Result
	for _, name := range e.NaNs {
		for _, f := range nanFields {
			if f.name == name {
				*f.get(&r) = math.NaN()
			}
		}
	}
	return r
}

// entryPrefix and entryKeyEnd frame the key in every line Store writes:
// encoding/json emits cacheEntry's fields in declaration order.
const (
	entryPrefix = `{"key":"`
	entryKeyEnd = `","result":`
)

// lineKey returns the key of one cache line, or "" for a line to skip
// (torn, foreign, keyless). Lines in Store's own layout are recognised
// by their frame alone — their body is decoded, and checked, only when
// Lookup asks for it; anything else, including a key that needed JSON
// escapes, goes through the full decoder.
func lineKey(line []byte) string {
	if bytes.HasPrefix(line, []byte(entryPrefix)) && line[len(line)-1] == '}' {
		rest := line[len(entryPrefix):]
		if i := bytes.IndexAny(rest, `"\`); i >= 0 && bytes.HasPrefix(rest[i:], []byte(entryKeyEnd)) {
			return string(rest[:i])
		}
	}
	var e cacheEntry
	if json.Unmarshal(line, &e) != nil {
		return ""
	}
	return e.Key
}

// OpenFileCache opens (creating if needed) the JSONL result cache in
// dir. Store writes through, so Close only releases the descriptor.
func OpenFileCache(dir string) (*FileCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: cache dir: %w", err)
	}
	path := filepath.Join(dir, cacheFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("exp: cache file: %w", err)
	}
	slab, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("exp: reading cache: %w", err)
	}
	return &FileCache{f: f, path: path, slab: slab, index: indexLines(slab)}, nil
}

// indexLines maps each key in slab to its line; of several lines with
// one key the last wins.
func indexLines(slab []byte) map[string]span {
	index := make(map[string]span)
	for off := 0; off < len(slab); {
		n := bytes.IndexByte(slab[off:], '\n')
		if n < 0 {
			n = len(slab) - off // unterminated last line
		}
		if key := lineKey(slab[off : off+n]); key != "" {
			index[key] = span{off, n}
		}
		off += n + 1
	}
	return index
}

// Lookup implements Source. A line whose body does not decode to an
// entry for key — a torn write that kept its prefix — is a miss, and is
// forgotten so that the re-simulated result is appended by Store.
func (c *FileCache) Lookup(key string) (core.Result, bool) {
	c.mu.RLock()
	sp, ok := c.index[key]
	line := c.slab[sp.off : sp.off+sp.n] // empty for the zero span of an unknown key
	c.mu.RUnlock()
	if ok {
		var e cacheEntry
		if json.Unmarshal(line, &e) == nil && e.Key == key {
			c.hits.Add(1)
			return e.decode(), true
		}
		c.mu.Lock()
		if c.index[key] == sp {
			delete(c.index, key)
		}
		c.mu.Unlock()
	}
	c.misses.Add(1)
	return core.Result{}, false
}

// Store implements Cache, appending the entry to the JSONL file. A key
// already present (e.g. loaded at open) is not re-appended: equal keys
// mean equal results.
func (c *FileCache) Store(key string, r core.Result) error {
	b, err := json.Marshal(encodeEntry(key, r))
	if err != nil {
		return fmt.Errorf("exp: encoding cache entry: %w", err)
	}
	b = append(b, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.index[key]; dup {
		return nil
	}
	if _, err := c.f.Write(b); err != nil {
		return fmt.Errorf("exp: appending cache entry: %w", err)
	}
	c.index[key] = span{len(c.slab), len(b) - 1}
	c.slab = append(c.slab, b...)
	return nil
}

// Compact rewrites the JSONL store without its dead weight: torn or
// foreign lines, and superseded duplicates of a key (the last
// occurrence wins, matching what Open loads), which accumulate when
// several shard processes append to a shared cache directory. Entries
// keep their first-appearance order, so compacting a healthy file is
// byte-stable. The rewrite goes through a temp file and an atomic
// rename; a crash mid-compaction leaves the original intact. It
// returns the number of lines dropped.
//
// Compact requires a quiesced cache: it must not run while another
// process is appending to the same directory — a writer holding the
// old inode would lose every line appended after the scan (its handle
// survives the rename but the file it feeds is unlinked). Run it
// between campaigns, as `nocsweep -cache-compact` does.
func (c *FileCache) Compact() (dropped int, err error) {
	if _, err := c.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("exp: compact rewind: %w", err)
	}
	// First pass: latest raw line per key, in first-appearance order.
	latest := make(map[string][]byte)
	var order []string
	lines := 0
	sc := bufio.NewScanner(c.f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		lines++
		var e cacheEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Key == "" {
			continue // torn or foreign line: dropped
		}
		if _, ok := latest[e.Key]; !ok {
			order = append(order, e.Key)
		}
		latest[e.Key] = append([]byte(nil), sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("exp: compact scan: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(c.path), cacheFile+".compact-*")
	if err != nil {
		return 0, fmt.Errorf("exp: compact temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	// CreateTemp uses 0600; restore the store's usual mode so other
	// users of a shared cache directory can still open it.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("exp: compact chmod: %w", err)
	}
	var out []byte
	for _, key := range order {
		out = append(append(out, latest[key]...), '\n')
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("exp: compact write: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("exp: compact rename: %w", err)
	}
	// The temp handle now refers to the file living at c.path (the fd
	// follows the inode across the rename) with its offset at the end,
	// so adopt it as the append handle directly: there is no window in
	// which a failed reopen could leave c.f on the unlinked old inode.
	// Prefer a fresh O_APPEND descriptor when available — shared-cache
	// writers from concurrent shard processes rely on append atomicity —
	// but fall back to the temp handle rather than fail.
	c.f.Close()
	if f, err := os.OpenFile(c.path, os.O_RDWR|os.O_APPEND, 0o644); err == nil {
		tmp.Close()
		c.f = f
	} else {
		c.f = tmp
	}
	c.mu.Lock()
	c.slab, c.index = out, indexLines(out)
	c.mu.Unlock()
	return lines - len(order), nil
}

// Len returns the number of cached results. A line that kept its frame
// but not its body counts until the Lookup that finds it out.
func (c *FileCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.index)
}

// Hits returns the number of successful Lookups so far.
func (c *FileCache) Hits() int { return int(c.hits.Load()) }

// Misses returns the number of failed Lookups so far.
func (c *FileCache) Misses() int { return int(c.misses.Load()) }

// Close closes the backing file. Entries are durable as soon as Store
// returns; Close only releases the descriptor.
func (c *FileCache) Close() error {
	return c.f.Close()
}

// ReportClose writes the cache's hit/miss counts to w and closes it —
// the shared teardown of every command's -cache flag.
func (c *FileCache) ReportClose(w io.Writer) error {
	fmt.Fprintf(w, "# cache: %d hits, %d misses\n", c.Hits(), c.Misses())
	return c.Close()
}
