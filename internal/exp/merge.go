package exp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"gonoc/internal/core"
)

// IndexRange is one contiguous run of global campaign indexes, both
// ends inclusive.
type IndexRange struct{ Lo, Hi int }

func (r IndexRange) String() string {
	if r.Lo == r.Hi {
		return fmt.Sprintf("%d", r.Lo)
	}
	return fmt.Sprintf("%d-%d", r.Lo, r.Hi)
}

// CoverageError reports that a set of merged shard streams does not
// tile the campaign's run indexes exactly: Missing are index ranges no
// input covered (a shard file was forgotten or lost), Duplicated are
// ranges more than one input covered (overlapping shard specs).
// Either way the naive concatenation would be silently wrong, so the
// merge fails instead of producing a short or inflated file.
type CoverageError struct {
	Missing    []IndexRange
	Duplicated []IndexRange
}

func (e *CoverageError) Error() string {
	var parts []string
	if len(e.Missing) > 0 {
		parts = append(parts, fmt.Sprintf("missing run indexes %s", formatRanges(e.Missing)))
	}
	if len(e.Duplicated) > 0 {
		parts = append(parts, fmt.Sprintf("overlapping run indexes %s", formatRanges(e.Duplicated)))
	}
	return "exp: shard coverage: " + strings.Join(parts, "; ")
}

// unindexedError rejects a run record without the index field — a
// stream written before shards carried run indexes, whose coverage a
// merge cannot prove. It names the input (by position) and the line.
type unindexedError struct{ input, line int }

func (e *unindexedError) Error() string {
	return fmt.Sprintf("exp: merge input %d line %d: run record has no index field; re-run the shard with the current nocsweep", e.input, e.line)
}

func formatRanges(rs []IndexRange) string {
	ss := make([]string, len(rs))
	for i, r := range rs {
		ss[i] = r.String()
	}
	return strings.Join(ss, ",")
}

// StreamMerger merges shard JSONL streams incrementally: Add appends
// one shard's records (in shard order) the moment that shard is
// available, so a coordinator can emit the merged prefix while later
// shards are still running; Finish validates coverage, appends the
// recomputed summary records and returns the aggregates. Merging the N
// shard files of a campaign reproduces the unsharded output file byte
// for byte. Summary records encountered in the input (from non-shard
// streams) are dropped and recomputed.
//
// One caveat: a replication that measured no packet writes its NaN
// metrics as zeros on the wire; the merger restores them from the
// Ejected counter (zero ejections ⇔ NaN latency family), keeping the
// recomputed summaries exact.
type StreamMerger struct {
	w      io.Writer
	agg    *aggregator
	grids  map[string]int
	inputs int

	// Coverage bookkeeping: how often each global run index appeared.
	counts map[int]int
	maxIdx int
}

// NewStreamMerger returns a merger writing merged run records (and, at
// Finish, summaries) to w; a nil w aggregates without copying records.
func NewStreamMerger(w io.Writer) *StreamMerger {
	return &StreamMerger{w: w, agg: newAggregator(), grids: map[string]int{}, counts: map[int]int{}}
}

// Add consumes one shard stream: run records are copied to the output
// verbatim and folded into the aggregates, summary records are
// dropped. Inputs must arrive in shard order for the merged bytes to
// reproduce the unsharded file. A run record without the index field
// fails the merge with an error naming the input and the line.
func (m *StreamMerger) Add(r io.Reader) error {
	ri := m.inputs
	m.inputs++
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("exp: merge input %d line %d: %w", ri, line, err)
		}
		switch rec.Kind {
		case "summary":
			continue // recomputed at Finish
		case "run":
		default:
			return fmt.Errorf("exp: merge input %d line %d: unknown kind %q", ri, line, rec.Kind)
		}
		if rec.Index == nil {
			return &unindexedError{input: ri, line: line}
		}
		m.counts[*rec.Index]++
		if *rec.Index > m.maxIdx {
			m.maxIdx = *rec.Index
		}
		if m.w != nil {
			// Two writes, not append: sc.Bytes aliases the scanner's
			// buffer, which an append could scribble on.
			if _, err := m.w.Write(sc.Bytes()); err != nil {
				return err
			}
			if _, err := m.w.Write([]byte{'\n'}); err != nil {
				return err
			}
		}
		key := fmt.Sprintf("%s|%s|%d|%s|%x", rec.Campaign, rec.Topo, rec.Nodes, rec.Traffic, rec.FlitRate)
		grid, ok := m.grids[key]
		if !ok {
			grid = len(m.grids)
			m.grids[key] = grid
		}
		m.agg.add(Outcome{
			Campaign: rec.Campaign,
			Point: Point{
				GridIndex: grid,
				Rep:       rec.Rep,
				Topo:      rec.Topo,
				Nodes:     rec.Nodes,
				Traffic:   rec.Traffic,
				FlitRate:  rec.FlitRate,
			},
			Result: rec.result(),
		})
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("exp: merge input %d: %w", ri, err)
	}
	return nil
}

// Finish validates shard coverage, writes the recomputed summary
// records and returns the aggregates. A coverage violation (missing or
// overlapping index ranges) fails before any summary is written, so a
// bad merge never masquerades as a complete file.
func (m *StreamMerger) Finish() ([]Aggregate, error) {
	if err := m.coverage(); err != nil {
		return nil, err
	}
	aggs := m.agg.aggregates()
	if m.w != nil {
		jw := NewJSONLWriter(m.w)
		for _, a := range aggs {
			if err := jw.Summary(a); err != nil {
				return nil, err
			}
		}
	}
	return aggs, nil
}

// coverage checks that the merged run indexes tile [0, maxIdx] exactly
// once each; inputs without run records have nothing to tile.
func (m *StreamMerger) coverage() error {
	if len(m.counts) == 0 {
		return nil
	}
	var missing, dup []int
	for i := 0; i <= m.maxIdx; i++ {
		switch n := m.counts[i]; {
		case n == 0:
			missing = append(missing, i)
		case n > 1:
			dup = append(dup, i)
		}
	}
	if len(missing) == 0 && len(dup) == 0 {
		return nil
	}
	return &CoverageError{Missing: toRanges(missing), Duplicated: toRanges(dup)}
}

// toRanges compresses a sorted index list into contiguous ranges.
func toRanges(idx []int) []IndexRange {
	sort.Ints(idx)
	var out []IndexRange
	for _, i := range idx {
		if n := len(out); n > 0 && out[n-1].Hi == i-1 {
			out[n-1].Hi = i
			continue
		}
		out = append(out, IndexRange{Lo: i, Hi: i})
	}
	return out
}

// MergeRuns reads JSONL campaign streams (shard outputs, in shard
// order) from the readers, copies every run record to w verbatim, and
// appends the summary records an unsharded run would have produced —
// so merging the N shard files of a campaign reproduces the unsharded
// output file byte for byte. It fails with a *CoverageError when the
// inputs miss or duplicate shard index ranges instead of silently
// producing a short file. The aggregates are also returned. It is the
// one-shot form of StreamMerger.
func MergeRuns(readers []io.Reader, w io.Writer) ([]Aggregate, error) {
	m := NewStreamMerger(w)
	for _, r := range readers {
		if err := m.Add(r); err != nil {
			return nil, err
		}
	}
	return m.Finish()
}

// result reconstructs the aggregation-relevant slice of a core.Result
// from the wire record, restoring the NaNs the wire form flattened to
// zero: the latency family is NaN exactly when no packet completed
// within the measurement window.
func (r runRecord) result() core.Result {
	res := core.Result{
		Throughput:       r.Throughput,
		AcceptedFlitRate: r.Accepted,
		MeanLatency:      r.Latency,
		P95Latency:       r.P95Latency,
		MeanHops:         r.MeanHops,
		InjectedPackets:  r.Injected,
		EjectedPackets:   r.Ejected,
		EnergyPerPacket:  r.EnergyPerPk,
	}
	if r.Ejected == 0 {
		nan := math.NaN()
		res.MeanLatency, res.P95Latency, res.MeanHops, res.EnergyPerPacket = nan, nan, nan, nan
	}
	return res
}
