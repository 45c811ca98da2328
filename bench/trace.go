package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded
// by the benchmark around its own calls into a layer, never inside the
// program under test. A call made once per simulated cycle (Network.Step,
// Recorder.Sample) is not recorded call by call: one batch span stands
// for Calls disjoint sub-intervals inside [Start, End] that total Busy.
// For an ordinary span Calls is 1 and Busy equals End-Start.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"` // -1 for a root
	Name     string        `json:"name"`   // "<layer>.<what>"
	Workload string        `json:"workload"`
	Start    time.Duration `json:"start_ns"` // since the tracer's epoch
	End      time.Duration `json:"end_ns"`
	Calls    uint64        `json:"calls"`
	Busy     time.Duration `json:"busy_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so both runs share one driver.
// Spans are recorded from the benchmark's own goroutine only.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: now, Calls: 1})
	return id
}

// end closes a span opened by begin and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	s := &t.spans[id]
	s.End = now
	s.Busy = s.End - s.Start
	return s.Busy
}

// batch records calls sub-intervals totalling busy inside the envelope
// [start, end] as one child of parent.
func (t *tracer) batch(name string, parent int, start, end time.Time, calls uint64, busy time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Workload: t.workload,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Calls: calls, Busy: busy,
	})
}

// write stores the spans as JSON; called once, when the run ends.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover. Ordinary children contribute the
// length of the union of their intervals clipped to the parent, so
// overlapping (concurrent) children are not counted twice; a batch child
// contributes its Busy total.
func selfTimes(spans []span) map[int]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := map[int][]iv{}
	busy := map[int]time.Duration{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		if s.Calls != 1 {
			busy[p.ID] += s.Busy
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], iv{lo, hi})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, edge time.Duration
		edge = s.Start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			if v.lo < edge {
				v.lo = edge
			}
			covered += v.hi - v.lo
			edge = v.hi
		}
		d := s.End - s.Start - covered - busy[s.ID]
		if s.Calls != 1 {
			d = s.Busy // a batch span has no children; all its busy time is its own
		}
		if d < 0 {
			d = 0
		}
		self[s.ID] = d
	}
	return self
}

// layerOf maps a span name to the layer it is charged to: the part
// before the first dot ("noc.step" -> "noc").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self times per layer, and returns beside them the
// traced wall: the total duration of the root spans.
func layerSelf(spans []span) (layers map[string]time.Duration, wall time.Duration) {
	self := selfTimes(spans)
	layers = map[string]time.Duration{}
	for _, s := range spans {
		layers[layerOf(s.Name)] += self[s.ID]
		if s.Parent < 0 {
			wall += s.End - s.Start
		}
	}
	return layers, wall
}

// stopwatch accumulates the time spent inside a call made many times
// from one goroutine; the traced drivers wrap per-cycle calls with it and
// flush it into the tracer as one batch span.
type stopwatch struct {
	calls uint64
	busy  time.Duration
}

func (w *stopwatch) time(fn func()) {
	t0 := time.Now()
	fn()
	w.busy += time.Since(t0)
	w.calls++
}
