package exp

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"gonoc/internal/core"
)

// Outcome couples one campaign point with its measured result. Sinks
// receive outcomes in campaign enumeration order regardless of how the
// runs were scheduled.
type Outcome struct {
	// Campaign echoes the campaign name.
	Campaign string
	// Point is the expanded cell that produced the result.
	Point Point
	// Result holds the measured performance indexes.
	Result core.Result
}

// Sink consumes a campaign's output: one Run call per (scenario,
// replication) in enumeration order, then one Summary call per grid
// point, also in enumeration order. Sinks are driven from a single
// goroutine and need no internal locking.
type Sink interface {
	Run(Outcome) error
	Summary(Aggregate) error
}

// MultiSink fans every record out to each member in order.
type MultiSink []Sink

// Run implements Sink.
func (m MultiSink) Run(o Outcome) error {
	for _, s := range m {
		if err := s.Run(o); err != nil {
			return err
		}
	}
	return nil
}

// Summary implements Sink.
func (m MultiSink) Summary(a Aggregate) error {
	for _, s := range m {
		if err := s.Summary(a); err != nil {
			return err
		}
	}
	return nil
}

// runRecord is the JSONL wire form of one replication. Index is the
// global campaign enumeration position (Point.Index), carried on the
// wire so shard-merge coverage validation can prove that a set of
// shard files tiles the campaign exactly; it is a pointer so a record
// without the field (a stream written before it existed) decodes as
// nil, which the merger rejects, rather than as a false position 0.
type runRecord struct {
	Kind     string            `json:"kind"`
	Index    *int              `json:"index,omitempty"`
	Campaign string            `json:"campaign,omitempty"`
	Topo     core.TopologyKind `json:"topo"`
	Nodes    int               `json:"nodes"`
	Traffic  string            `json:"traffic"`
	FlitRate float64           `json:"flit_rate"`
	Rep      int               `json:"rep"`
	Seed     uint64            `json:"seed"`

	Throughput  float64 `json:"throughput"`
	Accepted    float64 `json:"accepted"`
	Latency     float64 `json:"latency"`
	P95Latency  float64 `json:"p95_latency"`
	MeanHops    float64 `json:"hops"`
	Injected    uint64  `json:"injected"`
	Ejected     uint64  `json:"ejected"`
	EnergyPerPk float64 `json:"energy_per_packet"`
}

// summaryRecord is the JSONL wire form of one aggregated grid point.
type summaryRecord struct {
	Kind string `json:"kind"`
	Aggregate
}

// JSONLWriter streams one compact JSON object per line: a "run" record
// per (scenario, replication) followed by a "summary" record per grid
// point. Identical campaigns produce byte-identical streams at any
// runner parallelism.
type JSONLWriter struct {
	w io.Writer
}

// NewJSONLWriter returns a sink writing to w. The caller owns w.
func NewJSONLWriter(w io.Writer) *JSONLWriter { return &JSONLWriter{w: w} }

func (j *JSONLWriter) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("exp: encoding record: %w", err)
	}
	b = append(b, '\n')
	_, err = j.w.Write(b)
	return err
}

// Run implements Sink.
func (j *JSONLWriter) Run(o Outcome) error {
	idx := o.Point.Index
	return j.writeLine(runRecord{
		Kind:        "run",
		Index:       &idx,
		Campaign:    o.Campaign,
		Topo:        o.Point.Topo,
		Nodes:       o.Point.Nodes,
		Traffic:     o.Point.Traffic,
		FlitRate:    o.Point.FlitRate,
		Rep:         o.Point.Rep,
		Seed:        o.Point.Scenario.Seed,
		Throughput:  o.Result.Throughput,
		Accepted:    o.Result.AcceptedFlitRate,
		Latency:     nanToZero(o.Result.MeanLatency),
		P95Latency:  nanToZero(o.Result.P95Latency),
		MeanHops:    nanToZero(o.Result.MeanHops),
		Injected:    o.Result.InjectedPackets,
		Ejected:     o.Result.EjectedPackets,
		EnergyPerPk: nanToZero(o.Result.EnergyPerPacket),
	})
}

// Summary implements Sink.
func (j *JSONLWriter) Summary(a Aggregate) error {
	return j.writeLine(summaryRecord{Kind: "summary", Aggregate: a})
}

// CSVWriter streams the same records as JSONLWriter in a flat CSV
// layout: a header, one "run" row per replication, then one "summary"
// row per grid point with the confidence columns filled. Fields are
// quoted by encoding/csv, so free-form campaign names and traffic
// labels cannot shift columns.
type CSVWriter struct {
	w           *csv.Writer
	wroteHeader bool
}

// NewCSVWriter returns a sink writing to w. The caller owns w.
func NewCSVWriter(w io.Writer) *CSVWriter { return &CSVWriter{w: csv.NewWriter(w)} }

func (c *CSVWriter) write(row []string) error {
	if !c.wroteHeader {
		c.wroteHeader = true
		header := []string{"kind", "campaign", "topo", "nodes", "traffic", "flit_rate", "rep", "seed", "reps",
			"throughput", "throughput_ci95", "accepted", "latency", "latency_ci95", "p95_latency", "hops"}
		if err := c.w.Write(header); err != nil {
			return err
		}
	}
	if err := c.w.Write(row); err != nil {
		return err
	}
	c.w.Flush()
	return c.w.Error()
}

// g renders a float the way %g does, deterministically.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Run implements Sink.
func (c *CSVWriter) Run(o Outcome) error {
	return c.write([]string{
		"run", o.Campaign, string(o.Point.Topo), strconv.Itoa(o.Point.Nodes), o.Point.Traffic,
		g(o.Point.FlitRate), strconv.Itoa(o.Point.Rep), strconv.FormatUint(o.Point.Scenario.Seed, 10), "",
		g(o.Result.Throughput), "", g(o.Result.AcceptedFlitRate),
		g(nanToZero(o.Result.MeanLatency)), "", g(nanToZero(o.Result.P95Latency)),
		g(nanToZero(o.Result.MeanHops)),
	})
}

// Summary implements Sink.
func (c *CSVWriter) Summary(a Aggregate) error {
	return c.write([]string{
		"summary", a.Campaign, string(a.Topo), strconv.Itoa(a.Nodes), a.Traffic,
		g(a.FlitRate), "", "", strconv.Itoa(a.Reps),
		g(a.Throughput.Mean), g(a.Throughput.CI95), g(a.Accepted.Mean),
		g(a.Latency.Mean), g(a.Latency.CI95), g(a.P95Latency.Mean),
		g(a.MeanHops.Mean),
	})
}

// nanToZero maps NaN (no observations, e.g. a zero-rate run) to zero so
// records always encode.
func nanToZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
