package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// harness runs workloads the way the benchmark driver does — one fresh
// process per run, another seed each time — and summarises each metric
// over the runs of a workload as median, quartiles and n.
type harness struct {
	seed    uint64
	seconds float64
	trace   bool
	reps    int
	smoke   bool
	out     string
	only    string // restrict to one workload ("" = all)
}

type childRun struct {
	rep report
	det detail
}

// row is one line of the summary: a metric on a workload over n runs.
type row struct {
	Metric   string    `json:"metric"`
	Workload string    `json:"workload"`
	Unit     string    `json:"unit"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	N        int       `json:"n"`
	Values   []float64 `json:"values"`
}

func newRow(metric, workload, unit string, values []float64) row {
	q1, q3 := quartiles(values)
	return row{metric, workload, unit, median(values), q1, q3, len(values), values}
}

func (h harness) workloads() []string {
	if h.only != "" {
		return []string{h.only}
	}
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.name
	}
	return names
}

// runChild runs one workload once in a child process of this binary and
// parses the two JSON lines it ends with.
func (h harness) runChild(workload string, seed uint64) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(h.seconds, 'g', -1, 64), "-out", h.out,
		fmt.Sprintf("-smoke=%t", h.smoke),
	}
	if h.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return childRun{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var c childRun
	for _, l := range lines {
		if strings.HasPrefix(l, "#") {
			fmt.Println(l)
		}
		if d, ok := strings.CutPrefix(l, "detail "); ok {
			if err := json.Unmarshal([]byte(d), &c.det); err != nil {
				return childRun{}, fmt.Errorf("%s: detail line: %w", workload, err)
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.rep); err != nil {
		return childRun{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return c, nil
}

// runSet runs every workload reps times, sequentially, and returns the
// summary rows plus whether every run was correct.
func (h harness) runSet(label string) ([]row, fingerprint, bool, error) {
	defs := metricDefs(h.trace)
	var rows []row
	var host fingerprint
	ok := true
	kneeDigests := make([]map[string]bool, h.reps) // per seed, the distinct knee.* result digests
	for _, w := range h.workloads() {
		values := map[string][]float64{}
		var hops []float64
		attempted, failed := 0, 0
		for i := 0; i < h.reps; i++ {
			fmt.Fprintf(os.Stderr, "bench: %s%s run %d/%d\n", label, w, i+1, h.reps)
			c, err := h.runChild(w, h.seed+uint64(i))
			if err != nil {
				return nil, host, false, err
			}
			host = c.det.Host
			attempted += c.rep.Attempted
			failed += c.rep.Failed
			if !c.rep.Correct {
				ok = false
				fmt.Fprintf(os.Stderr, "bench: %s seed %d FAILED: %s\n", w, h.seed+uint64(i), c.det.Error)
			}
			for _, d := range defs {
				values[d.name] = append(values[d.name], c.rep.Metrics[d.name].Value)
			}
			if c.det.HopsErrMax > 0 {
				hops = append(hops, c.det.HopsErrMax)
			}
			if d, isKnee := c.det.Digests["knee.result"]; isKnee {
				if kneeDigests[i] == nil {
					kneeDigests[i] = map[string]bool{}
				}
				kneeDigests[i][d] = true
			}
		}
		for _, d := range defs {
			rows = append(rows, newRow(d.name, w, d.unit, values[d.name]))
		}
		rows = append(rows, newRow("failed_frac", w, "frac", []float64{float64(failed) / float64(attempted)}))
		if len(hops) > 0 && !h.trace {
			rows = append(rows, newRow("hops_err_max", w, "frac", hops))
		}
	}
	for i, ds := range kneeDigests {
		if len(ds) > 1 {
			ok = false
			fmt.Fprintf(os.Stderr, "bench: the knee.* workloads returned %d different results at seed %d\n", len(ds), h.seed+uint64(i))
		}
	}
	host.Reps = h.reps
	return rows, host, ok, nil
}

func printRows(rows []row) {
	for _, r := range rows {
		fmt.Printf("%-30s %-15s %14.6g %s (median, q1-q3 %.6g-%.6g, n=%d)\n", r.Metric, r.Workload, r.Median, r.Unit, r.Q1, r.Q3, r.N)
	}
}

// results is the JSON twin of the printed summary.
type results struct {
	Host    fingerprint `json:"host"`
	Seconds float64     `json:"seconds"`
	Trace   bool        `json:"trace"`
	Sets    [][]row     `json:"sets"` // one set, or two under -aa
	AA      []aaRow     `json:"aa,omitempty"`
}

func (h harness) write(res results) error {
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(h.out, "results.json"), append(b, '\n'), 0o644)
}

func (h harness) runPlain() int {
	rows, host, ok, err := h.runSet("")
	if err != nil {
		return fail(err)
	}
	fmt.Printf("# host %+v\n", host)
	printRows(rows)
	if err := h.write(results{Host: host, Seconds: h.seconds, Trace: h.trace, Sets: [][]row{rows}}); err != nil {
		return fail(err)
	}
	if !ok {
		return fail(fmt.Errorf("a correctness check failed"))
	}
	return 0
}

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// aaRow compares the two sets of an A/A run on one metric and workload.
type aaRow struct {
	Metric   string  `json:"metric"`
	Workload string  `json:"workload"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	SpreadA  float64 `json:"spread_a"` // (q3-q1)/median
	SpreadB  float64 `json:"spread_b"`
	Worse    float64 `json:"worse"` // share of A's median by which B is worse
	Bound    float64 `json:"bound"`
	Agree    bool    `json:"agree"`
}

// compareAA judges two sets of the same build by the driver's rule: the
// second median may not be worse than the first by more than the bound,
// and — except for setup_s — neither spread may exceed it. failed_frac
// must be 0 and hops_err_max identical in both sets.
func compareAA(a, b []row, bounds []bound) ([]aaRow, bool) {
	byName := map[string]bound{}
	for _, bd := range bounds {
		byName[bd.Name] = bd
	}
	var out []aaRow
	all := true
	for i, ra := range a {
		rb := b[i]
		r := aaRow{Metric: ra.Metric, Workload: ra.Workload, MedianA: ra.Median, MedianB: rb.Median,
			SpreadA: spread(ra.Values), SpreadB: spread(rb.Values)}
		switch bd, bounded := byName[ra.Metric]; {
		case bounded:
			r.Bound = bd.Bound
			r.Worse = (rb.Median - ra.Median) / ra.Median
			if bd.Better == "higher" {
				r.Worse = -r.Worse
			}
			r.Agree = r.Worse <= bd.Bound && (ra.Metric == "setup_s" || math.Max(r.SpreadA, r.SpreadB) <= bd.Bound)
		case ra.Metric == "failed_frac":
			r.Agree = ra.Median == 0 && rb.Median == 0
		default: // hops_err_max: simulated, so it repeats exactly
			r.Agree = fmt.Sprint(ra.Values) == fmt.Sprint(rb.Values)
		}
		all = all && r.Agree
		out = append(out, r)
	}
	return out, all
}

func (h harness) runAA() int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fail(fmt.Errorf("-aa reads the bounds from BENCHMARK.json in the current directory: %w", err))
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&spec); err != nil {
		return fail(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	h.trace = false // bounds exist for end-to-end metrics only
	a, host, okA, err := h.runSet("A: ")
	if err != nil {
		return fail(err)
	}
	b, _, okB, err := h.runSet("B: ")
	if err != nil {
		return fail(err)
	}
	cmp, agree := compareAA(a, b, spec.EndToEnd)
	fmt.Printf("# host %+v\n", host)
	fmt.Printf("%-18s %-15s %13s %13s %8s %8s %8s %6s %s\n", "metric", "workload", "median A", "median B", "iqr A", "iqr B", "B worse", "bound", "agree")
	for _, r := range cmp {
		fmt.Printf("%-18s %-15s %13.6g %13.6g %7.2f%% %7.2f%% %7.2f%% %6.2f %v\n",
			r.Metric, r.Workload, r.MedianA, r.MedianB, 100*r.SpreadA, 100*r.SpreadB, 100*r.Worse, r.Bound, r.Agree)
	}
	if err := h.write(results{Host: host, Seconds: h.seconds, Sets: [][]row{a, b}, AA: cmp}); err != nil {
		return fail(err)
	}
	if !okA || !okB {
		return fail(fmt.Errorf("a correctness check failed"))
	}
	if !agree {
		return fail(fmt.Errorf("the two sets disagree beyond BENCHMARK.json's bounds"))
	}
	return 0
}
