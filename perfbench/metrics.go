package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric. The end-to-end list mirrors
// BENCHMARK.json (pinned by TestBenchmarkJSONMatches); the per-layer list is
// printed by the traced run.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: allowed worsening as a share of the median
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"read_latency_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{"gen.late_p99_us", "us", "lower", 0},
	{"gen.ops_per_post", "1/post", "higher", 0},
	{"gen.latency_samples", "count", "higher", 0},
	{"gen.read_samples", "count", "higher", 0},
	{"gen.self_pct", "%", "lower", 0},
	{"gen.failed_ratio", "ratio", "lower", 0},
	{"live.pump_wait_p50_us", "us", "lower", 0},
	{"live.pump_wait_p99_us", "us", "lower", 0},
	{"live.pump_rounds_per_op", "1/op", "lower", 0},
	{"live.datagrams_per_op", "1/op", "lower", 0},
	{"live.msgs_per_datagram", "ratio", "higher", 0},
	{"live.bytes_per_op", "B/op", "lower", 0},
	{"live.rx_drop_ratio", "ratio", "lower", 0},
	{"live.decode_err", "count", "lower", 0},
	{"live.self_pct", "%", "lower", 0},
	{"socket.write_pct", "%", "lower", 0},
	{"socket.read_pct", "%", "lower", 0},
	{"wire.self_pct", "%", "lower", 0},
	{"sim.events_per_op", "1/op", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.self_pct", "%", "lower", 0},
	{"netem.msgs_per_op", "1/op", "lower", 0},
	{"netem.drop_ratio", "ratio", "lower", 0},
	{"netem.self_pct", "%", "lower", 0},
	{"pisa.ctrl_ops_per_op", "1/op", "lower", 0},
	{"pisa.msgs_handled_per_op", "1/op", "lower", 0},
	{"pisa.self_pct", "%", "lower", 0},
	{"chain.retries_per_commit", "ratio", "lower", 0},
	{"chain.reads_forwarded_ratio", "ratio", "lower", 0},
	{"chain.write_call_p50_ns", "ns", "lower", 0},
	{"chain.commit_hist_p99_us", "us", "lower", 0},
	{"chain.self_pct", "%", "lower", 0},
	{"ewo.updates_per_add", "1/op", "lower", 0},
	{"ewo.entries_merged_per_add", "1/op", "lower", 0},
	{"ewo.sync_bytes_per_s", "B/s", "lower", 0},
	{"ewo.visibility_p99_us", "us", "lower", 0},
	{"ewo.self_pct", "%", "lower", 0},
	{"core.self_pct", "%", "lower", 0},
	{"runtime.gc_pct", "%", "lower", 0},
	{"runtime.sched_pct", "%", "lower", 0},
	{"runtime.allocs_per_op", "1/op", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
	{"other.self_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.cpu_overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "higher", 0},
}

// report collects one run's outcome. Values a workload does not set stay 0:
// a per-layer metric of a layer the workload never reaches reads 0.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	failures  []string
	values    map[string]float64
}

func newReport() *report { return &report{correct: true, values: map[string]float64{}} }

func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

// fail records a correctness violation: the run reports correct=false and
// exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints a readable table of every value the run measured, then the
// one-line JSON result (the last line of standard output) holding the
// end-to-end metrics, or the per-layer metrics when traced.
func (r *report) write(w io.Writer, traced bool) error {
	if r.attempted > 0 {
		r.values["gen.failed_ratio"] = float64(r.failed) / float64(r.attempted)
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-30s %.6g\n", n, r.values[n])
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAIL %s\n", f)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	for _, d := range defs {
		res.Metrics[d.name] = jsonMetric{Value: r.values[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
