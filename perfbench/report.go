package main

import (
	"fmt"
	"math"
)

// metricDef is one named metric: its unit and the clock it is read from —
// "wall" (measured real time), "virtual" (the simulator's modelled clock) or
// "count" (a number of things, not a time).
type metricDef struct {
	name, unit, label string
}

// endToEnd are the metrics every workload reports in its untraced run; the
// benchmark's regression gate reads them. Each workload measures them as
// its own definition in the package documentation says.
var endToEnd = []metricDef{
	{"setup_s", "s", "wall"},
	{"iter_ms_p50", "ms", "wall"},
	{"iter_ms_p95", "ms", "wall"},
	{"samples_per_s", "1/s", "wall"},
	{"time_to_target_s", "s", "wall"},
	{"recovery_threshold", "count", "wall"},
	{"peak_rss_mib", "MiB", "count"},
}

// extraEndToEnd are end-to-end metrics that only some workloads can
// describe. They are printed in the report of those workloads, not gated.
var extraEndToEnd = []metricDef{
	{"virtual_time_to_target_s", "s", "virtual"},
	{"wire_bytes_per_iter", "bytes", "count"},
	{"error_rate", "ratio", "count"},
	{"job_latency_ms_p50", "ms", "wall"},
	{"job_latency_ms_p95", "ms", "wall"},
	{"job_latency_ms_p99", "ms", "wall"},
	{"jobs_per_s", "1/s", "wall"},
}

// perLayer are the metrics of the traced run. A workload that has no such
// layer reports 0 and marks the metric n/a in its report.
var perLayer = []metricDef{
	{"core.newjob_ms", "ms", "wall"},
	{"cluster.transport_setup_ms", "ms", "wall"},
	{"model.grad_calls_per_iter", "count", "count"},
	{"model.grad_ms_per_iter", "ms", "wall"},
	{"coding.encode_ms_per_iter", "ms", "wall"},
	{"coding.offer_ms_per_iter", "ms", "wall"},
	{"coding.decode_ms_per_iter", "ms", "wall"},
	{"coding.useful_encode_ratio", "ratio", "count"},
	{"optimize.query_ms_per_iter", "ms", "wall"},
	{"optimize.update_ms_per_iter", "ms", "wall"},
	{"cluster.broadcast_ms_p50", "ms", "wall"},
	{"cluster.reply_ms_p50", "ms", "wall"},
	{"cluster.wait_to_decode_ms_p50", "ms", "wall"},
	{"cluster.wait_to_decode_ms_p95", "ms", "wall"},
	{"cluster.post_decode_ms_p50", "ms", "wall"},
	{"cluster.between_iters_ms_p50", "ms", "wall"},
	{"cluster.unattributed_ms_p50", "ms", "wall"},
	{"wire.bytes_in_per_iter", "bytes", "count"},
	{"wire.bytes_out_per_iter", "bytes", "count"},
	{"runtime.allocs_per_iter", "count", "count"},
	{"runtime.alloc_bytes_per_iter", "bytes", "count"},
	{"runtime.gc_cycles", "count", "count"},
	{"runtime.gc_pause_ms", "ms", "wall"},
	{"service.submit_ms_p50", "ms", "wall"},
	{"service.queue_ms_p50", "ms", "wall"},
	{"service.queue_ms_p99", "ms", "wall"},
	{"service.run_ms_p50", "ms", "wall"},
	{"loadgen.lag_ms_p99", "ms", "wall"},
	{"trace.overhead_iter_ms_p50", "ms", "wall"},
}

// report is one run's outcome: the metrics it measured (by name), how many
// jobs it attempted and how many failed, and why.
type report struct {
	values    map[string]float64
	labels    map[string]string // overrides of metricDef.label
	attempted int
	failed    int
	problems  []string // failed gates and checks, for the log
	notes     []string // informational lines for the log
}

func newReport() *report {
	return &report{values: map[string]float64{}, labels: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// jsonMetrics returns the result line's metrics: every def, with n/a
// metrics as 0. A NaN or missing value marks the run incorrect.
func (r *report) jsonMetrics(defs []metricDef) (map[string]map[string]any, bool) {
	out := map[string]map[string]any{}
	ok := true
	for _, d := range defs {
		v, have := r.values[d.name]
		if !have {
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			ok = false
			v = 0
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	return out, ok
}
