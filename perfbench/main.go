// Command perfbench is the repository's benchmark for coded training: it
// runs one named workload through the public core, cluster and service
// entry points, checks that the outputs are correct, and prints every
// metric by name with its unit and clock label. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the metrics are the end-to-end ones, measured without
// tracing. With --trace 1 the layers the engine takes from its caller —
// model.Model, coding.Plan and Decoder, optimize.Optimizer, cluster.Latency
// and cluster.Observer — are wrapped and every call into them is recorded as
// a span; the spans are written to .bench_build/spans/ when the run ends and
// the per-layer metrics are computed from them. --smoke runs each workload
// once at a tiny size, for the benchmark's own tests.
//
// # Workloads
//
// The training workloads are closed loop: a run trains one job after
// another, each to its stop rule, until --seconds have passed and at least
// 200 iterations were measured. Job j of a run has seed
// seed*1000003 + j, which fixes its data, placement and straggler draws.
// The heap is collected between jobs, outside the measured windows, so each
// job starts from the same state. The gradient-norm targets are loose
// enough that a run trains about ten jobs: the recovery threshold of one
// bcc placement varies by about 11% from the next, and a run must average
// over several placements to be repeatable.
//
//   - ec2-stragglers: the paper's Fig. 4 scenario 1 on the live runtime in
//     real time (bcc, m=n=50, r=10, p=800, 10 points per unit, the EC2
//     shift-exponential profile and 5.5 ms of master ingress per unit,
//     barrier mode), to a gradient-norm target. Nearly all of an iteration
//     is waiting for the decode point: a data-plane change should not move
//     it, a straggler-policy change should.
//   - sparse-wide-tcp: the tcp runtime with wire frames and a drained
//     fabric (cyclicrep, m=n=16, r=4, p=16384, CSR density 0.01, 64 points
//     per unit, no injected latency, barrier mode), 250 iterations per job.
//     Wide dense payloads over sparse data put encode, serialize, socket,
//     intake, the decode fold and the update on the critical path.
//   - dense-sim: the sim runtime (bcc, m=n=50, r=10, p=2000, 40 points per
//     unit, EC2 profile), to a gradient-norm target. Worker gradient
//     kernels do nearly all the work; it also gives the paper's modelled
//     time to target. It runs by name but BENCHMARK.json does not list it:
//     its dense floating-point kernels run at the speed of the shared host
//     core, which on a 2-vCPU Intel Xeon VM moved its medians by up to 33%
//     between sets of ten runs half an hour apart, more than the bounds.
//   - service-stream: an in-process daemon with 8 fleet workers over
//     loopback; one client connection submits jobs open loop at a fixed
//     rate (15 jobs/s, about half of the measured saturation), a repeating
//     pattern of three short jobs (tcp, n=4, p=512, 20 iterations) and one
//     long job (n=4, p=4096, 100 iterations). Per-job set-up, leasing, the
//     control-plane RPC and FIFO head-of-line blocking dominate.
//
// # End-to-end metrics
//
// Every workload reports the gated metrics below; the service workload
// reads them from its jobs:
//
//   - setup_s: training — core.NewJob plus the Run call until the first
//     Query, median over the run's jobs; service — daemon start until the
//     fleet has joined, median of 21 starts.
//   - iter_ms_p50, iter_ms_p95: training — wall time between consecutive
//     OnIteration callbacks (one broadcast to the next); service — the
//     engine's broadcast-to-decode wall of every iteration of every job.
//   - samples_per_s: data points × iterations ÷ training wall time (service:
//     ÷ time from the first due submission to the last finished job).
//   - time_to_target_s: training — the Run call until the stop rule fired
//     (gradient-norm target, or the iteration count), median over jobs;
//     service — a job's due time until JobDone, mean over jobs (the
//     median of the job mix sits on the edge between short jobs that share
//     the CPUs with a long one and those that do not).
//   - recovery_threshold: mean workers heard per iteration (Definition 2).
//     Virtual on dense-sim, where the simulator orders the arrivals.
//   - peak_rss_mib: the process's peak resident memory.
//
// Printed where they apply, not gated: virtual_time_to_target_s (dense-sim),
// wire_bytes_per_iter (measured socket bytes; tcp and service),
// job_latency_ms_p50/p95/p99 and jobs_per_s (service; a run of 375 jobs has
// 18 latencies beyond p95 but only 3 beyond p99, so p95 is the steady tail),
// and error_rate, which is failed ÷ attempted of the result line.
//
// # Per-layer metrics
//
// A traced run measures its jobs with every call into the wrapped layers
// recorded, and repeats its first three jobs untraced, each next to its
// traced run. In brackets, the end-to-end metric each should move:
//
//   - core.newjob_ms, cluster.transport_setup_ms: the two halves of setup_s
//     [setup_s].
//   - model.grad_calls_per_iter, model.grad_ms_per_iter, coding.*_ms_per_iter,
//     optimize.*_ms_per_iter: calls and busy time, summed over workers, per
//     iteration [iter_ms_p50, samples_per_s].
//   - coding.useful_encode_ratio: transmissions offered before the gradient
//     was decodable ÷ encodes performed [recovery_threshold,
//     time_to_target_s].
//   - cluster.broadcast_ms_p50, cluster.wait_to_decode_ms_p50/p95,
//     cluster.post_decode_ms_p50, cluster.between_iters_ms_p50: the blocking
//     path of an iteration — the optimizer's Query returned until the first
//     worker's Latency.Compute call (its gradients start), until the offer
//     that made the gradient decodable, until OnIteration, until the next
//     Query [iter_ms_p50, iter_ms_p95, time_to_target_s]. Their sum must
//     match the iteration wall (Query to Query) to within 5% of its median;
//     the remainder, the Query itself, is cluster.unattributed_ms_p50.
//   - cluster.reply_ms_p50: a worker's encode returned until the master
//     offered its message (serialize, wire, intake) [iter_ms_p50].
//   - wire.bytes_in_per_iter, wire.bytes_out_per_iter: the measured socket
//     bytes of IterStats (tcp) [iter_ms_p50].
//   - runtime.*: Go allocation and GC counters over the untraced repeats'
//     Run calls [iter_ms_p95, peak_rss_mib].
//   - service.submit_ms_p50, service.queue_ms_p50/p99, service.run_ms_p50,
//     loadgen.lag_ms_p99: the client's Submit RPC, JobStatus QueueSeconds and
//     RunSeconds, and how late the open-loop generator ran [time_to_target_s,
//     samples_per_s]. On service-stream cluster.transport_setup_ms is a
//     job's RunSeconds less its iterations' broadcast-to-decode walls
//     (lease, assign, accept, drain); the layers inside the daemon's jobs
//     cannot be wrapped from outside and report 0 (n/a).
//   - trace.overhead_iter_ms_p50: traced minus untraced iter_ms_p50 over the
//     repeated jobs.
//
// # Correctness gates
//
// A training job fails unless it meets its stop rule, its final full loss
// meets the workload's target, and its FinalW agrees with a reference run.
// On ec2-stragglers the reference is the sim runtime on the same spec and
// must be bit-identical: bcc's decode does not depend on arrival order. On
// sparse-wide-tcp and dense-sim it is a single-process run taking the exact
// full gradient every step, within 1e-9 relative distance (cyclicrep's
// decode coefficients depend on which workers answered, and the sim
// workload's own runtime would only compare the code with itself). A service
// job fails unless it reaches JobDone with all its iterations.
// A traced run also checks that each wrapper exposes the same optional
// capabilities as what it wraps, that traced and untraced dense-sim jobs
// give bit-identical FinalW, and that the blocking-path spans sum to the
// iteration wall.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runOpts are one run's settings.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	rate    float64 // service-stream offered load; 0 = serviceRate
	spans   string  // where a traced run writes its spans ("" = nowhere)
}

// heldOutSeed is the second seed every report names: later claims made
// with the benchmark are validated on it, so it is not to be tuned on.
func heldOutSeed(seed uint64) uint64 { return seed ^ 0x5eed_0ff5_e7 }

func workloadNames() []string {
	names := make([]string, 0, len(trainWorkloads)+1)
	for _, w := range trainWorkloads {
		names = append(names, w.name)
	}
	return append(names, "service-stream")
}

// runWorkload runs the named workload; ok is false for an unknown name.
func runWorkload(ctx context.Context, name string, o runOpts) (*report, bool) {
	if name == "service-stream" {
		return runService(ctx, o), true
	}
	for _, w := range trainWorkloads {
		if w.name == name {
			return w.runTraining(ctx, o), true
		}
	}
	return nil, false
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "how long a run measures")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny sizes, one job per workload (for tests)")
	rate := flag.Float64("rate", 0, "service-stream jobs per second (0 = the recorded rate)")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// Bounded so that the process always ends well within 180 seconds.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	o := runOpts{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, smoke: *smoke, rate: *rate}
	if o.trace {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv", *workload, *seed))
	}
	load0 := loadAvg1()
	r, ok := runWorkload(ctx, *workload, o)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := emit(os.Stdout, *workload, o, r, load0, loadAvg1()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints the report: environment, every applicable metric with unit
// and label, problems, and last the JSON result line.
func emit(out io.Writer, workload string, o runOpts, r *report, load0, load1 float64) error {
	mode := "end-to-end (untraced)"
	defs := endToEnd
	all := append(append([]metricDef(nil), endToEnd...), extraEndToEnd...)
	if o.trace {
		mode, defs, all = "per-layer (traced)", perLayer, perLayer
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d heldout_seed=%d seconds=%g mode=%s smoke=%v\n",
		workload, o.seed, heldOutSeed(o.seed), o.seconds, mode, o.smoke)
	fmt.Fprintf(out, "# env nproc=%d gomaxprocs=%d go=%s cpu=%q loadavg_start=%.2f loadavg_end=%.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), load0, load1)
	for _, d := range all {
		v, have := r.values[d.name]
		label := d.label
		if l, ok := r.labels[d.name]; ok {
			label = l
		}
		if !have || label == "n/a" {
			continue
		}
		fmt.Fprintf(out, "%-32s %14.6g %-6s %s\n", d.name, v, d.unit, label)
	}
	for _, d := range all {
		if _, have := r.values[d.name]; !have || r.labels[d.name] == "n/a" {
			fmt.Fprintf(out, "%-32s %14s %-6s n/a\n", d.name, "-", d.unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "# note:", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "# FAILED:", p)
	}
	metrics, finite := r.jsonMetrics(defs)
	line, err := json.Marshal(map[string]any{
		"correct":   finite && r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
