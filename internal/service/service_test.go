package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/core"
	"bcc/internal/faults"
)

// waitNoExtraGoroutines polls until the goroutine count returns to the
// before level, failing with a stack dump if it never does.
func waitNoExtraGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after teardown\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startFleet spawns a daemon plus n in-process fleet workers and waits for
// every join. The returned stop function drains the daemon and reaps the
// workers.
func startFleet(t *testing.T, n int, opts Options) (*Daemon, func()) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	d, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = ServeWorker(ctx, d.Addr(), fmt.Sprintf("w%d", i))
		}(i)
	}
	waitWorkers(t, d, n)
	return d, func() {
		d.Close()
		cancel()
		wg.Wait()
	}
}

func waitWorkers(t *testing.T, d *Daemon, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(d.Workers()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers joined", len(d.Workers()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tcpSpec builds a small remote-submittable TCP job.
func tcpSpec(scheme core.Scheme, n int, seed uint64, iters int) core.Spec {
	return core.Spec{
		DataPoints: 96, Dim: 24,
		Examples: n, Workers: n, Load: 2,
		Scheme: scheme, Iterations: iters, Seed: seed,
		Runtime: core.RuntimeTCP,
	}
}

func runSolo(t *testing.T, spec core.Spec) *cluster.Result {
	t.Helper()
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	job, err := core.NewJob(norm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameTrajectory asserts the runs follow bit-identical optimization paths:
// the final iterate and every iteration's decoded gradient norm. When full
// is set (virtual-clock runtimes, where arrival order is deterministic) the
// timing-and-arrival observations — workers heard, units, bytes, wall —
// must match too; on real TCP those depend on socket scheduling and are
// excluded, exactly like measured wire bytes in cross-runtime conformance.
func sameTrajectory(t *testing.T, name string, got, want *cluster.Result, full bool) {
	t.Helper()
	if len(got.Iters) != len(want.Iters) {
		t.Fatalf("%s: %d iterations vs solo %d", name, len(got.Iters), len(want.Iters))
	}
	for i := range got.Iters {
		g, w := got.Iters[i], want.Iters[i]
		if g.GradNorm != w.GradNorm {
			t.Fatalf("%s iter %d: |g| = %v, solo %v", name, i, g.GradNorm, w.GradNorm)
		}
		if full {
			if g.WorkersHeard != w.WorkersHeard || g.Units != w.Units || g.Bytes != w.Bytes || g.Wall != w.Wall {
				t.Fatalf("%s iter %d: (K=%d units=%v bytes=%d wall=%v), solo (K=%d units=%v bytes=%d wall=%v)",
					name, i, g.WorkersHeard, g.Units, g.Bytes, g.Wall,
					w.WorkersHeard, w.Units, w.Bytes, w.Wall)
			}
		}
	}
	if len(got.FinalW) != len(want.FinalW) {
		t.Fatalf("%s: FinalW dim %d vs %d", name, len(got.FinalW), len(want.FinalW))
	}
	for i := range got.FinalW {
		if got.FinalW[i] != want.FinalW[i] {
			t.Fatalf("%s: FinalW[%d] = %v, solo %v", name, i, got.FinalW[i], want.FinalW[i])
		}
	}
}

// TestConcurrentJobsConformance is the tentpole's acceptance test: two jobs
// with different schemes and payload codecs share one fleet, run
// concurrently on separate engine instances, and each produces the
// bit-identical training trajectory of a solo run of the same spec — the
// isolation contract. A sim-runtime submission must additionally match its
// solo run on every arrival observation, since nothing about a daemon-run
// sim job may differ at all.
func TestConcurrentJobsConformance(t *testing.T) {
	d, stop := startFleet(t, 8, Options{})
	defer stop()

	// Both jobs use schemes from the BCC family, whose decoders reconstruct
	// the gradient identically from any decodable subset — so the TCP
	// trajectory is bit-reproducible even though arrival order is not.
	// (Replication/MDS decodes depend on which replicas arrive first, so a
	// real-socket run of those is not bit-comparable to anything.)
	specA := tcpSpec(core.SchemeBCC, 4, 7, 15)
	specA.Payload = core.PayloadF32
	specB := tcpSpec(core.SchemeBCCMulti, 4, 9, 15)
	specB.Payload = core.PayloadTopK
	specB.TopK = 6

	c, err := Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stA, err := c.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := c.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	// Eight idle workers cover both four-worker jobs: admission is immediate
	// and the jobs genuinely overlap.
	if stB.State != core.JobRunning {
		t.Fatalf("job B not admitted concurrently: state %s", stB.State)
	}

	ctx := context.Background()
	finA, err := c.Watch(ctx, stA.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	finB, err := d.Wait(ctx, stB.ID)
	if err != nil {
		t.Fatal(err)
	}
	if finA.State != core.JobDone || finB.State != core.JobDone {
		t.Fatalf("states: A=%s (%s), B=%s (%s)", finA.State, finA.Err, finB.State, finB.Err)
	}
	if finA.Iter != 15 || finB.Iter != 15 {
		t.Fatalf("iterations: A=%d B=%d, want 15", finA.Iter, finB.Iter)
	}
	if finA.WireIn <= 0 || finA.WireOut <= 0 {
		t.Fatalf("job A measured no wire traffic: in=%d out=%d", finA.WireIn, finA.WireOut)
	}

	resA, err := d.Result(stA.ID)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := d.Result(stB.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory(t, "tcp job A", resA, runSolo(t, specA), false)
	sameTrajectory(t, "tcp job B", resB, runSolo(t, specB), false)

	// Sim-runtime submission: virtual clock, so conformance is total — any
	// scheme, including the arrival-order-sensitive replication decode.
	specC := tcpSpec(core.SchemeCyclicRep, 4, 21, 12)
	specC.Runtime = core.RuntimeSim
	stC, err := c.Submit(specC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(ctx, stC.ID); err != nil {
		t.Fatal(err)
	}
	resC, err := d.Result(stC.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory(t, "sim job C", resC, runSolo(t, specC), true)

	// Status of a job that does not exist is an error carried in-band.
	if _, err := c.Status(core.JobID(999)); err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Fatalf("unknown job id: err = %v", err)
	}
}

// TestQueueAdmissionFIFO pins the scheduler contract: strict FIFO with the
// head blocking the queue (even a zero-worker sim job waits behind a TCP
// job that cannot start), cancellation of a queued job unblocking the jobs
// behind it, and leases released by a canceled running job admitting the
// next TCP job without restarting workers.
func TestQueueAdmissionFIFO(t *testing.T) {
	d, stop := startFleet(t, 2, Options{})
	defer stop()

	long := tcpSpec(core.SchemeCyclicRep, 2, 3, 1_000_000)
	st1, err := d.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != core.JobRunning {
		t.Fatalf("long job state %s, want running", st1.State)
	}

	st2, err := d.Submit(tcpSpec(core.SchemeCyclicRep, 2, 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != core.JobQueued {
		t.Fatalf("second TCP job state %s, want queued (no idle workers)", st2.State)
	}

	sim := tcpSpec(core.SchemeBCC, 4, 11, 4)
	sim.Runtime = core.RuntimeSim
	st3, err := d.Submit(sim)
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != core.JobQueued {
		t.Fatalf("sim job state %s, want queued: FIFO head must block the queue", st3.State)
	}

	// Canceling the queued head admits the sim job behind it immediately,
	// while the long job keeps its lease.
	if _, err := d.Cancel(st2.ID); err != nil {
		t.Fatal(err)
	}
	fin3, err := d.Wait(context.Background(), st3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin3.State != core.JobDone {
		t.Fatalf("sim job state %s (%s), want done", fin3.State, fin3.Err)
	}
	if st, _ := d.Status(st1.ID); st.State != core.JobRunning {
		t.Fatalf("long job state %s, want still running", st.State)
	}
	if st, _ := d.Status(st2.ID); st.State != core.JobCanceled {
		t.Fatalf("canceled queued job state %s", st.State)
	}

	// Canceling the running job releases its leases; a fresh TCP job then
	// runs to completion on the same two workers.
	if _, err := d.Cancel(st1.ID); err != nil {
		t.Fatal(err)
	}
	fin1, err := d.Wait(context.Background(), st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin1.State != core.JobCanceled {
		t.Fatalf("canceled running job state %s (%s)", fin1.State, fin1.Err)
	}

	st4, err := d.Submit(tcpSpec(core.SchemeCyclicRep, 2, 13, 6))
	if err != nil {
		t.Fatal(err)
	}
	fin4, err := d.Wait(context.Background(), st4.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin4.State != core.JobDone || fin4.Iter != 6 {
		t.Fatalf("post-cancel job state %s iter %d (%s), want done/6", fin4.State, fin4.Iter, fin4.Err)
	}
}

// TestLeaseReleaseOnDegrade: a job that degrades below the recovery
// threshold (ErrBelowThreshold) ends as JobDegraded with its partial
// result, and — because the engine broadcasts shutdown on that path too —
// its leases return to the pool and the next job completes normally.
func TestLeaseReleaseOnDegrade(t *testing.T) {
	d, stop := startFleet(t, 4, Options{})
	defer stop()

	spec := tcpSpec(core.SchemeBCC, 4, 31, 10)
	// Crash all but one worker at iteration 2: bcc cannot decode from one.
	spec.Faults = &faults.Plan{N: 4}
	for w := 0; w < 3; w++ {
		spec.Faults.Crashes = append(spec.Faults.Crashes, faults.Crash{Worker: w, At: 2})
	}
	st, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := d.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != core.JobDegraded {
		t.Fatalf("state %s (%s), want degraded", fin.State, fin.Err)
	}
	res, err := d.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 2 {
		t.Fatalf("degraded job kept %d iterations, want the 2 completed", len(res.Iters))
	}
	if fin.Faults == 0 {
		t.Fatal("no fault events reached the job's observer")
	}

	next, err := d.Submit(tcpSpec(core.SchemeCyclicRep, 4, 33, 5))
	if err != nil {
		t.Fatal(err)
	}
	finNext, err := d.Wait(context.Background(), next.ID)
	if err != nil {
		t.Fatal(err)
	}
	if finNext.State != core.JobDone {
		t.Fatalf("job after degrade: state %s (%s), want done", finNext.State, finNext.Err)
	}
}

// TestNonFiniteJobNotDone: a job whose step size makes the iterates overflow
// ends failed with the engine's non-finite error — never done with NaN
// weights — and its leases return to the pool for the next job.
func TestNonFiniteJobNotDone(t *testing.T) {
	d, stop := startFleet(t, 4, Options{})
	defer stop()

	spec := tcpSpec(core.SchemeBCC, 4, 35, 10)
	spec.StepSize, spec.Lambda = 1e300, 1
	st, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := d.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != core.JobFailed || !strings.Contains(fin.Err, cluster.ErrNonFinite.Error()) {
		t.Fatalf("state %s (%s), want failed with a non-finite gradient", fin.State, fin.Err)
	}

	next, err := d.Submit(tcpSpec(core.SchemeCyclicRep, 4, 36, 5))
	if err != nil {
		t.Fatal(err)
	}
	if finNext, err := d.Wait(context.Background(), next.ID); err != nil || finNext.State != core.JobDone {
		t.Fatalf("job after non-finite: %+v, %v, want done", finNext, err)
	}
}

// TestDrainNoGoroutineLeak: a full lifecycle — fleet joins, jobs run, one
// still running at drain time — tears down with zero leaked goroutines.
// Drain cancels the in-flight job after the grace context expires and keeps
// its partial result.
func TestDrainNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	d, err := Start(Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = ServeWorker(ctx, d.Addr(), fmt.Sprintf("w%d", i))
		}(i)
	}
	waitWorkers(t, d, 2)

	quick, err := d.Submit(tcpSpec(core.SchemeCyclicRep, 2, 41, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(context.Background(), quick.ID); err != nil {
		t.Fatal(err)
	}
	long, err := d.Submit(tcpSpec(core.SchemeCyclicRep, 2, 43, 1_000_000))
	if err != nil {
		t.Fatal(err)
	}

	grace, gcancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer gcancel()
	if err := d.Drain(grace); err != nil {
		t.Fatal(err)
	}
	st, err := d.Status(long.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != core.JobCanceled {
		t.Fatalf("in-flight job after drain: state %s (%s), want canceled", st.State, st.Err)
	}
	if _, err := d.Submit(tcpSpec(core.SchemeCyclicRep, 2, 45, 3)); err == nil {
		t.Fatal("drained daemon accepted a submission")
	}

	cancel()
	wg.Wait()
	waitNoExtraGoroutines(t, before)
}

// TestHTTPSurface exercises the read-only HTTP endpoints end to end against
// a live daemon: job listings, per-job status, worker listing, health and
// the Prometheus metrics (which must report the measured data-plane bytes).
func TestHTTPSurface(t *testing.T) {
	d, stop := startFleet(t, 2, Options{HTTPAddr: "127.0.0.1:0"})
	defer stop()
	base := "http://" + d.HTTPAddr()

	st, err := d.Submit(tcpSpec(core.SchemeCyclicRep, 2, 51, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	// Leased workers return to the idle pool when their Idle frame arrives,
	// which can be after Wait reports the job done.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		idle := 0
		for _, ws := range d.Workers() {
			if ws.State == "idle" {
				idle++
			}
		}
		if idle == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 workers idle 5s after the job finished", idle)
		}
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	if s := get("/healthz"); !strings.Contains(s, "ok") {
		t.Fatalf("healthz: %q", s)
	}
	if s := get("/jobs"); !strings.Contains(s, `"state": "done"`) {
		t.Fatalf("/jobs missing done job: %s", s)
	}
	if s := get(fmt.Sprintf("/jobs/%d", st.ID)); !strings.Contains(s, `"scheme": "cyclicrep"`) {
		t.Fatalf("/jobs/{id}: %s", s)
	}
	if s := get("/workers"); !strings.Contains(s, `"state": "idle"`) {
		t.Fatalf("/workers: %s", s)
	}
	metrics := get("/metrics")
	for _, want := range []string{`bcc_jobs{state="done"} 1`, "bcc_queue_depth 0", `bcc_workers{state="idle"} 2`} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	// The data plane moved real bytes; the fleet counters saw them.
	var in int64
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "bcc_wire_bytes_in_total ") {
			fmt.Sscanf(line, "bcc_wire_bytes_in_total %d", &in)
		}
	}
	if in <= 0 {
		t.Fatalf("bcc_wire_bytes_in_total = %d, want > 0:\n%s", in, metrics)
	}

	resp, err := http.Get(base + "/jobs/999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /jobs/999: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(base+fmt.Sprintf("/jobs/%d/cancel", st.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel of terminal job: %d, want 200 no-op", resp.StatusCode)
	}
}

// TestShardedDaemonJob: a MasterShards job submitted to the daemon takes
// every reply on its leased workers' one data-plane connection each, splits
// the decode and update over its in-process shards, and still follows the
// bit-identical trajectory of a solo unsharded run. The job status and the
// HTTP surfaces expose the per-shard counters.
func TestShardedDaemonJob(t *testing.T) {
	d, stop := startFleet(t, 4, Options{HTTPAddr: "127.0.0.1:0"})
	defer stop()

	spec := tcpSpec(core.SchemeBCC, 4, 71, 10)
	spec.WireChunk = 4 // dim 24 -> 6 chunks, so 4 shards get real slices
	spec.MasterShards = 4

	st, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := d.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != core.JobDone {
		t.Fatalf("sharded job state %s (%s), want done", fin.State, fin.Err)
	}

	solo := spec
	solo.MasterShards = 0
	res, err := d.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory(t, "sharded tcp job", res, runSolo(t, solo), false)

	// Per-shard counters: one entry per shard.
	if len(fin.Shards) != 4 || len(res.Shards) != 4 {
		t.Fatalf("shard stats: status has %d, result has %d, want 4", len(fin.Shards), len(res.Shards))
	}

	base := "http://" + d.HTTPAddr()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	if s := get(fmt.Sprintf("/jobs/%d", st.ID)); !strings.Contains(s, `"decode_ns"`) {
		t.Fatalf("/jobs/{id} missing shard stats: %s", s)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		fmt.Sprintf(`bcc_shard_decode_ns_total{job="%d",shard="0"}`, st.ID),
		fmt.Sprintf(`bcc_shard_decode_ns_total{job="%d",shard="3"}`, st.ID),
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestPerJobPoolCap: the daemon-wide PoolCap option reaches every job's
// engine configuration, bounding per-tenant buffer retention.
func TestPerJobPoolCap(t *testing.T) {
	d, stop := startFleet(t, 2, Options{PoolCap: 5})
	defer stop()
	st, err := d.Submit(tcpSpec(core.SchemeCyclicRep, 2, 61, 4))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := d.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != core.JobDone {
		t.Fatalf("capped-pool job state %s (%s)", fin.State, fin.Err)
	}
}
