package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/core"
	"bcc/internal/experiments"
	"bcc/internal/model"
	"bcc/internal/optimize"
	"bcc/internal/rngutil"
)

// trainWorkload is one closed-loop training workload: a run is a sequence of
// jobs, each built and trained to its stop rule before the next is built.
type trainWorkload struct {
	name    string
	runtime core.Runtime
	// spec builds job j's spec from its seed; the benchmark's seed picks the
	// job seeds, the program sees only the spec.
	spec func(seed uint64, smoke bool) (core.Spec, error)
	// gradTol stops a job once the decoded gradient norm falls to it; 0
	// trains a fixed number of iterations (Spec.Iterations).
	gradTol float64
	// lossMax is the correctness gate on the final full training loss.
	lossMax float64
	// refTol bounds ||FinalW - ref|| / ||ref||; 0 demands bit-identity.
	refTol float64
	// centralRef compares against a single-process full-gradient run of the
	// same optimizer instead of a sim-runtime run (the sim workload's own
	// runtime would only compare the code with itself).
	centralRef bool
	// unlisted workloads run by name but are not gated by BENCHMARK.json.
	unlisted bool
}

const minIters = 200 // per run, so that at least 10 samples lie beyond p95

// jobStartCap is the run time in seconds after which no new training job
// starts, so that a slow host still ends the process well within 180 s.
const jobStartCap = 110

// ec2Latency is the paper's EC2 shift-exponential straggler profile for n
// workers, seeded independently of the job's data.
func ec2Latency(n, pointsPerUnit int, seed uint64) (cluster.Latency, error) {
	return experiments.EC2Latency(n, pointsPerUnit, rngutil.New(seed^0x1a7e_5eed))
}

var trainWorkloads = []trainWorkload{
	{
		// The paper's Fig. 4 scenario 1 in real time: almost every iteration
		// is spent waiting for the decode point.
		name:    "ec2-stragglers",
		runtime: core.RuntimeLive,
		spec: func(seed uint64, smoke bool) (core.Spec, error) {
			m, ppu, p, scale := 50, 10, 800, 1.0
			if smoke {
				m, p, scale = 10, 40, 0.05
			}
			lat, err := ec2Latency(m, ppu, seed)
			return core.Spec{
				Scheme: core.SchemeBCC, Examples: m, Workers: m, Load: m / 5,
				Dim: p, DataPoints: m * ppu, Seed: seed,
				Latency: lat, IngressPerUnit: 5.5e-3, TimeScale: scale,
				Runtime: core.RuntimeLive, Iterations: 1000,
			}, err
		},
		gradTol: 0.02,
		lossMax: 0.05,
	},
	{
		// Wide dense payloads over sparse data: the master/worker data plane
		// (encode, serialize, socket, intake, decode fold, update) is the
		// critical path.
		name:    "sparse-wide-tcp",
		runtime: core.RuntimeTCP,
		spec: func(seed uint64, smoke bool) (core.Spec, error) {
			n, ppu, p, iters := 16, 64, 16384, 250
			if smoke {
				n, ppu, p, iters = 8, 8, 512, 20
			}
			return core.Spec{
				Scheme: core.SchemeCyclicRep, Examples: n, Workers: n, Load: 4,
				Dim: p, DataPoints: n * ppu, Density: 0.01, Seed: seed,
				TimeScale: 1, Runtime: core.RuntimeTCP, Iterations: iters,
			}, nil
		},
		lossMax:    0.005,
		refTol:     1e-9,
		centralRef: true,
	},
	{
		// Worker gradient kernels do nearly all the work: no wire, no real
		// waiting, a trivial decode. Also the paper's modelled time.
		name:    "dense-sim",
		runtime: core.RuntimeSim,
		spec: func(seed uint64, smoke bool) (core.Spec, error) {
			m, ppu, p := 50, 40, 2000
			if smoke {
				m, ppu, p = 10, 4, 40
			}
			lat, err := ec2Latency(m, ppu, seed)
			return core.Spec{
				Scheme: core.SchemeBCC, Examples: m, Workers: m, Load: m / 5,
				Dim: p, DataPoints: m * ppu, Seed: seed,
				Latency: lat, IngressPerUnit: 5.5e-3,
				Runtime: core.RuntimeSim, Iterations: 1000,
			}, err
		},
		gradTol:    0.02,
		lossMax:    0.05,
		refTol:     1e-9,
		centralRef: true,
		// Pure floating-point throughput: on a shared host its medians move
		// with the host's speed by more than the benchmark's bounds between
		// sets of runs taken minutes apart.
		unlisted: true,
	},
}

// lossTarget is the final-loss gate: the workload's target, or at smoke
// sizes, which train too little to reach it, a 10% cut of the loss at the
// starting point w = 0 (ln 2).
func (w trainWorkload) lossTarget(smoke bool) float64 {
	if smoke {
		return 0.9 * math.Ln2
	}
	return w.lossMax
}

// jobRun is everything measured about one training job.
type jobRun struct {
	seed      uint64
	newJob    float64   // s: core.NewJob
	transport float64   // s: Run call until the first Query
	runWall   float64   // s: Run call until it returned
	toTarget  float64   // s: Run call until the stop rule fired
	iterWalls []float64 // ms: OnIteration to OnIteration, from iteration 1
	res       *cluster.Result
	points    int
	mem       memCounters
	tr        *tracer
	loss      float64 // final full training loss
	refDist   float64 // relative distance of FinalW to the reference
	gateErr   error
}

// runJob builds, trains and checks one job. A returned error is a failure
// of the job (counted against error_rate), never of the benchmark.
func (w trainWorkload) runJob(ctx context.Context, seed uint64, traced, smoke bool) *jobRun {
	jr := &jobRun{seed: seed}
	spec, err := w.spec(seed, smoke)
	if err != nil {
		jr.gateErr = err
		return jr
	}
	if w.gradTol > 0 {
		spec.GradNormTol = w.gradTol
	}
	// Collect the previous job's garbage outside the measured window, so
	// that every job starts from the same heap and peak memory describes one
	// job rather than the collector's timing.
	runtime.GC()
	epoch := time.Now()
	job, err := core.NewJob(spec)
	jr.newJob = time.Since(epoch).Seconds()
	if err != nil {
		jr.gateErr = fmt.Errorf("NewJob: %w", err)
		return jr
	}
	jr.points = job.Spec.DataPoints
	cfg := job.EngineConfig()
	clock := &iterClock{epoch: epoch, target: w.gradTol}
	var firstQuery int64
	if traced {
		_, n, _ := cfg.Plan.Params()
		jr.tr = newTracer(n, epoch)
		jr.tr.add(span{start: 0, end: int64(jr.newJob * 1e9), iter: -1, who: -1, kind: kNewJob})
		clock.t = jr.tr
		if jr.gateErr = wrapConfig(cfg, jr.tr); jr.gateErr != nil {
			return jr
		}
	}
	opt := wrapOpt(cfg.Opt, jr.tr, &firstQuery, epoch)
	if err := sameCapabilities(cfg.Opt, opt); err != nil {
		jr.gateErr = err
		return jr
	}
	cfg.Opt = opt
	cfg.Observer = cluster.MultiObserver(cfg.Observer, clock)

	before := readMem()
	runStart := time.Since(epoch)
	res, err := w.run(ctx, cfg, job.Spec.TimeScale)
	runEnd := time.Since(epoch)
	jr.mem = readMem().sub(before)
	jr.res = res
	jr.runWall = (runEnd - runStart).Seconds()
	jr.transport = (time.Duration(firstQuery) - runStart).Seconds()
	if traced {
		jr.tr.add(span{start: int64(runStart), end: firstQuery, iter: -1, who: -1, kind: kRun})
	}
	for i := 1; i < len(clock.ends); i++ {
		jr.iterWalls = append(jr.iterWalls, float64(clock.ends[i]-clock.ends[i-1])/1e6)
	}
	switch {
	case clock.hit > 0:
		jr.toTarget = (time.Duration(clock.hit) - runStart).Seconds()
	case len(clock.ends) > 0:
		jr.toTarget = (time.Duration(clock.ends[len(clock.ends)-1]) - runStart).Seconds()
	}
	if err != nil {
		jr.gateErr = fmt.Errorf("run: %w", err)
		return jr
	}
	jr.gateErr = w.check(jr, job, w.lossTarget(smoke))
	return jr
}

// wrapConfig swaps the traced wrappers into cfg, refusing any wrapper that
// would change which optional capabilities the engine sees.
func wrapConfig(cfg *cluster.Config, tr *tracer) error {
	plan := wrapPlan(cfg.Plan, tr)
	if err := sameCapabilities(cfg.Plan, plan); err != nil {
		return err
	}
	if err := sameCapabilities(cfg.Plan.NewDecoder(), plan.NewDecoder()); err != nil {
		return err
	}
	lat := cfg.Latency
	if lat == nil {
		lat = cluster.Zero{}
	}
	cfg.Plan = plan
	cfg.Model = tracedModel{Model: cfg.Model, t: tr}
	cfg.Latency = tracedLatency{Latency: lat, t: tr}
	return nil
}

func (w trainWorkload) run(ctx context.Context, cfg *cluster.Config, timeScale float64) (*cluster.Result, error) {
	switch w.runtime {
	case core.RuntimeLive:
		return cluster.RunLiveContext(ctx, cfg, cluster.LiveOptions{TimeScale: timeScale})
	case core.RuntimeTCP:
		return cluster.RunLiveContext(ctx, cfg, cluster.LiveOptions{TimeScale: timeScale, TCP: true, Codec: "wire", Drain: true})
	default:
		return cluster.RunSimContext(ctx, cfg)
	}
}

// check is the correctness gate of one finished job: the stop rule was
// met, the final full loss meets the workload's target, and FinalW agrees
// with the reference run of the same problem. It records the loss and the
// distance to the reference in jr.
func (w trainWorkload) check(jr *jobRun, job *core.Job, lossMax float64) error {
	res := jr.res
	if len(res.Iters) == 0 {
		return fmt.Errorf("no iterations completed")
	}
	if last := res.Iters[len(res.Iters)-1]; w.gradTol > 0 && !(last.GradNorm <= w.gradTol) {
		return fmt.Errorf("stopped at gradient norm %g above the target %g", last.GradNorm, w.gradTol)
	}
	jr.loss = model.FullLoss(job.Model, res.FinalW)
	if err := checkLoss(jr.loss, lossMax); err != nil {
		return err
	}
	ref, err := w.reference(job, len(res.Iters))
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	jr.refDist, err = checkAgreement(res.FinalW, ref, w.refTol)
	return err
}

func checkLoss(loss, lossMax float64) error {
	if !(loss <= lossMax) {
		return fmt.Errorf("final loss %g misses the target %g", loss, lossMax)
	}
	return nil
}

// checkAgreement compares got against ref: bit-identical when tol is 0,
// else within relative Euclidean distance tol. It returns the relative
// distance.
func checkAgreement(got, ref []float64, tol float64) (float64, error) {
	if len(got) != len(ref) {
		return math.Inf(1), fmt.Errorf("FinalW has %d coordinates, reference %d", len(got), len(ref))
	}
	var diff, norm float64
	identical := true
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			identical = false
		}
		d := got[i] - ref[i]
		diff += d * d
		norm += ref[i] * ref[i]
	}
	rel := math.Sqrt(diff / norm)
	if tol == 0 && !identical {
		return rel, fmt.Errorf("FinalW is not bit-identical to the reference (relative distance %g)", rel)
	}
	if !(rel <= tol) {
		return rel, fmt.Errorf("FinalW is %g from the reference (relative), above %g", rel, tol)
	}
	return rel, nil
}

// reference trains the same problem for iters iterations without
// stragglers: on the sim runtime with the job's spec, or, for centralRef,
// as one process taking the exact full gradient every step.
func (w trainWorkload) reference(job *core.Job, iters int) ([]float64, error) {
	if w.centralRef {
		if job.Spec.Optimizer != core.OptimizerNesterov {
			return nil, fmt.Errorf("no central reference for optimizer %q", job.Spec.Optimizer)
		}
		opt := optimize.NewNesterov(make([]float64, job.Model.Dim()), optimize.Constant(job.Spec.StepSize))
		g := make([]float64, job.Model.Dim())
		rows := model.AllRows(job.Model.NumExamples())
		for i := 0; i < iters; i++ {
			model.FullGradientInto(job.Model, opt.Query(), g, rows)
			opt.Update(g)
		}
		return opt.Iterate(), nil
	}
	s := job.Spec
	s.Runtime, s.Latency, s.TimeScale, s.GradNormTol, s.Iterations = core.RuntimeSim, nil, 0, 0, iters
	ref, err := core.NewJob(s)
	if err != nil {
		return nil, err
	}
	res, err := ref.Run()
	if err != nil {
		return nil, err
	}
	return res.FinalW, nil
}

// jobSeed derives job j's seed from the run's seed.
func jobSeed(seed uint64, j int) uint64 { return seed*1_000_003 + uint64(j) }

// runTraining runs jobs back to back until seconds have passed and at
// least minIters iterations were measured. A traced run also repeats its
// first jobs untraced, for the tracing overhead, the runtime counters and
// the traced-equals-untraced check.
func (w trainWorkload) runTraining(ctx context.Context, o runOpts) *report {
	r := newReport()
	jobs, plain := w.runJobs(ctx, o)
	for _, jr := range jobs {
		r.attempted++
		if jr.gateErr != nil {
			r.failed++
			r.fail("job seed %d: %v", jr.seed, jr.gateErr)
		}
	}
	if !o.trace {
		w.endToEnd(r, jobs)
		return r
	}
	w.layers(r, jobs)
	k := len(plain)
	for i, u := range plain {
		jr := jobs[i]
		r.attempted++
		if u.gateErr != nil {
			r.failed++
			r.fail("untraced job seed %d: %v", u.seed, u.gateErr)
		}
		if w.runtime == core.RuntimeSim && jr.res != nil && u.res != nil {
			// The sim runtime is deterministic, so the wrappers must leave
			// the trained weights bit-identical.
			if _, err := checkAgreement(jr.res.FinalW, u.res.FinalW, 0); err != nil {
				r.failed++
				r.fail("traced job seed %d differs from its untraced run: %v", jr.seed, err)
			}
		}
	}
	var mem memCounters
	iters := 0
	for _, u := range plain {
		mem.add(u.mem)
		iters += iterCount(u)
	}
	perIter := 1 / float64(max(iters, 1))
	r.set("runtime.allocs_per_iter", float64(mem.mallocs)*perIter)
	r.set("runtime.alloc_bytes_per_iter", float64(mem.allocBytes)*perIter)
	r.set("runtime.gc_cycles", float64(mem.gcCycles))
	r.set("runtime.gc_pause_ms", float64(mem.gcPauseNs)/1e6)
	r.set("trace.overhead_iter_ms_p50", median(iterWalls(jobs[:k]))-median(iterWalls(plain)))
	if o.spans != "" {
		var all []span
		for _, jr := range jobs {
			if jr.tr != nil {
				all = append(all, jr.tr.snapshot()...)
			}
		}
		if err := writeSpans(o.spans, all); err != nil {
			r.fail("writing spans: %v", err)
		} else {
			r.note("spans written to %s", o.spans)
		}
	}
	return r
}

// pairedJobs is how many of a traced run's first jobs are repeated
// untraced. Each repeat runs next to its traced job, first or second in
// turn, so that the host's speed, which drifts by tens of percent over a
// run, cancels from the tracing overhead.
const pairedJobs = 3

// runJobs trains the run's jobs; plain holds the untraced repeats of a
// traced run's first jobs.
func (w trainWorkload) runJobs(ctx context.Context, o runOpts) (jobs, plain []*jobRun) {
	start := time.Now()
	iters := 0
	for j := 0; ; j++ {
		el := time.Since(start).Seconds()
		if j > 0 && (o.smoke || (el >= o.seconds && iters >= minIters) || el >= jobStartCap) {
			break
		}
		seed := jobSeed(o.seed, j)
		paired := o.trace && j < pairedJobs
		if paired && j%2 == 1 {
			plain = append(plain, w.runJob(ctx, seed, false, o.smoke))
		}
		jr := w.runJob(ctx, seed, o.trace, o.smoke)
		jobs = append(jobs, jr)
		iters += iterCount(jr)
		if paired && j%2 == 0 {
			plain = append(plain, w.runJob(ctx, seed, false, o.smoke))
		}
		if ctx.Err() != nil {
			break
		}
	}
	return jobs, plain
}

func iterCount(jr *jobRun) int {
	if jr.res == nil {
		return 0
	}
	return len(jr.res.Iters)
}

func iterWalls(jobs []*jobRun) []float64 {
	var out []float64
	for _, jr := range jobs {
		out = append(out, jr.iterWalls...)
	}
	return out
}

// endToEnd fills the untraced run's metrics.
func (w trainWorkload) endToEnd(r *report, jobs []*jobRun) {
	var setup, toTarget, virtual []float64
	var samples, runWall float64
	var heard, iters, wire int
	for _, jr := range jobs {
		setup = append(setup, jr.newJob+jr.transport)
		runWall += jr.runWall
		if jr.res == nil {
			continue
		}
		toTarget = append(toTarget, jr.toTarget)
		virtual = append(virtual, jr.res.TotalWall)
		n := len(jr.res.Iters)
		iters += n
		samples += float64(jr.points * n)
		for _, st := range jr.res.Iters {
			heard += st.WorkersHeard
		}
		wire += jr.res.TotalWireIn + jr.res.TotalWireOut
	}
	walls := iterWalls(jobs)
	r.set("setup_s", median(setup))
	r.set("iter_ms_p50", quantile(walls, 0.50))
	r.set("iter_ms_p95", quantile(walls, 0.95))
	r.set("samples_per_s", samples/runWall)
	r.set("time_to_target_s", median(toTarget))
	r.set("recovery_threshold", float64(heard)/float64(max(iters, 1)))
	r.set("peak_rss_mib", peakRSSMiB())
	r.set("error_rate", float64(r.failed)/float64(max(r.attempted, 1)))
	if w.runtime == core.RuntimeSim {
		r.set("virtual_time_to_target_s", median(virtual))
		r.labels["recovery_threshold"] = "virtual"
	}
	if w.runtime == core.RuntimeTCP {
		r.set("wire_bytes_per_iter", float64(wire)/float64(max(iters, 1)))
	}
	var maxLoss, maxDist float64
	for _, jr := range jobs {
		maxLoss, maxDist = math.Max(maxLoss, jr.loss), math.Max(maxDist, jr.refDist)
	}
	r.note("%d jobs, %d iterations (%d iteration walls); worst final loss %.4g (target %g), worst distance to reference %.3g (tolerance %g)",
		len(jobs), iters, len(walls), maxLoss, w.lossMax, maxDist, w.refTol)
}

// iterSpans are one iteration's blocking-path boundaries, ns since the
// job's epoch.
type iterSpans struct {
	qStart, qEnd, firstCompute, decodable, end int64
}

// layers fills the traced run's metrics from the jobs' spans.
func (w trainWorkload) layers(r *report, jobs []*jobRun) {
	var newJob, transport []float64
	var bcast, wait, post, between, unattr, reply, walls []float64
	dur := map[spanKind]float64{}
	count := map[spanKind]int{}
	var iters, wireIn, wireOut int
	spanOK := true
	for _, jr := range jobs {
		newJob = append(newJob, jr.newJob*1e3)
		transport = append(transport, jr.transport*1e3)
		if jr.res == nil {
			continue
		}
		n := len(jr.res.Iters)
		iters += n
		for _, st := range jr.res.Iters {
			wireIn += st.WireBytesIn
			wireOut += st.WireBytesOut
		}
		per := make([]iterSpans, n)
		seen := make([]uint8, n) // bit per boundary
		// mark keeps the first time iteration k reached a boundary.
		mark := func(k int32, bit uint8, at int64, dst *int64) {
			if seen[k]&bit == 0 {
				seen[k] |= bit
				*dst = at
			}
		}
		for _, s := range jr.tr.snapshot() {
			switch s.kind {
			case kGrad, kEncode, kOffer, kDecode, kQuery, kUpdate:
				dur[s.kind] += float64(s.end-s.start) / 1e6
				count[s.kind]++
			case kReply:
				reply = append(reply, float64(s.end-s.start)/1e6)
				count[s.kind]++
			}
			if s.iter < 0 || int(s.iter) >= n {
				continue
			}
			p := &per[s.iter]
			switch s.kind {
			case kQuery:
				mark(s.iter, 1, s.start, &p.qStart)
				mark(s.iter, 2, s.end, &p.qEnd)
			case kCompute:
				mark(s.iter, 4, s.start, &p.firstCompute)
			case kDecodable:
				mark(s.iter, 8, s.start, &p.decodable)
			case kIterEnd:
				mark(s.iter, 16, s.start, &p.end)
			}
		}
		for k := 0; k+1 < n; k++ {
			if seen[k] != 31 || seen[k+1]&1 == 0 {
				spanOK = false
				r.fail("job seed %d iteration %d: missing span boundaries (mask %05b)", jr.seed, k, seen[k])
				break
			}
			p, next := per[k], per[k+1]
			b := float64(p.firstCompute-p.qEnd) / 1e6
			wt := float64(p.decodable-p.firstCompute) / 1e6
			pd := float64(p.end-p.decodable) / 1e6
			bt := float64(next.qStart-p.end) / 1e6
			wall := float64(next.qStart-p.qStart) / 1e6
			if b < 0 || wt < 0 || pd < 0 || bt < 0 {
				spanOK = false
				r.fail("job seed %d iteration %d: blocking-path spans out of order", jr.seed, k)
				break
			}
			bcast, wait, post, between = append(bcast, b), append(wait, wt), append(post, pd), append(between, bt)
			walls = append(walls, wall)
			unattr = append(unattr, wall-(b+wt+pd+bt))
		}
	}
	perIter := 1 / float64(max(iters, 1))
	r.set("core.newjob_ms", median(newJob))
	r.set("cluster.transport_setup_ms", median(transport))
	r.set("model.grad_calls_per_iter", float64(count[kGrad])*perIter)
	r.set("model.grad_ms_per_iter", dur[kGrad]*perIter)
	r.set("coding.encode_ms_per_iter", dur[kEncode]*perIter)
	r.set("coding.offer_ms_per_iter", dur[kOffer]*perIter)
	r.set("coding.decode_ms_per_iter", dur[kDecode]*perIter)
	r.set("coding.useful_encode_ratio", float64(count[kReply])/float64(max(count[kEncode], 1)))
	r.set("optimize.query_ms_per_iter", dur[kQuery]*perIter)
	r.set("optimize.update_ms_per_iter", dur[kUpdate]*perIter)
	r.set("cluster.broadcast_ms_p50", median(bcast))
	r.set("cluster.reply_ms_p50", median(reply))
	r.set("cluster.wait_to_decode_ms_p50", median(wait))
	r.set("cluster.wait_to_decode_ms_p95", quantile(wait, 0.95))
	r.set("cluster.post_decode_ms_p50", median(post))
	r.set("cluster.between_iters_ms_p50", median(between))
	r.set("cluster.unattributed_ms_p50", median(unattr))
	r.set("wire.bytes_in_per_iter", float64(wireIn)*perIter)
	r.set("wire.bytes_out_per_iter", float64(wireOut)*perIter)
	for _, name := range []string{"service.submit_ms_p50", "service.queue_ms_p50", "service.queue_ms_p99", "service.run_ms_p50", "loadgen.lag_ms_p99"} {
		r.set(name, 0)
		r.labels[name] = "n/a"
	}
	if w.runtime != core.RuntimeTCP {
		r.labels["wire.bytes_in_per_iter"], r.labels["wire.bytes_out_per_iter"] = "n/a", "n/a"
	}
	// Span sum check: the four blocking-path spans must cover the
	// iteration wall (query start to next query start) up to the
	// optimizer's query, which sits between them, within the tolerance.
	if spanOK && len(walls) > 0 {
		wallP50 := median(walls)
		rem := median(unattr)
		r.note("span sum: broadcast %.3f + wait %.3f + post-decode %.3f + between %.3f ms (p50s); unattributed p50 %.4f ms of iteration p50 %.3f ms over %d iterations",
			median(bcast), median(wait), median(post), median(between), rem, wallP50, len(walls))
		if !(math.Abs(rem) <= spanSumTolerance*wallP50) {
			r.fail("span sum check: unattributed p50 %.4f ms exceeds %.0f%% of the iteration p50 %.3f ms", rem, spanSumTolerance*100, wallP50)
		}
	} else if len(walls) == 0 {
		r.fail("span sum check: no complete iterations traced")
	}
}

// spanSumTolerance is the share of the median iteration wall that the
// median unattributed remainder may reach.
const spanSumTolerance = 0.05
