package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/core"
	"bcc/internal/service"
)

// The service-stream workload: an in-process daemon with a fleet of
// workers joined over loopback, fed by one client connection that submits
// jobs open loop at a fixed rate — many short jobs, so per-job set-up,
// leasing, the control-plane RPC and FIFO head-of-line blocking dominate.

const (
	fleetSize = 8
	// serviceRate is the offered load in jobs per second: about half of the
	// saturation throughput measured for this job mix, 31 jobs/s on a 2-CPU
	// Intel Xeon host at GOMAXPROCS 2. Re-measure with a burst far above
	// saturation, e.g. --rate 1000 --seconds 0.3, whose jobs_per_s is the
	// saturation throughput.
	serviceRate = 15.0
	// setupRepeats is how many daemons are started (and, but for the last,
	// stopped again) to take the median set-up time.
	setupRepeats = 21
)

// serviceSpec is a short or a long job of the stream.
func serviceSpec(seed uint64, long, smoke bool) core.Spec {
	p, iters := 512, 20
	if long {
		p, iters = 4096, 100
	}
	if smoke {
		p, iters = 64, 3
	}
	return core.Spec{
		Scheme: core.SchemeCyclicRep, Examples: 4, Workers: 4, Load: 2,
		Dim: p, DataPoints: 4 * 16, Seed: seed,
		Runtime: core.RuntimeTCP, TimeScale: 1, Iterations: iters,
	}
}

// fleet is a running daemon with its joined workers.
type fleet struct {
	d      *service.Daemon
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startFleet starts a daemon and joins fleetSize workers to it, returning
// once all of them are registered.
func startFleet(ctx context.Context) (*fleet, error) {
	d, err := service.Start(service.Options{MaxQueue: 1 << 16})
	if err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	f := &fleet{d: d, cancel: cancel}
	for i := 0; i < fleetSize; i++ {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = service.ServeWorker(wctx, d.Addr(), fmt.Sprintf("w%d", i))
		}()
	}
	for len(d.Workers()) < fleetSize {
		if err := ctx.Err(); err != nil {
			f.stop()
			return nil, err
		}
		time.Sleep(100 * time.Microsecond)
	}
	return f, nil
}

// stop drains the daemon, stops the workers and waits for them.
func (f *fleet) stop() {
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = f.d.Drain(dctx)
	cancel()
	f.cancel()
	f.wg.Wait()
}

type submission struct {
	id   core.JobID
	due  time.Time
	lag  float64 // ms the generator ran late
	rpc  float64 // ms the Submit call took
	spec core.Spec
	err  error
}

// checkServiceJob is the correctness gate of one service job: it reached
// JobDone with every iteration of its spec.
func checkServiceJob(st service.JobStatus, res *cluster.Result, iters int) error {
	if st.State != core.JobDone {
		return fmt.Errorf("ended %s: %s", st.State, st.Err)
	}
	if res == nil {
		return fmt.Errorf("done without a result")
	}
	if len(res.Iters) != iters {
		return fmt.Errorf("result holds %d of %d iterations", len(res.Iters), iters)
	}
	return nil
}

func runService(ctx context.Context, o runOpts) *report {
	r := newReport()
	var setups []float64
	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if f, err = startFleet(ctx); err != nil {
			r.attempted++
			r.failed++
			r.fail("starting the fleet: %v", err)
			return r
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			f.stop()
		}
	}
	defer f.stop()

	client, err := service.Dial(f.d.Addr())
	if err != nil {
		r.attempted++
		r.failed++
		r.fail("dialing the daemon: %v", err)
		return r
	}
	defer client.Close()

	rate, seconds := o.rate, o.seconds
	if rate <= 0 {
		rate = serviceRate
	}
	if o.smoke {
		seconds = 4 / rate
	}
	memBefore := readMem()
	start := time.Now()
	var subs []submission
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if due.Sub(start).Seconds() >= seconds || ctx.Err() != nil {
			break
		}
		// A fixed repeating pattern — three short jobs, then a long one —
		// gives every run the same load shape; the seed sets each job's data
		// and placement. (Seeded positions made the latency percentiles
		// jump between runs with how often short jobs overlapped long ones.)
		spec := serviceSpec(jobSeed(o.seed, i), i%4 == 3, o.smoke)
		time.Sleep(time.Until(due))
		sent := time.Now()
		st, err := client.Submit(spec)
		subs = append(subs, submission{
			id: st.ID, due: due, spec: spec, err: err,
			lag: sent.Sub(due).Seconds() * 1e3,
			rpc: time.Since(sent).Seconds() * 1e3,
		})
	}

	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	var latency, queue, run, lag, rpc, iterMs, setupMs []float64
	var last time.Time
	var samples float64
	var heard, iters, wireIn, wireOut int
	done := 0
	for _, s := range subs {
		r.attempted++
		lag, rpc = append(lag, s.lag), append(rpc, s.rpc)
		if s.err != nil {
			r.failed++
			r.fail("submitting job %d: %v", len(lag), s.err)
			continue
		}
		st, err := f.d.Wait(wctx, s.id)
		var res *cluster.Result
		if err == nil {
			if res, err = f.d.Result(s.id); err == nil {
				err = checkServiceJob(st, res, s.spec.Iterations)
			}
		}
		if err != nil {
			r.failed++
			r.fail("job %d: %v", s.id, err)
			continue
		}
		done++
		if st.Finished.After(last) {
			last = st.Finished
		}
		latency = append(latency, st.Finished.Sub(s.due).Seconds()*1e3)
		queue = append(queue, st.QueueSeconds*1e3)
		run = append(run, st.RunSeconds*1e3)
		var walls float64
		for _, it := range res.Iters {
			iterMs = append(iterMs, it.Wall*1e3)
			walls += it.Wall
			heard += it.WorkersHeard
		}
		setupMs = append(setupMs, (st.RunSeconds-walls)*1e3)
		iters += len(res.Iters)
		samples += float64(s.spec.DataPoints * len(res.Iters))
		wireIn += int(st.WireIn)
		wireOut += int(st.WireOut)
	}
	mem := readMem().sub(memBefore)
	window := last.Sub(start).Seconds()
	perIter := 1 / float64(max(iters, 1))
	r.note("%d jobs submitted at %.1f jobs/s over %.1f s, %d done", len(subs), rate, seconds, done)

	if !o.trace {
		r.set("setup_s", median(setups))
		r.set("iter_ms_p50", quantile(iterMs, 0.50))
		r.set("iter_ms_p95", quantile(iterMs, 0.95))
		r.set("samples_per_s", samples/window)
		r.set("time_to_target_s", sum(latency)/float64(max(len(latency), 1))/1e3)
		r.set("recovery_threshold", float64(heard)*perIter)
		r.set("peak_rss_mib", peakRSSMiB())
		r.set("wire_bytes_per_iter", float64(wireIn+wireOut)*perIter)
		r.set("error_rate", float64(r.failed)/float64(max(r.attempted, 1)))
		r.set("job_latency_ms_p50", quantile(latency, 0.50))
		r.set("job_latency_ms_p95", quantile(latency, 0.95))
		r.set("job_latency_ms_p99", quantile(latency, 0.99))
		r.note("job latency percentiles over %d jobs: %d lie beyond p95, %d beyond p99",
			len(latency), len(latency)/20, len(latency)/100)
		r.set("jobs_per_s", float64(done)/window)
		return r
	}
	for _, name := range []string{
		"core.newjob_ms", "model.grad_calls_per_iter", "model.grad_ms_per_iter",
		"coding.encode_ms_per_iter", "coding.offer_ms_per_iter", "coding.decode_ms_per_iter",
		"coding.useful_encode_ratio", "optimize.query_ms_per_iter", "optimize.update_ms_per_iter",
		"cluster.broadcast_ms_p50", "cluster.reply_ms_p50", "cluster.wait_to_decode_ms_p50",
		"cluster.wait_to_decode_ms_p95", "cluster.post_decode_ms_p50", "cluster.between_iters_ms_p50",
		"cluster.unattributed_ms_p50", "trace.overhead_iter_ms_p50",
	} {
		// The daemon builds its jobs itself, so their layers cannot be
		// wrapped from outside; this workload reads the daemon's counters.
		r.set(name, 0)
		r.labels[name] = "n/a"
	}
	r.set("cluster.transport_setup_ms", median(setupMs))
	r.set("wire.bytes_in_per_iter", float64(wireIn)*perIter)
	r.set("wire.bytes_out_per_iter", float64(wireOut)*perIter)
	r.set("runtime.allocs_per_iter", float64(mem.mallocs)*perIter)
	r.set("runtime.alloc_bytes_per_iter", float64(mem.allocBytes)*perIter)
	r.set("runtime.gc_cycles", float64(mem.gcCycles))
	r.set("runtime.gc_pause_ms", float64(mem.gcPauseNs)/1e6)
	r.set("service.submit_ms_p50", median(rpc))
	r.set("service.queue_ms_p50", median(queue))
	r.set("service.queue_ms_p99", quantile(queue, 0.99))
	r.set("service.run_ms_p50", median(run))
	r.set("loadgen.lag_ms_p99", quantile(lag, 0.99))
	return r
}
