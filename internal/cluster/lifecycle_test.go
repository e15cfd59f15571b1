package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"bcc/internal/faults"
	"bcc/internal/model"
)

// Lifecycle tests: context cancellation with partial results and clean
// teardown on every runtime, observer callback fidelity, early stopping and
// the periodic checkpoint hook.

// waitNoExtraGoroutines polls until the goroutine count returns to the
// before level (workers mid-sleep finish their bounded scaled sleeps and
// exit on the closed fabric), failing with a stack dump if it never does.
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

// TestCancelMidRunPartialResult cancels a run from inside an OnIteration
// callback on each runtime and asserts the contract: the completed
// iterations come back as a partial Result alongside context.Canceled, and
// no worker goroutines, reader goroutines or TCP listeners leak.
func TestCancelMidRunPartialResult(t *testing.T) {
	liveOpts := func(tcp bool) LiveOptions {
		return LiveOptions{TimeScale: 1e-6, Timeout: 30 * time.Second, TCP: tcp}
	}
	runtimes := []struct {
		name string
		run  func(ctx context.Context, cfg *Config) (*Result, error)
	}{
		{"sim", RunSimContext},
		{"live", func(ctx context.Context, cfg *Config) (*Result, error) {
			return RunLiveContext(ctx, cfg, liveOpts(false))
		}},
		{"tcp", func(ctx context.Context, cfg *Config) (*Result, error) {
			return RunLiveContext(ctx, cfg, liveOpts(true))
		}},
	}
	for i, rt := range runtimes {
		t.Run(rt.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg, _ := buildRun(t, "bcc", 8, 8, 2, 50, 90+uint64(i), Zero{})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const stopAfter = 3
			seen := 0
			cfg.Observer = ObserverFuncs{Iteration: func(IterStats) {
				seen++
				if seen == stopAfter {
					cancel()
				}
			}}
			res, err := rt.run(ctx, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("cancelled run returned no partial result")
			}
			if len(res.Iters) != stopAfter {
				t.Fatalf("partial result has %d iterations, want %d", len(res.Iters), stopAfter)
			}
			waitNoExtraGoroutines(t, before)
		})
	}
}

// TestDeadlineExpiresMidIteration wedges an iteration (uncoded needs every
// worker; one worker is catastrophically slow) so the context deadline
// fires while the master blocks for replies: the run must return with zero
// completed iterations, context.DeadlineExceeded, and full teardown once
// the straggler's bounded sleep ends.
func TestDeadlineExpiresMidIteration(t *testing.T) {
	before := runtime.NumGoroutine()
	// buildRun gives each uncoded worker 1 unit x 4 points. Worker 5:
	// compute 0.05*4*100 = 20 virtual s; at TimeScale 0.05 that is a 1 s
	// real sleep, far past the 150 ms deadline. The rest arrive in ~40 ms.
	lat := Fixed{PerPoint: 0.05, Factor: []float64{1, 1, 1, 1, 1, 100}}
	cfg, _ := buildRun(t, "uncoded", 6, 6, 1, 3, 95, lat)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := RunLiveContext(ctx, cfg, LiveOptions{TimeScale: 0.05, Timeout: 30 * time.Second})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || len(res.Iters) != 0 {
		t.Fatalf("expected empty partial result, got %+v", res)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not interrupt the blocked master: took %v", elapsed)
	}
	waitNoExtraGoroutines(t, before)
}

// TestObserverSeesEveryIteration is the engine-level fidelity contract: an
// observer on a sim run sees exactly Iterations OnIteration callbacks whose
// stats are identical to the returned Result.Iters, one OnDecode per
// iteration in order, and OnRunEnd with the very Result the run returns.
func TestObserverSeesEveryIteration(t *testing.T) {
	const iterations = 7
	cfg, _ := buildRun(t, "bcc", 10, 10, 2, iterations, 91, Zero{})
	cfg.LossEvery = 1 // record Loss every iteration so IterStats are comparable
	var got []IterStats
	var decodes []DecodeEvent
	var end *Result
	cfg.Observer = ObserverFuncs{
		Iteration: func(st IterStats) { got = append(got, st) },
		Decode:    func(ev DecodeEvent) { decodes = append(decodes, ev) },
		RunEnd:    func(r *Result) { end = r },
	}
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != iterations || len(res.Iters) != iterations {
		t.Fatalf("observer saw %d iterations, result has %d, want %d", len(got), len(res.Iters), iterations)
	}
	for i := range got {
		if got[i] != res.Iters[i] {
			t.Fatalf("iteration %d: observer saw %+v, result holds %+v", i, got[i], res.Iters[i])
		}
	}
	if len(decodes) != iterations {
		t.Fatalf("observer saw %d decode events, want %d", len(decodes), iterations)
	}
	for i, ev := range decodes {
		if ev.Iter != i {
			t.Fatalf("decode event %d reports iteration %d", i, ev.Iter)
		}
		if ev.WorkersHeard != res.Iters[i].WorkersHeard {
			t.Fatalf("decode event %d heard %d workers, stats say %d", i, ev.WorkersHeard, res.Iters[i].WorkersHeard)
		}
	}
	if end != res {
		t.Fatalf("OnRunEnd saw %p, run returned %p", end, res)
	}
}

// TestObserverEquivalentAcrossRuntimes pins the callback stream to the
// engine, not the transport: with the staggered latency fixing the arrival
// order, the same spec and seed produce the same OnIteration sequence
// (thresholds, loads, gradient norms) on sim and live.
func TestObserverEquivalentAcrossRuntimes(t *testing.T) {
	if testing.Short() {
		t.Skip("staggered live runs sleep real time")
	}
	const m, n, r, iters = 8, 6, 2, 2
	collect := func(run func(cfg *Config) (*Result, error)) []IterStats {
		cfg, _ := buildRun(t, "bcc", m, n, r, iters, 92, staggered(n, 4*r))
		var got []IterStats
		cfg.Observer = ObserverFuncs{Iteration: func(st IterStats) { got = append(got, st) }}
		if _, err := run(cfg); err != nil {
			t.Fatal(err)
		}
		return got
	}
	sim := collect(RunSim)
	live := collect(func(cfg *Config) (*Result, error) {
		return RunLive(cfg, LiveOptions{TimeScale: liveEquivScale, Timeout: 60 * time.Second})
	})
	if len(sim) != len(live) {
		t.Fatalf("sim observed %d iterations, live %d", len(sim), len(live))
	}
	for i := range sim {
		if sim[i].WorkersHeard != live[i].WorkersHeard || sim[i].Units != live[i].Units ||
			sim[i].GradNorm != live[i].GradNorm {
			t.Fatalf("iteration %d: sim %+v vs live %+v", i, sim[i], live[i])
		}
	}
}

// TestStopWhenEndsRunEarly checks the early-stop hook: the run ends without
// error after the first satisfying iteration.
func TestStopWhenEndsRunEarly(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 8, 2, 30, 93, Zero{})
	cfg.StopWhen = func(st IterStats) bool { return st.Iter >= 4 }
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 5 {
		t.Fatalf("run recorded %d iterations, want 5 (early stop after iter 4)", len(res.Iters))
	}
}

// TestCheckpointHookCadence checks the periodic checkpoint hook fires with
// the completed-iteration counts and that a failing hook aborts the run
// while preserving the finished iterations.
func TestCheckpointHookCadence(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 8, 2, 5, 94, Zero{})
	var calls []int
	cfg.CheckpointEvery = 2
	cfg.Checkpoint = func(completed int) error {
		calls = append(calls, completed)
		return nil
	}
	if _, err := RunSim(cfg); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != 2 || calls[1] != 4 {
		t.Fatalf("checkpoint calls %v, want [2 4]", calls)
	}

	cfg2, _ := buildRun(t, "bcc", 8, 8, 2, 5, 94, Zero{})
	cfg2.CheckpointEvery = 2
	boom := fmt.Errorf("disk full")
	cfg2.Checkpoint = func(completed int) error {
		if completed == 4 {
			return boom
		}
		return nil
	}
	res, err := RunSim(cfg2)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the checkpoint error", err)
	}
	if res == nil || len(res.Iters) != 4 {
		t.Fatalf("aborted run should keep its 4 finished iterations, got %+v", res)
	}
}

// TestFaultPlanCancelMidRunPartialResult cancels a run mid-flight while a
// FaultPlan is actively crashing and slowing workers, on each runtime: the
// completed iterations must come back as a partial Result alongside
// context.Canceled, and no worker goroutines, reader goroutines or TCP
// listeners may leak — a crashed (skipping) worker must still observe the
// fabric teardown.
func TestFaultPlanCancelMidRunPartialResult(t *testing.T) {
	liveOpts := func(tcp bool) LiveOptions {
		return LiveOptions{TimeScale: 1e-6, Timeout: 30 * time.Second, TCP: tcp}
	}
	runtimes := []struct {
		name string
		run  func(ctx context.Context, cfg *Config) (*Result, error)
	}{
		{"sim", RunSimContext},
		{"live", func(ctx context.Context, cfg *Config) (*Result, error) {
			return RunLiveContext(ctx, cfg, liveOpts(false))
		}},
		{"tcp", func(ctx context.Context, cfg *Config) (*Result, error) {
			return RunLiveContext(ctx, cfg, liveOpts(true))
		}},
	}
	plan := &faults.Plan{N: 8,
		// Worker 1 is down from iteration 1 on — it is mid-crash when the
		// cancel lands; worker 2 is in a slowdown window.
		Crashes:   []faults.Crash{{Worker: 1, At: 1}, {Worker: 3, At: 2, RestartAfter: 2}},
		Slowdowns: []faults.Slowdown{{Worker: 2, From: 0, Factor: 3}},
	}
	for i, rt := range runtimes {
		t.Run(rt.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg, _ := buildRun(t, "bcc", 8, 8, 4, 50, 190+uint64(i), Zero{})
			cfg.Faults = plan
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const stopAfter = 3
			seen := 0
			cfg.Observer = ObserverFuncs{Iteration: func(IterStats) {
				seen++
				if seen == stopAfter {
					cancel()
				}
			}}
			res, err := rt.run(ctx, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil || len(res.Iters) != stopAfter {
				t.Fatalf("partial result %+v, want %d iterations", res, stopAfter)
			}
			waitNoExtraGoroutines(t, before)
		})
	}
}

// TestFaultPlanDegradeTeardown runs a plan that crashes the cluster below
// the decodable threshold mid-run on the live runtimes: the explicit
// degradation error must also tear every worker goroutine down (the
// crashed-forever workers included).
func TestFaultPlanDegradeTeardown(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := "live"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg, _ := buildRun(t, "bcc", 8, 8, 4, 10, 195, Zero{})
			plan := &faults.Plan{N: 8}
			for w := 0; w < 7; w++ {
				plan.Crashes = append(plan.Crashes, faults.Crash{Worker: w, At: 2})
			}
			cfg.Faults = plan
			res, err := RunLive(cfg, LiveOptions{TimeScale: 1e-6, Timeout: 30 * time.Second, TCP: tcp})
			if !errors.Is(err, ErrBelowThreshold) {
				t.Fatalf("err = %v, want ErrBelowThreshold", err)
			}
			if res == nil || len(res.Iters) != 2 {
				t.Fatalf("partial result %+v, want 2 iterations", res)
			}
			waitNoExtraGoroutines(t, before)
		})
	}
}

// TestMultiObserver checks fan-out and nil-squashing.
func TestMultiObserver(t *testing.T) {
	if MultiObserver(nil, nil) != nil {
		t.Fatal("all-nil MultiObserver should collapse to nil")
	}
	a, b := 0, 0
	obs := MultiObserver(
		ObserverFuncs{Iteration: func(IterStats) { a++ }},
		nil,
		ObserverFuncs{Iteration: func(IterStats) { b++ }},
	)
	cfg, _ := buildRun(t, "bcc", 8, 8, 2, 3, 96, Zero{})
	cfg.Observer = obs
	if _, err := RunSim(cfg); err != nil {
		t.Fatal(err)
	}
	if a != 3 || b != 3 {
		t.Fatalf("fan-out counts a=%d b=%d, want 3 each", a, b)
	}
}

// poisonedModel is a model whose gradients turn infinite as soon as the
// query leaves the origin: iteration 0 (queried at w = 0) decodes a finite
// gradient, every later iteration a non-finite one.
type poisonedModel struct{ *model.Logistic }

func (m poisonedModel) SubsetGradient(w []float64, rows []int, out []float64) {
	m.Logistic.SubsetGradient(w, rows, out)
	for _, x := range w {
		if x != 0 {
			out[0] = math.Inf(1)
			return
		}
	}
}

// TestNonFiniteGradientDegrades pins the non-finite guard on every runtime:
// a gradient that turns infinite ends the run with ErrNonFinite naming the
// iteration, one KindDegraded event, no Result and no leaked goroutines —
// never a run reported done with non-finite weights.
func TestNonFiniteGradientDegrades(t *testing.T) {
	opts := LiveOptions{TimeScale: 1e-6, Timeout: 30 * time.Second}
	tcpOpts := opts
	tcpOpts.TCP = true
	for _, rt := range []struct {
		name   string
		shards int
		run    func(*Config) (*Result, error)
	}{
		{"sim", 0, RunSim},
		{"sim/M=2", 2, RunSim},
		{"live", 0, func(cfg *Config) (*Result, error) { return RunLive(cfg, opts) }},
		{"tcp", 0, func(cfg *Config) (*Result, error) { return RunLive(cfg, tcpOpts) }},
	} {
		t.Run(rt.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg, mod := buildRun(t, "bcc", 8, 8, 2, 10, 196, Zero{})
			cfg.Model = poisonedModel{mod}
			cfg.MasterShards = rt.shards
			cfg.Comm = CommOptions{Chunk: 4}
			var degraded []faults.Event
			iters := 0
			cfg.Observer = ObserverFuncs{
				Iteration: func(IterStats) { iters++ },
				Fault:     func(ev faults.Event) { degraded = append(degraded, ev) },
			}
			res, err := rt.run(cfg)
			if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "iteration 1") {
				t.Fatalf("err = %v, want ErrNonFinite at iteration 1", err)
			}
			if res != nil {
				t.Fatalf("non-finite run returned a Result with %d iterations", len(res.Iters))
			}
			if iters != 1 {
				t.Fatalf("observer saw %d finished iterations, want 1", iters)
			}
			if len(degraded) != 1 || degraded[0].Kind != faults.KindDegraded || degraded[0].Iter != 1 {
				t.Fatalf("fault events %+v, want one KindDegraded at iteration 1", degraded)
			}
			waitNoExtraGoroutines(t, before)
		})
	}
}
