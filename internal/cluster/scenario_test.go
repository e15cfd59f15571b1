package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bcc/internal/faults"
	"bcc/internal/vecmath"
)

// The scenario conformance suite: every named fault scenario must produce
// bit-identical iterates and identical fault-event traces on the sim, live
// and tcp runtimes, in both barrier and pipelined mode. The suite leans on
// the same staggered-latency construction as the cross-runtime equivalence
// tests — worker w's (equal-load) computation finishes (w+1) virtual
// seconds after broadcast, so arrival order is fixed — and on the fault
// plan being a pure function of its seed, so all runtimes consult an
// identical schedule. The scenario library's slowdown factors keep the
// slowed arrival times distinct from every unslowed one (products of
// distinct staggers with factors 6 or 8 never collide with staggers 1..n),
// so the realized order stays deterministic on the live runtimes too.

// scenarioTopology is the shared conformance run shape: bcc with 2 batches
// over 8 workers (high redundancy, decode from any batch-covering prefix),
// which survives every library scenario's blast radius.
const (
	scenarioM, scenarioN, scenarioR = 8, 8, 4
	scenarioIters                   = 5
	scenarioSeed                    = 401
	// scenarioScale maps one virtual stagger second to 40 ms of real time —
	// wide enough for scheduler jitter, short enough that the slowed-worker
	// scenarios (factor up to 8 on stagger up to 8) stay test-sized. Timer
	// wake-ups on a shared 2-vCPU VM overshoot by up to ~25 ms, and at a
	// 10 ms step that reordered arrivals in most whole-package runs.
	scenarioScale = 40e-3
)

// scenarioRun is one runtime's observation of a scenario: the result plus
// the fault-event trace seen by the observer.
type scenarioRun struct {
	res    *Result
	events []string
}

// runScenario executes the named scenario on one runtime. run is nil for
// the sim reference.
func runScenario(t *testing.T, name string, pipelined bool, run func(cfg *Config) (*Result, error)) scenarioRun {
	t.Helper()
	return runScenarioComm(t, name, pipelined, CommOptions{}, run)
}

// runScenarioComm is runScenario with an explicit payload-codec
// configuration — the codec axis of the conformance matrix.
func runScenarioComm(t *testing.T, name string, pipelined bool, comm CommOptions, run func(cfg *Config) (*Result, error)) scenarioRun {
	t.Helper()
	return runScenarioCfg(t, name, pipelined, comm, nil, run)
}

// runScenarioCfg is the fully general scenario runner: mut, if non-nil, may
// adjust the built Config before the run (the sharded-master conformance
// suite sets MasterShards through it).
func runScenarioCfg(t *testing.T, name string, pipelined bool, comm CommOptions, mut func(*Config), run func(cfg *Config) (*Result, error)) scenarioRun {
	t.Helper()
	plan, err := faults.Scenario(name, scenarioN, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := buildRun(t, "bcc", scenarioM, scenarioN, scenarioR, scenarioIters, scenarioSeed,
		staggered(scenarioN, 4*scenarioR))
	cfg.Faults = plan
	cfg.Pipelined = pipelined
	cfg.Comm = comm
	// The conformance matrix runs with decode parallelism on: every runtime
	// must still match the sim reference (and the golden traces) exactly
	// with the knob set. At this suite's small dimension the Shard cutoff
	// keeps the fold inline, so what this pins is the knob's cross-runtime
	// plumbing being a pure no-op on results; the REAL fan-out's
	// bit-exactness is pinned by TestDecodeParallelismBitExact (dim 1500)
	// and the coding-level tests (dim 2048). ComputeParallelism stays
	// serial here only because worker-side fan-out adds real compute-time
	// jitter to the staggered-arrival construction on loaded machines; its
	// bit-exactness is pinned by the dedicated TestComputeParallelism*
	// tests.
	cfg.DecodeParallelism = 2
	if mut != nil {
		mut(cfg)
	}
	var events []string
	cfg.Observer = ObserverFuncs{Fault: func(ev faults.Event) {
		events = append(events, ev.String())
	}}
	if run == nil {
		run = RunSim
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	return scenarioRun{res: res, events: events}
}

// scenarioRuntimes lists the runtimes under conformance; sim is the
// reference implementation.
func scenarioRuntimes() []engineRuntime {
	opts := func(tcp bool, codec string) LiveOptions {
		return LiveOptions{TimeScale: scenarioScale, Timeout: 60 * time.Second, TCP: tcp, Codec: codec}
	}
	return []engineRuntime{
		{"live", func(cfg *Config) (*Result, error) { return RunLive(cfg, opts(false, "")) }},
		{"tcp-wire", func(cfg *Config) (*Result, error) { return RunLive(cfg, opts(true, "wire")) }},
	}
}

// TestScenarioConformance is the tentpole suite: for every named scenario,
// in barrier and pipelined mode, the live and tcp runtimes must reproduce
// the sim reference exactly — per-iteration recovery thresholds, comm
// loads, payload bytes, gradient norms, bit-identical final weights and an
// identical fault-event trace.
func TestScenarioConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("staggered live runs sleep real time")
	}
	for _, name := range faults.Names() {
		for _, pipelined := range []bool{false, true} {
			name, pipelined := name, pipelined
			mode := "barrier"
			if pipelined {
				mode = "pipelined"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				ref := runScenario(t, name, pipelined, nil)
				if len(ref.res.Iters) != scenarioIters {
					t.Fatalf("sim completed %d iterations, want %d", len(ref.res.Iters), scenarioIters)
				}
				for _, rt := range scenarioRuntimes() {
					got := runScenario(t, name, pipelined, rt.run)
					if len(got.res.Iters) != len(ref.res.Iters) {
						t.Fatalf("%s completed %d iterations, sim %d", rt.name, len(got.res.Iters), len(ref.res.Iters))
					}
					for i, it := range got.res.Iters {
						want := ref.res.Iters[i]
						if it.WorkersHeard != want.WorkersHeard || it.Units != want.Units ||
							it.Bytes != want.Bytes || it.GradNorm != want.GradNorm {
							t.Errorf("%s iter %d: (K=%d units=%v bytes=%d |g|=%v), sim (K=%d units=%v bytes=%d |g|=%v)",
								rt.name, i, it.WorkersHeard, it.Units, it.Bytes, it.GradNorm,
								want.WorkersHeard, want.Units, want.Bytes, want.GradNorm)
						}
					}
					if d := vecmath.MaxAbsDiff(got.res.FinalW, ref.res.FinalW); d != 0 {
						t.Errorf("%s final weights differ from sim by %v", rt.name, d)
					}
					if gotTr, wantTr := strings.Join(got.events, "\n"), strings.Join(ref.events, "\n"); gotTr != wantTr {
						t.Errorf("%s fault-event trace:\n%s\nsim saw:\n%s", rt.name, gotTr, wantTr)
					}
				}
			})
		}
	}
}

// TestScenarioFaultsPerturbTraining sanity-checks that the fault machinery
// actually bites: relative to the steady baseline, each disruptive scenario
// must change SOME observable of the sim run (recovery thresholds, counted
// worker sets or event traces) while still training to the same optimum
// tolerance as an unfaulted run.
func TestScenarioFaultsPerturbTraining(t *testing.T) {
	steady := runScenario(t, "steady", false, nil)
	if len(steady.events) != 0 {
		t.Fatalf("steady scenario emitted events: %v", steady.events)
	}
	for _, name := range []string{"flaky-tail", "rolling-restart", "partition", "slow-decile"} {
		got := runScenario(t, name, false, nil)
		if len(got.events) == 0 {
			t.Errorf("scenario %s emitted no fault events", name)
		}
		// Tail slowdowns may leave the decode prefix untouched (that is the
		// point of the redundancy) but then must still stretch the barrier's
		// tail drain, i.e. the end-to-end elapsed time.
		same := got.res.TotalElapsed == steady.res.TotalElapsed
		for i, it := range got.res.Iters {
			ref := steady.res.Iters[i]
			if it.WorkersHeard != ref.WorkersHeard || it.Units != ref.Units || it.Wall != ref.Wall {
				same = false
				break
			}
		}
		if same {
			t.Errorf("scenario %s left every observable identical to steady", name)
		}
	}
}

// TestScenarioBelowThresholdDegrades pins the explicit degradation
// contract on all three runtimes: when the fault plan crashes the cluster
// below the scheme's decodable minimum, the run must fail fast with
// ErrBelowThreshold (which also satisfies errors.Is(err, ErrStalled)),
// keep the completed iterations as a partial Result, fire OnRunEnd with
// it, and emit a KindDegraded fault event — instead of wedging the
// transport until its timeout.
func TestScenarioBelowThresholdDegrades(t *testing.T) {
	const crashAt = 2
	liveOpts := func(tcp bool) LiveOptions {
		return LiveOptions{TimeScale: 1e-6, Timeout: 30 * time.Second, TCP: tcp}
	}
	runtimes := []engineRuntime{
		{"sim", RunSim},
		{"live", func(cfg *Config) (*Result, error) { return RunLive(cfg, liveOpts(false)) }},
		{"tcp", func(cfg *Config) (*Result, error) { return RunLive(cfg, liveOpts(true)) }},
	}
	for _, rt := range runtimes {
		t.Run(rt.name, func(t *testing.T) {
			cfg, _ := buildRun(t, "bcc", 8, 8, 4, 6, 402, Zero{})
			// Crash all but one worker at crashAt: bcc with 2 batches cannot
			// possibly decode from a single worker.
			plan := &faults.Plan{N: 8}
			for w := 0; w < 7; w++ {
				plan.Crashes = append(plan.Crashes, faults.Crash{Worker: w, At: crashAt})
			}
			cfg.Faults = plan
			degradedSeen := false
			var end *Result
			cfg.Observer = ObserverFuncs{
				Fault:  func(ev faults.Event) { degradedSeen = degradedSeen || ev.Kind == faults.KindDegraded },
				RunEnd: func(r *Result) { end = r },
			}
			start := time.Now()
			res, err := rt.run(cfg)
			if !errors.Is(err, ErrBelowThreshold) {
				t.Fatalf("err = %v, want ErrBelowThreshold", err)
			}
			if !errors.Is(err, ErrStalled) {
				t.Fatalf("ErrBelowThreshold must wrap ErrStalled; err = %v", err)
			}
			if res == nil || len(res.Iters) != crashAt {
				t.Fatalf("partial result has %v iterations, want %d", res, crashAt)
			}
			if end != res {
				t.Fatalf("OnRunEnd saw %p, run returned %p", end, res)
			}
			if !degradedSeen {
				t.Fatal("no KindDegraded fault event reached the observer")
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("degradation was not fail-fast: took %v", elapsed)
			}
		})
	}
}

// TestScenarioStallEmitsDegradedSignal covers the other degradation arm:
// an unplanned stall (random DropProb loss on a zero-redundancy scheme) is
// detected after the fact and still signals the observer with KindDegraded
// before returning ErrStalled.
func TestScenarioStallEmitsDegradedSignal(t *testing.T) {
	cfg, _ := buildRun(t, "uncoded", 12, 12, 1, 50, 403, Zero{})
	cfg.DropProb = 0.3
	cfg.DropSeed = 10
	degradedSeen := false
	cfg.Observer = ObserverFuncs{Fault: func(ev faults.Event) {
		degradedSeen = degradedSeen || ev.Kind == faults.KindDegraded
	}}
	_, err := RunSim(cfg)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("expected ErrStalled, got %v", err)
	}
	if errors.Is(err, ErrBelowThreshold) {
		t.Fatalf("random drops are not plan-predictable; err %v must not claim fail-fast", err)
	}
	if !degradedSeen {
		t.Fatal("stall did not emit a KindDegraded event")
	}
}

// TestScenarioPlanWorkerCountValidated pins Config.validate's plan/cluster
// size agreement check.
func TestScenarioPlanWorkerCountValidated(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 8, 4, 2, 404, Zero{})
	cfg.Faults = &faults.Plan{N: 4}
	_, err := RunSim(cfg)
	if err == nil || !strings.Contains(err.Error(), "fault plan built for 4 workers") {
		t.Fatalf("mismatched plan size accepted: %v", err)
	}
	cfg.Faults = &faults.Plan{N: 8, Crashes: []faults.Crash{{Worker: 9, At: 0}}}
	if _, err := RunSim(cfg); err == nil {
		t.Fatal("invalid plan rule accepted")
	}
}

// TestScenarioCrashedWorkerComputeExcluded checks the worker-state
// accounting end to end on the sim runtime: while worker 0 (the only
// stagger-1 worker) is crashed, the realized recovery set shifts and its
// compute time never enters the iteration stats.
func TestScenarioCrashedWorkerComputeExcluded(t *testing.T) {
	mk := func(plan *faults.Plan) *Result {
		cfg, _ := buildRun(t, "bcc", 8, 8, 4, 4, 405, staggered(8, 16))
		cfg.Faults = plan
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(nil)
	crashed := mk(&faults.Plan{N: 8, Crashes: []faults.Crash{{Worker: 0, At: 1, RestartAfter: 2}}})
	for i := 1; i < 3; i++ {
		// Worker 0 arrives first in the baseline (stagger 1); with it down,
		// the decode prefix must shift to later (slower) arrivals.
		if crashed.Iters[i].Wall <= base.Iters[i].Wall {
			t.Fatalf("iter %d: crashed-run wall %v not above baseline %v",
				i, crashed.Iters[i].Wall, base.Iters[i].Wall)
		}
	}
	for _, i := range []int{0, 3} {
		a, b := crashed.Iters[i], base.Iters[i]
		// NaN Loss sentinels compare unequal; neutralize them first.
		a.Loss, b.Loss = 0, 0
		if a != b {
			t.Fatalf("iter %d (worker 0 up): stats %+v differ from baseline %+v",
				i, crashed.Iters[i], base.Iters[i])
		}
	}
}

// TestScenarioSpecPlumbing drives a named scenario through the public
// Spec/Job path on the sim runtime and checks it matches the directly
// configured cluster run — the core wiring test.
func TestScenarioSpecPlumbing(t *testing.T) {
	// Direct: build the same plan core would derive.
	plan, err := faults.Scenario("rolling-restart", 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := buildRun(t, "bcc", 8, 8, 4, 6, 406, Zero{})
	cfg.Faults = plan
	if _, err := RunSim(cfg); err != nil {
		t.Fatalf("rolling-restart under zero latency: %v", err)
	}
	// The event stream must be identical for a re-run (determinism through
	// the whole Config path).
	collect := func() []string {
		cfg, _ := buildRun(t, "bcc", 8, 8, 4, 6, 406, Zero{})
		cfg.Faults = plan
		var evs []string
		cfg.Observer = ObserverFuncs{Fault: func(ev faults.Event) { evs = append(evs, ev.String()) }}
		if _, err := RunSim(cfg); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	a, b := collect(), collect()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("fault traces differ between identical runs:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("rolling-restart emitted no events in 6 iterations")
	}
}
