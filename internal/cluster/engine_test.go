package cluster

import (
	"math"
	"testing"
	"time"

	"bcc/internal/vecmath"
)

// The equivalence tests pin the arrival order: with a per-worker staggered
// Fixed latency the workers finish strictly in index order, spaced far
// enough apart (in scaled real time) that the goroutine and TCP runtimes
// realize the same order the simulator models. Every runtime then counts
// the same worker set, so recovery thresholds and comm loads must agree
// exactly — the engine is one piece of code, only the transport differs.

// staggerGapVirtual is the virtual-seconds gap between consecutive workers'
// arrivals; with liveEquivScale it is 15 ms of real time per step, wide
// enough to be robust against scheduler jitter on loaded CI machines.
const (
	staggerGapVirtual = 1.0
	liveEquivScale    = 15e-3
)

// staggered returns a Fixed latency whose worker w finishes its (equal-load)
// computation (w+1)*staggerGapVirtual virtual seconds after broadcast.
func staggered(n, points int) Fixed {
	factors := make([]float64, n)
	for w := range factors {
		factors[w] = float64(w + 1)
	}
	return Fixed{PerPoint: staggerGapVirtual / float64(points), Factor: factors}
}

// equivCase is one row of the cross-runtime equivalence table.
type equivCase struct {
	name      string
	scheme    string
	m, n, r   int
	iters     int
	seed      uint64
	dead      []int
	dropProb  float64
	dropSeed  uint64
	pipelined bool
}

func (c equivCase) config(t *testing.T) *Config {
	t.Helper()
	// buildRun gives every worker points = 4*r raw points (equal loads), so
	// the staggered factors alone fix the arrival order.
	cfg, _ := buildRun(t, c.scheme, c.m, c.n, c.r, c.iters, c.seed, staggered(c.n, 4*c.r))
	cfg.Dead = c.dead
	cfg.DropProb = c.dropProb
	cfg.DropSeed = c.dropSeed
	cfg.Pipelined = c.pipelined
	return cfg
}

// engineRuntime is one way of running the shared engine.
type engineRuntime struct {
	name string
	run  func(cfg *Config) (*Result, error)
}

func equivRuntimes() []engineRuntime {
	liveOpts := func(tcp bool, codec string) LiveOptions {
		return LiveOptions{TimeScale: liveEquivScale, Timeout: 60 * time.Second, TCP: tcp, Codec: codec}
	}
	return []engineRuntime{
		{"sim", RunSim},
		{"live", func(cfg *Config) (*Result, error) { return RunLive(cfg, liveOpts(false, "")) }},
		{"tcp-wire", func(cfg *Config) (*Result, error) { return RunLive(cfg, liveOpts(true, "wire")) }},
	}
}

// TestRuntimesEquivalent asserts that the sim, live and tcp runtimes
// produce identical per-iteration recovery thresholds, comm loads and
// payload bytes, and bit-identical weights, for
// the same Spec-level inputs and seed — including dead-worker and DropProb
// fault injection and pipelined mode.
func TestRuntimesEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("staggered live runs sleep real time")
	}
	cases := []equivCase{
		{name: "bcc", scheme: "bcc", m: 8, n: 6, r: 2, iters: 2, seed: 50},
		{name: "uncoded", scheme: "uncoded", m: 6, n: 6, r: 1, iters: 2, seed: 51},
		{name: "cyclicrep-dead", scheme: "cyclicrep", m: 6, n: 6, r: 2, iters: 2, seed: 52, dead: []int{2}},
		{name: "cyclicmds-wirepayload", scheme: "cyclicmds", m: 6, n: 6, r: 2, iters: 2, seed: 53},
		{name: "bcc-drops", scheme: "bcc", m: 8, n: 12, r: 2, iters: 2, seed: 54, dropProb: 0.2, dropSeed: 7},
		{name: "bcc-pipelined", scheme: "bcc", m: 8, n: 6, r: 2, iters: 2, seed: 50, pipelined: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var ref *Result
			var refName string
			for _, rt := range equivRuntimes() {
				res, err := rt.run(tc.config(t))
				if err != nil {
					t.Fatalf("%s: %v", rt.name, err)
				}
				if len(res.Iters) != tc.iters {
					t.Fatalf("%s recorded %d iterations, want %d", rt.name, len(res.Iters), tc.iters)
				}
				if ref == nil {
					ref, refName = res, rt.name
					continue
				}
				for i, it := range res.Iters {
					want := ref.Iters[i]
					if it.WorkersHeard != want.WorkersHeard {
						t.Errorf("%s iter %d: recovery threshold %d, %s saw %d",
							rt.name, i, it.WorkersHeard, refName, want.WorkersHeard)
					}
					if it.Units != want.Units {
						t.Errorf("%s iter %d: comm load %v, %s saw %v",
							rt.name, i, it.Units, refName, want.Units)
					}
					if it.Bytes != want.Bytes {
						t.Errorf("%s iter %d: payload %d bytes, %s saw %d",
							rt.name, i, it.Bytes, refName, want.Bytes)
					}
				}
				if d := vecmath.MaxAbsDiff(res.FinalW, ref.FinalW); d != 0 {
					t.Errorf("%s final weights differ from %s by %v", rt.name, refName, d)
				}
			}
		})
	}
}

// TestPipelinedSimMatchesBarrierStats checks the sim transport's documented
// property: pipelining cannot change per-iteration stats (cancel-on-receive
// means every round starts with all workers idle), it only removes the
// barrier wait from the end-to-end time.
func TestPipelinedSimMatchesBarrierStats(t *testing.T) {
	run := func(pipelined bool) *Result {
		// One heavy straggler: its arrival trails the decode point, so the
		// barrier must wait for it while the pipelined master does not.
		lat := Fixed{PerPoint: 0.01, PerUnit: 1, Factor: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 50}}
		cfg, _ := buildRun(t, "bcc", 8, 10, 2, 6, 60, lat)
		cfg.IngressPerUnit = 0.01
		cfg.Pipelined = pipelined
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	barrier, pipe := run(false), run(true)
	if d := vecmath.MaxAbsDiff(barrier.FinalW, pipe.FinalW); d != 0 {
		t.Fatalf("pipelining changed training by %v", d)
	}
	for i := range barrier.Iters {
		a, b := barrier.Iters[i], pipe.Iters[i]
		// NaN Loss sentinels compare unequal; neutralize them first.
		a.Loss, b.Loss = 0, 0
		if a != b {
			t.Fatalf("iteration %d stats differ: %+v vs %+v", i, barrier.Iters[i], pipe.Iters[i])
		}
	}
	if pipe.TotalElapsed != pipe.TotalWall {
		t.Fatalf("pipelined elapsed %v should equal decode-time total %v", pipe.TotalElapsed, pipe.TotalWall)
	}
	if barrier.TotalElapsed <= pipe.TotalElapsed {
		t.Fatalf("barrier elapsed %v not above pipelined %v despite a straggler tail",
			barrier.TotalElapsed, pipe.TotalElapsed)
	}
}

// TestPipelinedLiveCancelsStragglers runs the goroutine runtime in pipelined
// mode with one catastrophically slow worker: the fresher broadcasts must
// preempt its stale sleeps so the run finishes fast, and cancellation must
// not perturb the training outcome.
func TestPipelinedLiveCancelsStragglers(t *testing.T) {
	factors := make([]float64, 30)
	for i := range factors {
		factors[i] = 1
	}
	factors[0] = 1000
	lat := Fixed{PerPoint: 1e-4, PerUnit: 0.01, Factor: factors}
	mk := func() *Config {
		cfg, _ := buildRun(t, "bcc", 10, 30, 2, 4, 61, lat)
		cfg.Pipelined = true
		return cfg
	}
	start := time.Now()
	res, err := RunLive(mk(), LiveOptions{TimeScale: 1e-2, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pipelined run waited for the straggler: %v", elapsed)
	}
	simCfg := mk()
	simRes, err := RunSim(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := vecmath.MaxAbsDiff(res.FinalW, simRes.FinalW); d != 0 {
		t.Fatalf("pipelined live weights differ from sim by %v", d)
	}
}

// TestPipelinedTCPEndToEnd drives pipelined mode through the TCP fabric and
// the compact wire codec together. The straggler factors make slow workers'
// sleeps genuinely outlast decode points, so fresher broadcasts must
// preempt stale sleeps over real sockets (the reader-channel path).
func TestPipelinedTCPEndToEnd(t *testing.T) {
	factors := make([]float64, 16)
	for i := range factors {
		factors[i] = 1
	}
	factors[3], factors[9] = 200, 500
	lat := Fixed{PerPoint: 1e-3, PerUnit: 0.05, Factor: factors}
	mk := func() *Config {
		cfg, _ := buildRun(t, "bcc", 8, 16, 2, 5, 62, lat)
		cfg.Pipelined = true
		return cfg
	}
	res, err := RunLive(mk(), LiveOptions{TimeScale: 1e-3, TCP: true, Codec: "wire", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := RunSim(mk())
	if err != nil {
		t.Fatal(err)
	}
	if d := vecmath.MaxAbsDiff(res.FinalW, simRes.FinalW); d != 0 {
		t.Fatalf("pipelined tcp weights differ from sim by %v", d)
	}
	if res.TotalBytes == 0 {
		t.Fatal("pipelined tcp run reported zero bytes")
	}
}

// TestRunTransportValidates covers the exported engine entry point future
// runtimes use.
func TestRunTransportValidates(t *testing.T) {
	cfg, _ := buildRun(t, "uncoded", 8, 4, 2, 3, 63, Zero{})
	cfg.Iterations = 0
	if _, err := RunTransport(cfg, newSimTransport(cfg)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestRunTransportSimRoundTrip exercises RunTransport on a valid config so
// the exported path is known-good, and checks the barrier-mode elapsed
// bookkeeping: with zero latency and no ingress cost every round ends at
// time 0 on the virtual clock.
func TestRunTransportSimRoundTrip(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 8, 2, 4, 64, Zero{})
	res, err := RunTransport(cfg, newSimTransport(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 4 {
		t.Fatalf("recorded %d iterations", len(res.Iters))
	}
	if res.TotalElapsed != 0 || res.TotalWall != 0 {
		t.Fatalf("zero-latency run has elapsed %v wall %v", res.TotalElapsed, res.TotalWall)
	}
	if math.IsNaN(res.AvgWorkersHeard) || res.AvgWorkersHeard <= 0 {
		t.Fatalf("avg workers heard %v", res.AvgWorkersHeard)
	}
}
