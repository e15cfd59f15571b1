package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"bcc/internal/faults"
	"bcc/internal/optimize"
	"bcc/internal/vecmath"
)

// The sharded-master conformance suite: Config.MasterShards must be a pure
// performance knob. For every fault scenario, in barrier and pipelined mode,
// on the sim, live and tcp runtimes, a sharded run must reproduce the
// unsharded run exactly — identical per-iteration stats, bit-identical final
// weights and an identical fault-event trace — for every tested shard count,
// including configured counts above the model's chunk count (clamped by
// effectiveShards rather than materializing empty tail shards). The matrix
// runs at a small
// wire chunk so the shard boundaries genuinely split the 12-dimensional
// test model (the default 512-element chunk would put every coordinate on
// shard 0).

// shardedChunk makes shardBounds split the dim-12 conformance model into
// real multi-coordinate slices: chunk 4 gives M=2 the split [0,8)|[8,12),
// and M=4 exceeds the 3 wire chunks, so effectiveShards clamps it to the
// split [0,4)|[4,8)|[8,12) — the M=4 cells pin that over-sharded configs
// stay bit-identical while materializing no empty tail shard (no goroutine,
// no Result.Shards entry).
const shardedChunk = 4

func shardedMut(m int) func(*Config) {
	return func(cfg *Config) { cfg.MasterShards = m }
}

// compareScenarioRuns asserts run `got` is indistinguishable from `ref` in
// every runtime-independent observable. wall also compares the virtual
// decode walls (sim vs sim only; live walls are real time).
func compareScenarioRuns(t *testing.T, label string, got, ref scenarioRun, wall bool) {
	t.Helper()
	if len(got.res.Iters) != len(ref.res.Iters) {
		t.Fatalf("%s completed %d iterations, reference %d", label, len(got.res.Iters), len(ref.res.Iters))
	}
	for i, it := range got.res.Iters {
		want := ref.res.Iters[i]
		// The NaN Loss sentinel compares unequal to itself; neutralize it so
		// struct equality checks the rest. Live timings and measured wire
		// bytes are real observations, so they are excluded like the
		// unsharded suite excludes them.
		it.Loss, want.Loss = 0, 0
		if !wall {
			it.Wall, want.Wall = 0, 0
			it.Comm, want.Comm = 0, 0
			it.WireBytesIn, want.WireBytesIn = 0, 0
			it.WireBytesOut, want.WireBytesOut = 0, 0
		}
		if it != want {
			t.Errorf("%s iter %d: stats %+v, reference %+v", label, i, it, want)
		}
	}
	if d := vecmath.MaxAbsDiff(got.res.FinalW, ref.res.FinalW); d != 0 {
		t.Errorf("%s final weights differ from reference by %v", label, d)
	}
	if gotTr, wantTr := strings.Join(got.events, "\n"), strings.Join(ref.events, "\n"); gotTr != wantTr {
		t.Errorf("%s fault-event trace:\n%s\nreference saw:\n%s", label, gotTr, wantTr)
	}
}

// TestShardedMasterConformance runs the scenario matrix sharded: sim at
// M ∈ {1, 2, 4} against the unsharded sim reference, and the live/tcp
// runtimes at M ∈ {2, 4} (M=1 never engages the shard group — the
// MasterShards > 1 gate — so its live behaviour IS the unsharded suite's).
func TestShardedMasterConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("staggered live runs sleep real time")
	}
	comm := CommOptions{Chunk: shardedChunk}
	for _, name := range faults.Names() {
		for _, pipelined := range []bool{false, true} {
			name, pipelined := name, pipelined
			mode := "barrier"
			if pipelined {
				mode = "pipelined"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				ref := runScenarioCfg(t, name, pipelined, comm, nil, nil)
				if len(ref.res.Iters) != scenarioIters {
					t.Fatalf("unsharded sim completed %d iterations, want %d", len(ref.res.Iters), scenarioIters)
				}
				for _, m := range []int{1, 2, 4} {
					got := runScenarioCfg(t, name, pipelined, comm, shardedMut(m), nil)
					compareScenarioRuns(t, fmt.Sprintf("sim/M=%d", m), got, ref, true)
					if m > 1 {
						checkShardStats(t, fmt.Sprintf("sim/M=%d", m), got.res, m, shardedChunk)
					}
				}
				for _, m := range []int{2, 4} {
					for _, rt := range scenarioRuntimes() {
						label := fmt.Sprintf("%s/M=%d", rt.name, m)
						got := runScenarioCfg(t, name, pipelined, comm, shardedMut(m), rt.run)
						compareScenarioRuns(t, label, got, ref, false)
						checkShardStats(t, label, got.res, m, shardedChunk)
					}
				}
			})
		}
	}
}

// checkShardStats validates the Result.Shards invariants: one entry per
// effective shard (the configured count clamped to the model's wire-chunk
// count — empty tail shards are never materialized), ranges partitioning
// [0, dim).
func checkShardStats(t *testing.T, label string, res *Result, m, chunk int) {
	t.Helper()
	if len(res.Shards) == 0 {
		t.Fatalf("%s: Result.Shards is empty", label)
	}
	dim := res.Shards[len(res.Shards)-1].Hi
	want := effectiveShards(dim, m, chunk)
	if len(res.Shards) != want {
		t.Fatalf("%s: Result.Shards has %d entries, want %d (M=%d clamped to the chunk count)", label, len(res.Shards), want, m)
	}
	at := 0
	for s, st := range res.Shards {
		if st.Shard != s || st.Lo != at || st.Hi < st.Lo {
			t.Fatalf("%s: shard %d range [%d,%d) does not continue partition at %d", label, s, st.Lo, st.Hi, at)
		}
		at = st.Hi
	}
}

// TestShardedGoldenTraces replays every scenario golden with a sharded
// master: the full event trace — arrival order, counted marks, decode walls,
// gradient norms — must match the unsharded golden files byte for byte.
func TestShardedGoldenTraces(t *testing.T) {
	for _, name := range faults.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, m := range []int{2, 4} {
				got := goldenTrace(t, name, func(cfg *Config) {
					cfg.MasterShards = m
					cfg.Comm = CommOptions{Chunk: shardedChunk}
				})
				path := filepath.Join("testdata", "scenario_"+name+".golden")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file: %v", err)
				}
				if got != string(want) {
					t.Fatalf("M=%d trace drifted from %s:\n--- got ---\n%s--- want ---\n%s", m, path, got, want)
				}
			}
		})
	}
}

// TestShardedLossyCodecsBitExact pins the sharded tcp master under the lossy
// payload codecs (topk, f32): it must produce exactly the unsharded
// runtime's weights, and — since every reply travels the one worker
// connection in the run's codec whatever the shard count — a drained run's
// measured ingress and broadcast bytes must equal the unsharded run's byte
// for byte.
func TestShardedLossyCodecsBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp run sleeps real time")
	}
	for _, payload := range []string{"topk", "f32"} {
		payload := payload
		t.Run(payload, func(t *testing.T) {
			t.Parallel()
			opts := LiveOptions{TimeScale: 1e-6, Timeout: 60 * time.Second, TCP: true, Codec: "wire", Drain: true}
			run := func(shards int) *Result {
				cfg, _ := buildRunDim(t, "bcc", 8, 8, 4, 3, 408, Zero{}, 64)
				cfg.Comm = CommOptions{Payload: payload, Chunk: 8}
				if payload == "topk" {
					cfg.Comm.TopK = 16
				}
				cfg.MasterShards = shards
				res, err := RunLive(cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref, sharded := run(0), run(2)
			if d := vecmath.MaxAbsDiff(sharded.FinalW, ref.FinalW); d != 0 {
				t.Fatalf("%s: sharded weights differ from unsharded by %v", payload, d)
			}
			if sharded.TotalWireIn != ref.TotalWireIn {
				t.Fatalf("%s: sharded run read %d wire bytes, unsharded %d", payload, sharded.TotalWireIn, ref.TotalWireIn)
			}
			if sharded.TotalWireOut != ref.TotalWireOut || ref.TotalWireOut == 0 {
				t.Fatalf("%s: sharded run broadcast %d wire bytes, unsharded %d", payload, sharded.TotalWireOut, ref.TotalWireOut)
			}
			checkShardStats(t, payload+"/M=2", sharded, 2, 8)
		})
	}
}

// TestShardedEngineNoGoroutineLeaks exercises the shard group's teardown on
// the abnormal exit paths — context cancellation mid-run and fail-fast
// degradation — and requires the process goroutine count to settle back to
// its baseline: neither shard loops nor connection readers may outlive the
// run.
func TestShardedEngineNoGoroutineLeaks(t *testing.T) {
	settle := func(baseline int) bool {
		for i := 0; i < 50; i++ {
			if runtime.NumGoroutine() <= baseline {
				return true
			}
			time.Sleep(20 * time.Millisecond)
		}
		return false
	}
	t.Run("cancel", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		cfg, _ := buildRun(t, "bcc", 8, 8, 4, 1000, 409, Fixed{PerPoint: 1e-4})
		cfg.Comm = CommOptions{Chunk: shardedChunk}
		cfg.MasterShards = 4
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		_, err := RunLiveContext(ctx, cfg, LiveOptions{TimeScale: 1e-3, Timeout: 30 * time.Second, TCP: true})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !settle(baseline) {
			t.Fatalf("goroutines did not settle after cancel: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
	})
	t.Run("degrade", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		cfg, _ := buildRun(t, "bcc", 8, 8, 4, 6, 410, Zero{})
		cfg.Comm = CommOptions{Chunk: shardedChunk}
		cfg.MasterShards = 2
		plan := &faults.Plan{N: 8}
		for w := 0; w < 7; w++ {
			plan.Crashes = append(plan.Crashes, faults.Crash{Worker: w, At: 2})
		}
		cfg.Faults = plan
		_, err := RunLive(cfg, LiveOptions{TimeScale: 1e-6, Timeout: 30 * time.Second, TCP: true})
		if !errors.Is(err, ErrBelowThreshold) {
			t.Fatalf("err = %v, want ErrBelowThreshold", err)
		}
		if !settle(baseline) {
			t.Fatalf("goroutines did not settle after degradation: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
	})
}

// TestShardedFallbackSerial pins the documented silent fallback: a scheme
// whose decoder lacks DecodeSliceInto capability is impossible to construct
// here (all registry decoders implement it), so the fallback is pinned via
// an optimizer without UpdateSlice — the run must succeed, match the serial
// result exactly, and record no shard stats.
func TestShardedFallbackSerial(t *testing.T) {
	run := func(shards int) *Result {
		cfg, _ := buildRun(t, "bcc", 8, 8, 4, 4, 411, Zero{})
		cfg.Comm = CommOptions{Chunk: shardedChunk}
		cfg.MasterShards = shards
		cfg.Opt = scalarOnlyOptimizer{cfg.Opt}
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref, got := run(0), run(4)
	if d := vecmath.MaxAbsDiff(got.FinalW, ref.FinalW); d != 0 {
		t.Fatalf("fallback weights differ by %v", d)
	}
	if len(got.Shards) != 0 {
		t.Fatalf("fallback run recorded %d shard stats, want none", len(got.Shards))
	}
}

// scalarOnlyOptimizer hides the SliceUpdater capability of the wrapped
// optimizer, leaving only the plain Optimizer interface.
type scalarOnlyOptimizer struct{ inner optimize.Optimizer }

func (o scalarOnlyOptimizer) Query() []float64      { return o.inner.Query() }
func (o scalarOnlyOptimizer) Update(grad []float64) { o.inner.Update(grad) }
func (o scalarOnlyOptimizer) Iterate() []float64    { return o.inner.Iterate() }
func (o scalarOnlyOptimizer) Step() int             { return o.inner.Step() }

// TestShardBounds pins the shard-map construction: chunk-aligned contiguous
// boundaries, balanced in whole chunks, clamped to dim, with empty tail
// shards when shards exceed chunks.
func TestShardBounds(t *testing.T) {
	cases := []struct {
		dim, shards, chunk int
		want               []int
	}{
		{12, 2, 4, []int{0, 8, 12}},
		{12, 4, 4, []int{0, 4, 8, 12, 12}},
		{12, 1, 4, []int{0, 12}},
		{12, 2, 512, []int{0, 12, 12}},
		{1024, 4, 512, []int{0, 512, 1024, 1024, 1024}},
		{257, 3, 1, []int{0, 86, 172, 257}},
		{0, 2, 4, []int{0, 0, 0}},
	}
	for _, c := range cases {
		got := shardBounds(c.dim, c.shards, c.chunk)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("shardBounds(%d,%d,%d) = %v, want %v", c.dim, c.shards, c.chunk, got, c.want)
		}
		for i := 0; i+1 < len(got); i++ {
			if got[i] > got[i+1] {
				t.Errorf("shardBounds(%d,%d,%d) not monotone: %v", c.dim, c.shards, c.chunk, got)
			}
		}
	}
}

// TestSimZeroAllocsSharded extends the zero-alloc invariant to the sharded
// engine: with MasterShards set, a steady-state sim iteration still performs
// zero heap allocations per worker message — dispatch is two channel
// operations per shard and the slice decode/update paths reuse the same
// buffers the serial path does.
func TestSimZeroAllocsSharded(t *testing.T) {
	const shortIters, longIters = 2, 10
	mk := func(iters int) (*Config, *simTransport) {
		cfg, _ := buildRun(t, "bcc", 8, 8, 2, iters, 77, Zero{})
		cfg.Comm = CommOptions{Chunk: shardedChunk}
		cfg.MasterShards = 4
		return cfg, newSimTransport(cfg)
	}
	cfgShort, trShort := mk(shortIters)
	cfgLong, trLong := mk(longIters)
	run := func(cfg *Config, tr *simTransport) {
		if _, err := RunTransport(cfg, tr); err != nil {
			t.Fatal(err)
		}
	}
	run(cfgShort, trShort)
	run(cfgLong, trLong)
	short := testing.AllocsPerRun(10, func() { run(cfgShort, trShort) })
	long := testing.AllocsPerRun(10, func() { run(cfgLong, trLong) })
	if long > short {
		_, n, _ := cfgLong.Plan.Params()
		extraMsgs := float64((longIters - shortIters) * n)
		t.Fatalf("sharded steady-state iterations allocate: %.1f allocs for %d iterations vs %.1f for %d (%.3f allocs per worker message, want 0)",
			long, longIters, short, shortIters, (long-short)/extraMsgs)
	}
}

// TestShardedValidation pins MasterShards validation and that a sharded
// config converges like an unsharded one end to end (weights finite and
// loss-reducing is already covered by conformance; this is the config
// surface).
func TestShardedValidation(t *testing.T) {
	cfg, _ := buildRun(t, "bcc", 8, 8, 4, 2, 412, Zero{})
	cfg.MasterShards = -1
	if _, err := RunSim(cfg); err == nil || !strings.Contains(err.Error(), "MasterShards") {
		t.Fatalf("negative MasterShards accepted: %v", err)
	}
	cfg.MasterShards = 64 // more shards than chunks: empty tails, still exact
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.FinalW {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatal("sharded run produced non-finite weights")
		}
	}
}
