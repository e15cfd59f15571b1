package cluster

import (
	"fmt"
	"time"

	"bcc/internal/coding"
	"bcc/internal/optimize"
	"bcc/internal/vecmath"
)

// The sharded master data plane: the p-dimensional model is partitioned
// coordinate-wise into Config.MasterShards contiguous slices, each owned by
// one master shard that independently decodes its slice (via
// coding.SliceDecoder) and applies the optimizer update on its slice (via
// optimize.SliceUpdater), while a thin coordinator (the engine loop) keeps
// the O(n) control plane centralized: arrival counting,
// threshold/MinResponders decisions, fault bookkeeping and Observer
// callbacks.
//
// Slice-ownership rules:
//
//   - Shard boundaries are contiguous, fixed for the whole run, and aligned
//     to the comm plane's wire chunk size (CommOptions.Chunk, default 512
//     elements), so a shard's slice is always a whole number of wire chunks
//     (except the last, which takes the remainder).
//   - A shard writes ONLY grad[lo:hi] and the optimizer state of
//     coordinates [lo, hi); the coordinator owns everything else. Shards
//     share the iteration's decoder read-only — DecodeSliceInto over
//     disjoint ranges is safe by the SliceDecoder contract.
//   - The gradient norm is a sequential reduction over the full vector, so
//     the coordinator computes it serially after the shards join; the
//     optimizer's scalar state advances once per iteration via FinishStep,
//     also on the coordinator.
//
// Every per-element operation runs in the same order as the unsharded path
// (slot-order slice folds, elementwise scale and update, serial norm), so a
// sharded run is bit-for-bit identical to the unsharded engine for every
// scheme, runtime and shard count. Schemes whose decoder does not implement
// SliceDecoder, or optimizers without SliceUpdater, fall back to the serial
// finishIteration — documented, never an error.

// ShardStats are one master shard's cumulative measurements over a run,
// surfaced through ShardObserver after every iteration (and in
// Result.Shards at the end) so shard imbalance is visible without a
// profiler.
type ShardStats struct {
	// Shard is the shard index in [0, MasterShards).
	Shard int `json:"shard"`
	// Lo and Hi are the shard's coordinate range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// DecodeNs is cumulative wall time the shard spent decoding, scaling and
	// updating its slice, in nanoseconds.
	DecodeNs int64 `json:"decode_ns"`
}

// ShardObserver is the optional Observer capability for sharded runs: after
// each iteration the engine passes the cumulative per-shard stats. The slice
// is owned by the engine and valid only during the callback — copy it to
// retain. Only consulted when Config.MasterShards > 1.
type ShardObserver interface {
	OnShards(stats []ShardStats)
}

// effectiveShards clamps a configured shard count to the number of wire
// chunks the model actually splits into: more shards than chunks would only
// produce empty tail shards, whose goroutines are pure waste. Clamping is
// bit-compatible — shardBounds assigns the surplus shards empty tail
// ranges, so the non-empty prefix boundaries are identical either way.
// The shard group and CommOptions.MaxShards both derive the count through
// this helper so they agree.
func effectiveShards(dim, shards, chunk int) int {
	if shards < 1 {
		shards = 1
	}
	if chunk <= 0 {
		chunk = 1
	}
	nChunks := (dim + chunk - 1) / chunk
	if nChunks < 1 {
		nChunks = 1
	}
	if shards > nChunks {
		return nChunks
	}
	return shards
}

// shardBounds partitions [0, dim) into `shards` contiguous ranges aligned to
// the wire chunk size: whole chunks are distributed as evenly as possible
// (earlier shards take the extra chunk), and the final boundary is clamped
// to dim. With more shards than chunks the tail shards own empty ranges —
// callers avoid materializing those by clamping the count through
// effectiveShards first (and core.Spec validation rejects over-sharded
// specs outright). Returns shards+1 boundaries.
func shardBounds(dim, shards, chunk int) []int {
	if chunk <= 0 {
		chunk = 1
	}
	nChunks := (dim + chunk - 1) / chunk
	bounds := make([]int, shards+1)
	base, extra := nChunks/shards, nChunks%shards
	at := 0
	for s := 0; s < shards; s++ {
		bounds[s] = at * chunk
		if bounds[s] > dim {
			bounds[s] = dim
		}
		at += base
		if s < extra {
			at++
		}
	}
	bounds[shards] = dim
	return bounds
}

// masterShards runs Config.MasterShards persistent shard goroutines for one
// engine run. The coordinator (engine loop) dispatches one iteration at a
// time: every shard concurrently decodes, scales and updates its own slice,
// then the coordinator joins them, computes the serial gradient norm and
// advances the optimizer's scalar state. Dispatch is two channel operations
// and a WaitGroup per iteration — no allocations in steady state, so the
// zero-alloc invariant of the unsharded engine carries over.
type masterShards struct {
	dec    coding.SliceDecoder
	opt    optimize.SliceUpdater
	grad   []float64
	bounds []int
	scale  float64 // 1/NumExamples, the gradient normalization

	work []chan struct{}
	done chan int // shard index, one per completed dispatch
	quit chan struct{}
	errs []error

	stats []ShardStats
	so    ShardObserver // non-nil when the observer wants shard stats
}

// newMasterShards builds the shard group for a run, or returns nil when the
// decoder or optimizer lacks the slice capability — the engine then uses the
// serial path (the documented fallback; results are identical either way).
func newMasterShards(cfg *Config, dec coding.Decoder, grad []float64) *masterShards {
	sd, ok := dec.(coding.SliceDecoder)
	if !ok {
		return nil
	}
	su, ok := cfg.Opt.(optimize.SliceUpdater)
	if !ok {
		return nil
	}
	dim := cfg.Model.Dim()
	chunk := cfg.comm().pc.ChunkElems()
	m := effectiveShards(dim, cfg.MasterShards, chunk)
	ms := &masterShards{
		dec:    sd,
		opt:    su,
		grad:   grad,
		bounds: shardBounds(dim, m, chunk),
		scale:  1 / float64(cfg.Model.NumExamples()),
		work:   make([]chan struct{}, m),
		done:   make(chan int, m),
		quit:   make(chan struct{}),
		errs:   make([]error, m),
		stats:  make([]ShardStats, m),
	}
	ms.so, _ = cfg.Observer.(ShardObserver)
	for s := 0; s < m; s++ {
		ms.work[s] = make(chan struct{}, 1)
		ms.stats[s] = ShardStats{Shard: s, Lo: ms.bounds[s], Hi: ms.bounds[s+1]}
		go ms.shardLoop(s)
	}
	return ms
}

// shardLoop is one shard's goroutine: wait for a dispatch, decode + scale +
// update the owned slice, report done. It exits when stop closes quit.
func (ms *masterShards) shardLoop(s int) {
	lo, hi := ms.bounds[s], ms.bounds[s+1]
	for {
		select {
		case <-ms.quit:
			return
		case <-ms.work[s]:
		}
		start := time.Now()
		err := ms.dec.DecodeSliceInto(ms.grad, lo, hi)
		if err == nil {
			for i := lo; i < hi; i++ {
				ms.grad[i] *= ms.scale
			}
			ms.opt.UpdateSlice(ms.grad, lo, hi)
		}
		ms.errs[s] = err
		st := &ms.stats[s]
		st.DecodeNs += time.Since(start).Nanoseconds()
		ms.done <- s
	}
}

// finishIteration is the sharded counterpart of finishIteration: dispatch
// every shard, join, then finish the scalar tail on the coordinator. The
// decoded gradient, the optimizer state and the recorded stats are
// bit-for-bit identical to the serial path.
func (ms *masterShards) finishIteration(st *IterStats) error {
	for _, ch := range ms.work {
		ch <- struct{}{}
	}
	for range ms.work {
		<-ms.done
	}
	for s, err := range ms.errs {
		if err != nil {
			return fmt.Errorf("cluster: master shard %d [%d,%d): %w", s, ms.bounds[s], ms.bounds[s+1], err)
		}
	}
	ms.opt.FinishStep()
	st.WorkersHeard = ms.dec.WorkersHeard()
	st.Units = ms.dec.UnitsReceived()
	st.GradNorm = vecmath.Norm2(ms.grad)
	if ms.so != nil {
		ms.so.OnShards(ms.stats)
	}
	return nil
}

// snapshot returns a copy of the cumulative shard stats (for Result.Shards).
func (ms *masterShards) snapshot() []ShardStats {
	out := make([]ShardStats, len(ms.stats))
	copy(out, ms.stats)
	return out
}

// stop terminates the shard goroutines. The engine defers it on every exit
// path; it must only be called with no dispatch in flight (the engine is
// single-threaded, so this holds by construction).
func (ms *masterShards) stop() { close(ms.quit) }
