package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/coding"
	"bcc/internal/faults"
	"bcc/internal/model"
	"bcc/internal/optimize"
)

// The traced run wraps the layer interfaces the engine takes from its
// caller — model.Model, coding.Plan and its Decoder, optimize.Optimizer,
// cluster.Latency and cluster.Observer — and records a span around every
// call into them. The wrappers live here, in the benchmark, so nothing
// inside the program changes. Spans are kept in memory and written out when
// the run ends.

// spanKind names the boundary a span was recorded at.
type spanKind uint8

const (
	kQuery     spanKind = iota // optimize.Optimizer.Query (engine)
	kUpdate                    // optimize.Optimizer.Update / UpdateSlice / FinishStep (engine)
	kGrad                      // model.Model.SubsetGradient (workers)
	kEncode                    // coding.Plan.EncodeInto (workers)
	kOffer                     // coding.Decoder.Offer (engine)
	kDecode                    // coding.Decoder.DecodeInto / DecodeSliceInto (engine)
	kCompute                   // instant: cluster.Latency.Compute, right before a worker's gradients
	kReply                     // a worker's encode returned until the master offered its message
	kDecodable                 // instant: the offer that made the iteration decodable returned
	kIterEnd                   // instant: cluster.Observer.OnIteration
	kRun                       // the Run call until the first Query (transport setup)
	kNewJob                    // core.NewJob
)

var kindNames = [...]string{"query", "update", "grad", "encode", "offer", "decode", "compute", "reply", "decodable", "iter_end", "run_setup", "newjob"}

// span is one recorded interval; instants have start == end. Times are
// nanoseconds since the tracer's epoch; iter is -1 where the boundary does
// not know the iteration, who is the worker index or -1 for the master.
type span struct {
	start, end int64
	iter       int32
	who        int32
	kind       spanKind
}

// tracer collects the spans of one traced job. Engine-side hooks (query,
// offer, decode, update, observer) run on the engine goroutine one at a time;
// worker-side hooks (gradient, encode, compute) run concurrently, so the span
// log is guarded by mu and the per-worker encode stamps are atomics.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	encodeEnd []atomic.Int64 // per worker: when its last EncodeInto returned

	// Engine-goroutine state.
	iter      int32  // current iteration (index of the last Query)
	offered   []bool // per worker: already offered this iteration
	decodable bool
}

func newTracer(workers int, epoch time.Time) *tracer {
	return &tracer{
		epoch:     epoch,
		encodeEnd: make([]atomic.Int64, workers),
		offered:   make([]bool, workers),
		iter:      -1,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) master(kind spanKind, start int64) {
	t.add(span{start: start, end: t.now(), iter: t.iter, who: -1, kind: kind})
}

// snapshot returns the spans recorded so far, sorted by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// writeSpans writes spans as tab-separated lines (kind, iter, who, start_ns,
// end_ns) to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\titer\twho\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", kindNames[s.kind], s.iter, s.who, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// Capability-preserving wrappers
// ---------------------------------------------------------------------------
//
// The engine type-asserts optional capabilities on what it is given
// (Retunable and MinResponders on plans, SliceDecoder and ParallelDecoder on
// decoders, SliceUpdater and Snapshotter on optimizers). A wrapper that hid
// one would send the traced run down another code path, so each wrapper
// comes in the variants whose capability sets the repository's schemes and
// optimizers have, and runJob refuses a wrapper whose set differs from what
// it wraps — as it would for a combination no variant covers.

type minResponder interface{ MinResponders() int }

func implements[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

// capabilities lists the optional interfaces v implements.
func capabilities(v any) []string {
	var out []string
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"Retunable", implements[coding.Retunable](v)},
		{"MinResponders", implements[minResponder](v)},
		{"SliceDecoder", implements[coding.SliceDecoder](v)},
		{"ParallelDecoder", implements[coding.ParallelDecoder](v)},
		{"SliceUpdater", implements[optimize.SliceUpdater](v)},
		{"Snapshotter", implements[optimize.Snapshotter](v)},
	} {
		if c.ok {
			out = append(out, c.name)
		}
	}
	return out
}

func sameCapabilities(inner, outer any) error {
	a, b := capabilities(inner), capabilities(outer)
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("wrapper of %T exposes %v, wrapped value exposes %v", inner, b, a)
	}
	return nil
}

// --- model ---

type tracedModel struct {
	model.Model
	t *tracer
}

func (m tracedModel) SubsetGradient(w []float64, rows []int, out []float64) {
	start := m.t.now()
	m.Model.SubsetGradient(w, rows, out)
	m.t.add(span{start: start, end: m.t.now(), iter: -1, who: -1, kind: kGrad})
}

// --- latency: marks the instant a worker starts its gradients ---

type tracedLatency struct {
	cluster.Latency
	t *tracer
}

func (l tracedLatency) Compute(worker, iter, points int) float64 {
	now := l.t.now()
	l.t.add(span{start: now, end: now, iter: int32(iter), who: int32(worker), kind: kCompute})
	return l.Latency.Compute(worker, iter, points)
}

// --- plan ---

type tracedPlan struct {
	coding.Plan
	t *tracer
}

func (p tracedPlan) EncodeInto(dst []coding.Message, worker int, parts [][]float64, bufs coding.Buffers) []coding.Message {
	start := p.t.now()
	out := p.Plan.EncodeInto(dst, worker, parts, bufs)
	end := p.t.now()
	p.t.encodeEnd[worker].Store(end)
	p.t.add(span{start: start, end: end, iter: -1, who: int32(worker), kind: kEncode})
	return out
}

func (p tracedPlan) NewDecoder() coding.Decoder { return wrapDecoder(p.Plan.NewDecoder(), p.t) }

// tracedPlanMR is the variant for plans with their own MinResponders.
type tracedPlanMR struct {
	tracedPlan
	mr minResponder
}

func (p tracedPlanMR) MinResponders() int { return p.mr.MinResponders() }

// tracedPlanRT is the variant for retunable families (which also have
// MinResponders); their level views are wrapped too, since live workers
// encode through them.
type tracedPlanRT struct {
	tracedPlanMR
	rt coding.Retunable
}

func (p tracedPlanRT) MinLevel() int        { return p.rt.MinLevel() }
func (p tracedPlanRT) MaxLevel() int        { return p.rt.MaxLevel() }
func (p tracedPlanRT) Level() int           { return p.rt.Level() }
func (p tracedPlanRT) SetLevel(L int) error { return p.rt.SetLevel(L) }
func (p tracedPlanRT) AtLevel(L int) (coding.Plan, error) {
	lp, err := p.rt.AtLevel(L)
	if err != nil {
		return nil, err
	}
	return wrapPlan(lp, p.t), nil
}

func wrapPlan(p coding.Plan, t *tracer) coding.Plan {
	base := tracedPlan{Plan: p, t: t}
	mr, isMR := p.(minResponder)
	if !isMR {
		return base
	}
	if rt, isRT := p.(coding.Retunable); isRT {
		return tracedPlanRT{tracedPlanMR{base, mr}, rt}
	}
	return tracedPlanMR{base, mr}
}

// --- decoder ---

type tracedDecoder struct {
	coding.Decoder
	t *tracer
}

func (d tracedDecoder) Offer(msg coding.Message) bool {
	t := d.t
	start := t.now()
	ok := d.Decoder.Offer(msg)
	end := t.now()
	t.add(span{start: start, end: end, iter: t.iter, who: int32(msg.From), kind: kOffer})
	if w := msg.From; w >= 0 && w < len(t.offered) && !t.offered[w] {
		t.offered[w] = true
		t.add(span{start: t.encodeEnd[w].Load(), end: start, iter: t.iter, who: int32(w), kind: kReply})
	}
	if ok && !t.decodable {
		t.decodable = true
		t.add(span{start: end, end: end, iter: t.iter, who: -1, kind: kDecodable})
	}
	return ok
}

func (d tracedDecoder) DecodeInto(dst []float64) error {
	start := d.t.now()
	err := d.Decoder.DecodeInto(dst)
	d.t.master(kDecode, start)
	return err
}

func (d tracedDecoder) Reset() {
	d.Decoder.Reset()
	clear(d.t.offered)
	d.t.decodable = false
}

type tracedDecoderS struct {
	tracedDecoder
	sd coding.SliceDecoder
}

// DecodeSliceInto runs on the sharded master's shard goroutines, so it
// records through add (locked) without touching engine-goroutine state.
func (d tracedDecoderS) DecodeSliceInto(dst []float64, lo, hi int) error {
	start := d.t.now()
	err := d.sd.DecodeSliceInto(dst, lo, hi)
	d.t.add(span{start: start, end: d.t.now(), iter: -1, who: -1, kind: kDecode})
	return err
}

type tracedDecoderSP struct {
	tracedDecoderS
	pd coding.ParallelDecoder
}

func (d tracedDecoderSP) SetDecodeParallelism(workers int) { d.pd.SetDecodeParallelism(workers) }

func wrapDecoder(d coding.Decoder, t *tracer) coding.Decoder {
	base := tracedDecoder{Decoder: d, t: t}
	sd, isS := d.(coding.SliceDecoder)
	if !isS {
		return base
	}
	if pd, isP := d.(coding.ParallelDecoder); isP {
		return tracedDecoderSP{tracedDecoderS{base, sd}, pd}
	}
	return tracedDecoderS{base, sd}
}

// --- optimizer ---

// tracedOpt records Query and Update spans. With t == nil it is the
// untraced probe: it records nothing but the instant of the first Query,
// which ends a job's set-up.
type tracedOpt struct {
	optimize.Optimizer
	t          *tracer
	firstQuery *int64
	epoch      time.Time
}

func (o tracedOpt) Query() []float64 {
	if o.t == nil {
		if *o.firstQuery == 0 {
			*o.firstQuery = int64(time.Since(o.epoch))
		}
		return o.Optimizer.Query()
	}
	start := o.t.now()
	if *o.firstQuery == 0 {
		*o.firstQuery = start
	}
	o.t.iter++
	q := o.Optimizer.Query()
	o.t.master(kQuery, start)
	return q
}

func (o tracedOpt) Update(grad []float64) {
	if o.t == nil {
		o.Optimizer.Update(grad)
		return
	}
	start := o.t.now()
	o.Optimizer.Update(grad)
	o.t.master(kUpdate, start)
}

// tracedOptFull is the variant for optimizers with both SliceUpdater and
// Snapshotter, as GD and Nesterov have.
type tracedOptFull struct {
	tracedOpt
	su optimize.SliceUpdater
	ss optimize.Snapshotter
}

// UpdateSlice runs on shard goroutines: locked recording only.
func (o tracedOptFull) UpdateSlice(grad []float64, lo, hi int) {
	if o.t == nil {
		o.su.UpdateSlice(grad, lo, hi)
		return
	}
	start := o.t.now()
	o.su.UpdateSlice(grad, lo, hi)
	o.t.add(span{start: start, end: o.t.now(), iter: -1, who: -1, kind: kUpdate})
}

func (o tracedOptFull) FinishStep() {
	if o.t == nil {
		o.su.FinishStep()
		return
	}
	start := o.t.now()
	o.su.FinishStep()
	o.t.master(kUpdate, start)
}

func (o tracedOptFull) Snapshot() optimize.State       { return o.ss.Snapshot() }
func (o tracedOptFull) Restore(s optimize.State) error { return o.ss.Restore(s) }

func wrapOpt(o optimize.Optimizer, t *tracer, firstQuery *int64, epoch time.Time) optimize.Optimizer {
	base := tracedOpt{Optimizer: o, t: t, firstQuery: firstQuery, epoch: epoch}
	su, isSU := o.(optimize.SliceUpdater)
	ss, isSS := o.(optimize.Snapshotter)
	if isSU && isSS {
		return tracedOptFull{base, su, ss}
	}
	return base
}

// --- observer ---

// iterClock is the observer both runs attach: it stamps every OnIteration,
// and on a traced run also records it as a span. It reaches the engine
// through cluster.MultiObserver, which keeps the job's own observer and its
// ShardObserver capability.
type iterClock struct {
	epoch  time.Time
	t      *tracer
	ends   []int64 // ns since epoch, one per completed iteration
	target float64 // gradient-norm target; 0 = none
	hit    int64   // when the target was first met, ns since epoch
}

func (c *iterClock) OnIteration(st cluster.IterStats) {
	now := int64(time.Since(c.epoch))
	c.ends = append(c.ends, now)
	if c.target > 0 && c.hit == 0 && st.GradNorm <= c.target {
		c.hit = now
	}
	if c.t != nil {
		c.t.add(span{start: now, end: now, iter: int32(st.Iter), who: -1, kind: kIterEnd})
	}
}

func (c *iterClock) OnDecode(cluster.DecodeEvent) {}
func (c *iterClock) OnWorkerFault(faults.Event)   {}
func (c *iterClock) OnRunEnd(*cluster.Result)     {}
