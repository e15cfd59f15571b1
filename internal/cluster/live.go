package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bcc/internal/coding"
	"bcc/internal/faults"
)

// The live runtimes execute the run with real concurrent workers — one
// goroutine per worker — exchanging messages over in-process channels or
// loopback TCP sockets. Latency draws are injected as scaled sleeps, so the
// realized arrival order matches the latency model while the gradients are
// computed for real. Both fabrics are adapted to the master engine
// (engine.go) by the single liveTransport below; the master iteration logic
// itself lives in the engine, not here.

// ModelUpdate is the master-to-worker broadcast for one iteration. Iter < 0
// signals shutdown.
type ModelUpdate struct {
	Iter  int
	Query []float64
	// Level is the active redundancy level of a Retunable plan for this
	// iteration (controller.go): the worker encodes with that level's plan
	// and processes only the matching prefix of its assignment. 0 on fixed
	// plans (and treated as "use the plan's max level" defensively).
	Level int
}

// Reply is a worker-to-master transmission: the encoded messages of one
// iteration plus the worker's drawn (virtual) compute time, which the master
// uses for the paper's computation-time metric.
type Reply struct {
	Iter    int
	Worker  int
	Compute float64
	Msgs    []coding.Message
}

// LiveOptions tunes the goroutine/TCP runtimes.
type LiveOptions struct {
	// TimeScale converts virtual latency seconds into real sleep seconds
	// (default 1e-3: a 10 s virtual iteration sleeps 10 ms).
	TimeScale float64
	// Timeout aborts an iteration whose decoder starves (default 30 s).
	Timeout time.Duration
	// TCP routes all traffic through real loopback TCP sockets, framed by
	// the binary codec of internal/wire, instead of in-process channels.
	TCP bool
	// Codec names the TCP frame format: "" or "wire", the only one; any
	// other name is rejected. Ignored without TCP.
	Codec string
	// Drain makes the run end only after the fabric has drained: every
	// in-flight straggler reply frame is read off the sockets (and counted)
	// before the Result is assembled, so Result.TotalWireIn/Out are
	// reproducible run to run instead of racing the teardown. Costs waiting
	// for the last straggler's bounded sleep; measurement harnesses
	// (bccbench, the service) turn it on, interactive runs need not.
	Drain bool
}

func (o *LiveOptions) defaults() {
	if o.TimeScale <= 0 {
		o.TimeScale = 1e-3
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
}

// fabric is the communication substrate under the live transport: the pipes
// to the workers, nothing more. The master-side iteration semantics live in
// the engine; the timing/fault bookkeeping lives in liveTransport.
type fabric interface {
	Broadcast(mu ModelUpdate) error
	Replies() <-chan Reply
	// AliveWorkers returns how many workers will reply each iteration.
	AliveWorkers() int
	Close() error
}

// RunLive executes the training run with real concurrent workers over
// channels (default) or loopback TCP (opts.TCP).
func RunLive(cfg *Config, opts LiveOptions) (*Result, error) {
	return RunLiveContext(context.Background(), cfg, opts)
}

// RunLiveContext is RunLive bounded by a context: cancellation interrupts
// the master even mid-iteration (while it blocks for worker replies) and
// returns the completed iterations' partial Result alongside ctx.Err().
// Worker goroutines and TCP listeners are torn down on every exit path; a
// worker mid-sleep finishes its bounded (scaled) latency sleep and then
// exits on the closed fabric.
func RunLiveContext(ctx context.Context, cfg *Config, opts LiveOptions) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	opts.defaults()
	var fab fabric
	var err error
	if opts.TCP {
		fab, err = newTCPFabric(cfg, opts)
	} else {
		fab, err = newChanFabric(cfg, opts)
	}
	if err != nil {
		return nil, err
	}
	defer fab.Close()
	return runEngine(ctx, cfg, newLiveTransport(cfg, fab, opts))
}

// ---------------------------------------------------------------------------
// Live transport: adapts any fabric to the master engine
// ---------------------------------------------------------------------------

type liveTransport struct {
	cfg    *Config
	pool   *BufferPool
	fab    fabric
	opts   LiveOptions
	dead   map[int]bool
	drops  *dropper
	faults *faults.Plan
	n      int
	frac   float64          // payload byte width relative to raw64
	rp     coding.Retunable // non-nil on Retunable plans: broadcasts carry the level
}

func newLiveTransport(cfg *Config, fab fabric, opts LiveOptions) *liveTransport {
	opts.defaults()
	_, n, _ := cfg.Plan.Params()
	rp, _ := cfg.Plan.(coding.Retunable)
	return &liveTransport{
		rp:     rp,
		cfg:    cfg,
		pool:   cfg.buffers(),
		fab:    fab,
		opts:   opts,
		dead:   cfg.deadSet(),
		drops:  cfg.newDropper(),
		faults: cfg.Faults,
		n:      n,
		frac:   cfg.comm().frac,
	}
}

// WireTotals implements wireCounter by delegating to the fabric when its
// bytes genuinely cross sockets (the tcp fabric); the channel fabric has no
// wire, so the engine records zeros.
func (t *liveTransport) WireTotals() (in, out int64) {
	if wc, ok := t.fab.(wireCounter); ok {
		return wc.WireTotals()
	}
	return 0, 0
}

// wireDrainer is the optional transport capability the engine uses to settle
// measured wire totals before assembling a Result: block until every
// in-flight reply frame has been read off the sockets (bounded by the
// fabric's drain timeout), so straggler bytes land in the totals instead of
// racing the teardown.
type wireDrainer interface {
	DrainWire()
}

// DrainWire implements wireDrainer by draining the underlying fabric when
// LiveOptions.Drain asked for settled totals; a no-op otherwise and on
// fabrics without sockets (DrainFabric handles both).
func (t *liveTransport) DrainWire() {
	if t.opts.Drain {
		DrainFabric(t.fab, t.opts.Timeout)
	}
}

// expectedReplies counts the workers that will transmit for iteration iter:
// the fabric's alive workers minus those the fault plan has crashed.
// Partitioned and burst-dropped workers still transmit (the loss is on the
// master's side), so they stay in the count and their arrivals are
// discarded in Next.
func (t *liveTransport) expectedReplies(iter int) int {
	if t.faults == nil {
		return t.fab.AliveWorkers()
	}
	expected := 0
	for w := 0; w < t.n; w++ {
		if !t.dead[w] && t.faults.Active(w, iter) {
			expected++
		}
	}
	return expected
}

func (t *liveTransport) Traits() Traits { return Traits{} }

func (t *liveTransport) Shutdown() { _ = t.fab.Broadcast(ModelUpdate{Iter: -1}) }

func (t *liveTransport) Broadcast(ctx context.Context, iter int, query []float64) (ArrivalSource, error) {
	lost := drawDrops(t.drops, t.dead, t.n)
	mu := ModelUpdate{Iter: iter, Query: query}
	if t.rp != nil {
		// Read on the engine goroutine, after the controller's SetLevel and
		// before any worker can observe the broadcast: the level the master
		// will decode this iteration at.
		mu.Level = t.rp.Level()
	}
	if err := t.fab.Broadcast(mu); err != nil {
		return nil, err
	}
	return &liveSource{
		t:        t,
		ctx:      ctx,
		iter:     iter,
		lost:     lost,
		expected: t.expectedReplies(iter),
		start:    time.Now(),
		deadline: time.NewTimer(t.opts.Timeout),
	}, nil
}

type liveSource struct {
	t        *liveTransport
	ctx      context.Context
	iter     int
	lost     map[int]bool
	expected int
	start    time.Time
	deadline *time.Timer
	replies  int
}

func (s *liveSource) Next() (Arrival, bool, error) {
	for {
		if s.replies >= s.expected {
			// Every transmitting worker has reported (some possibly dropped).
			return Arrival{}, false, nil
		}
		select {
		case rep := <-s.t.fab.Replies():
			if rep.Iter != s.iter {
				// Stale reply from a straggler's previous round; its payload
				// buffers will never reach the decoder, so recycle them here.
				recycleMsgs(s.t.pool, rep.Msgs)
				continue
			}
			s.replies++
			if s.lost[rep.Worker] || s.t.faults.MasterDrop(rep.Worker, s.iter) {
				// Transmission lost in the network (random drop, partition
				// window or drop burst); the worker will not retransmit, but
				// its reply still counts toward the stall check above. The
				// lost payload is recycled like the wire would discard it.
				recycleMsgs(s.t.pool, rep.Msgs)
				continue
			}
			var units float64
			for _, msg := range rep.Msgs {
				units += msg.Units
			}
			if s.t.cfg.IngressPerUnit > 0 {
				// The master's NIC drains this message before the next can
				// be taken — same bottleneck the sim transport models, with
				// the drain scaled by the codec's byte fraction like the
				// transmitted bytes are.
				sleepVirtual(s.t.cfg.IngressPerUnit*units*s.t.frac, s.t.opts.TimeScale)
			}
			return Arrival{Worker: rep.Worker, Compute: rep.Compute, Units: units, Msgs: rep.Msgs}, true, nil
		case <-s.ctx.Done():
			return Arrival{}, false, s.ctx.Err()
		case <-s.deadline.C:
			return Arrival{}, false, fmt.Errorf("cluster: iteration %d timed out after %v (%d/%d replies)",
				s.iter, s.t.opts.Timeout, s.replies, s.expected)
		}
	}
}

func (s *liveSource) elapsed() float64 {
	return time.Since(s.start).Seconds() / s.t.opts.TimeScale
}

func (s *liveSource) Wall() float64     { return s.elapsed() }
func (s *liveSource) RoundEnd() float64 { return s.elapsed() }
func (s *liveSource) Finish()           { s.deadline.Stop() }

// ---------------------------------------------------------------------------
// Worker node logic (shared by the channel and TCP runtimes, and by the
// out-of-process worker in cmd/bcccluster)
// ---------------------------------------------------------------------------

// WorkerEnv is everything one worker node needs to participate in a run.
type WorkerEnv struct {
	Index int
	Plan  coding.Plan
	Model interface {
		Dim() int
		SubsetGradient(w []float64, rows []int, out []float64)
	}
	Units     [][]int
	Latency   Latency
	TimeScale float64
	// Faults, if non-nil, is the run's deterministic fault plan; must match
	// the master's Config.Faults. The worker consults it before every
	// iteration's work: while crashed it computes and transmits nothing, and
	// scheduled slowdown windows multiply its compute and upload latency.
	Faults *faults.Plan
	// Comm configures the payload codec; must match the master's
	// Config.Comm (the TCP handshake verifies this).
	Comm CommOptions
	// ComputeParallelism fans the per-example gradient computations out
	// over this many goroutines (0/1 = serial).
	ComputeParallelism int
	// Pipelined makes the worker cancel stale in-flight work the moment a
	// fresher model update arrives, instead of finishing the old iteration
	// first; must match the master's Config.Pipelined.
	Pipelined bool
	// Bufs, if non-nil, supplies the worker's message payload buffers. The
	// in-process fabrics share the run's master pool (the master recycles a
	// payload once the iteration that consumed it has decoded); the
	// out-of-process TCP worker uses a private pool whose buffers are
	// recycled by its send function right after serialization.
	Bufs *BufferPool
}

// RunWorker executes the worker protocol until a shutdown update (Iter < 0)
// or the updates channel closes: take the next pending model, sleep the
// drawn broadcast + compute latency, compute the real partial gradients,
// encode, sleep the upload latency, reply. In pipelined mode the latency
// sleeps are preemptible — a fresher update aborts the stale iteration
// immediately, and queued stale models are skipped. In barrier mode the
// worker serializes iterations and replies to EVERY query in order, even
// when it has fallen behind the master's broadcasts — the master discards
// the stale replies, exactly as the simulator models every alive worker
// computing every iteration, and the run's reply traffic stays identical
// run to run (TestShardedLossyCodecsBitExact pins this across drained
// runs). An env.Faults plan is consulted before any iteration work: crashed
// iterations are skipped entirely (no latency draws, no compute, no
// transmission — exactly what the simulator models) and slowdown windows
// stretch the latency sleeps.
func RunWorker(env WorkerEnv, updates <-chan ModelUpdate, send func(Reply) error) error {
	env.Latency = withFaultSlowdowns(env.Latency, env.Faults)
	cp, err := env.Comm.resolve(env.Model.Dim())
	if err != nil {
		return err
	}
	fullAssign := env.Plan.Assignments()[env.Index]
	points := 0
	for _, u := range fullAssign {
		points += len(env.Units[u])
	}
	// Retunable plans (the nested family): the worker pins each iteration's
	// level from the broadcast itself, via immutable per-level plan views —
	// never via the shared plan's mutable active level, which the master's
	// controller may have advanced already (the channel fabric shares the
	// plan object; pipelined workers may lag a broadcast behind).
	rp, _ := env.Plan.(coding.Retunable)
	var levelPlans []coding.Plan
	var levelPoints []int
	if rp != nil {
		levelPlans = make([]coding.Plan, rp.MaxLevel())
		for L := rp.MinLevel(); L <= rp.MaxLevel(); L++ {
			lp, err := rp.AtLevel(L)
			if err != nil {
				return err
			}
			levelPlans[L-1] = lp
		}
		levelPoints = prefixPoints(env.Plan.Assignments(), env.Units)[env.Index]
	}
	scale := env.TimeScale
	if scale <= 0 {
		scale = 1e-3
	}
	// Per-worker partial-gradient scratch, reused across iterations; message
	// payloads are drawn from env.Bufs and owned by the receiver once sent.
	var parts [][]float64
	var mu ModelUpdate
	havePending := false
	for {
		if !havePending {
			var ok bool
			mu, ok = <-updates
			if !ok {
				return nil
			}
		}
		havePending = false
		// Pipelined: skip to the most recent pending update — stale work
		// would be preempted anyway. Barrier runs process every query in
		// order and reply to each, exactly what the simulator models, so the
		// reply stream (and its measured byte total) is identical run to run.
		if env.Pipelined {
		drain:
			for {
				select {
				case next, ok := <-updates:
					if !ok {
						return nil
					}
					mu = next
				default:
					break drain
				}
			}
		}
		if mu.Iter < 0 {
			return nil
		}
		if !env.Faults.Active(env.Index, mu.Iter) {
			continue // crashed for this iteration: no work, no reply
		}
		iter := mu.Iter
		// Resolve this iteration's level view: the broadcast's level on
		// Retunable plans (0 or out-of-range defensively means max level,
		// matching the family's fixed default), the plan itself otherwise.
		encPlan, assign, pts := env.Plan, fullAssign, points
		if rp != nil {
			L := mu.Level
			if L < rp.MinLevel() || L > rp.MaxLevel() {
				L = rp.MaxLevel()
			}
			encPlan, assign, pts = levelPlans[L-1], fullAssign[:L], levelPoints[L]
		}
		if next, preempted := sleepOrPreempt(env.Latency.Broadcast(env.Index, iter), scale, updates, env.Pipelined); preempted {
			mu, havePending = next, true
			continue
		}
		comp := env.Latency.Compute(env.Index, iter, pts)
		parts = gradientPartsInto(env.Model, env.Units, assign, mu.Query, env.ComputeParallelism, parts)
		if next, preempted := sleepOrPreempt(comp, scale, updates, env.Pipelined); preempted {
			mu, havePending = next, true
			continue
		}
		// The Msgs slice itself travels inside the Reply (the channel fabric
		// hands it to the master by reference), so it cannot be reused here;
		// only the payload buffers are pooled.
		msgs := encPlan.EncodeInto(nil, env.Index, parts, env.Bufs)
		var units float64
		for _, m := range msgs {
			units += m.Units
		}
		if next, preempted := sleepOrPreempt(env.Latency.Upload(env.Index, iter, units*cp.frac), scale, updates, env.Pipelined); preempted {
			// The encoded payloads never leave this worker: recycle them, or
			// every preempted straggler would drain the pool.
			recycleMsgs(env.Bufs, msgs)
			mu, havePending = next, true
			continue
		}
		if err := send(Reply{Iter: iter, Worker: env.Index, Compute: comp, Msgs: msgs}); err != nil {
			return err
		}
	}
}

// sleepOrPreempt sleeps the scaled virtual duration. When preemptible, a
// model update arriving mid-sleep cuts it short and is handed back to the
// caller; a closed channel is reported as a shutdown update.
func sleepOrPreempt(virtualSeconds, scale float64, updates <-chan ModelUpdate, preemptible bool) (ModelUpdate, bool) {
	if virtualSeconds <= 0 {
		return ModelUpdate{}, false
	}
	d := time.Duration(virtualSeconds * scale * float64(time.Second))
	if !preemptible {
		time.Sleep(d)
		return ModelUpdate{}, false
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case mu, ok := <-updates:
		if !ok {
			return ModelUpdate{Iter: -1}, true
		}
		return mu, true
	case <-timer.C:
		return ModelUpdate{}, false
	}
}

func sleepVirtual(virtualSeconds, scale float64) {
	if virtualSeconds <= 0 {
		return
	}
	time.Sleep(time.Duration(virtualSeconds * scale * float64(time.Second)))
}

// recycleMsgs returns the payload buffers of messages that will never reach
// the decoder (dropped or stale transmissions) to the pool.
func recycleMsgs(pool *BufferPool, msgs []coding.Message) {
	for _, msg := range msgs {
		pool.Put(msg.Vec)
		pool.Put(msg.Imag)
	}
}

// ---------------------------------------------------------------------------
// In-process channel fabric
// ---------------------------------------------------------------------------

type chanFabric struct {
	inboxes []chan ModelUpdate
	replies chan Reply
	// done, closed by Close, unblocks workers still pushing backlog replies
	// after the master stopped reading (barrier workers reply to every
	// queued query, so a straggler can finish its backlog post-run).
	done  chan struct{}
	once  sync.Once
	alive int
}

func newChanFabric(cfg *Config, opts LiveOptions) (fabric, error) {
	_, n, _ := cfg.Plan.Params()
	dead := cfg.deadSet()
	pool := cfg.buffers() // created before any worker goroutine starts
	f := &chanFabric{
		inboxes: make([]chan ModelUpdate, n),
		replies: make(chan Reply, n*4),
		done:    make(chan struct{}),
		alive:   n - len(dead),
	}
	for w := 0; w < n; w++ {
		if dead[w] {
			continue
		}
		// Deep enough that the master never blocks on a straggler's inbox.
		inbox := make(chan ModelUpdate, cfg.Iterations+2)
		f.inboxes[w] = inbox
		env := WorkerEnv{
			Index:              w,
			Plan:               cfg.Plan,
			Model:              cfg.Model,
			Units:              cfg.Units,
			Latency:            cfg.latency(),
			TimeScale:          opts.TimeScale,
			Faults:             cfg.Faults,
			Comm:               cfg.Comm,
			ComputeParallelism: cfg.ComputeParallelism,
			Pipelined:          cfg.Pipelined,
			Bufs:               pool,
		}
		go func() {
			// The channel fabric's "wire boundary": the reply handoff. The
			// lossy transform is applied here, once per payload, exactly where
			// a TCP worker's serializer would apply it. Coders hold selection
			// scratch, so each worker goroutine gets its own.
			coder := cfg.comm().newCoder()
			send := func(r Reply) error {
				applyReplyCodec(coder, r.Msgs)
				select {
				case f.replies <- r:
				case <-f.done:
					// Fabric closed: nobody will read this reply. Recycle its
					// payloads like a dropped transmission; the worker exits
					// on its closed inbox.
					recycleMsgs(pool, r.Msgs)
				}
				return nil
			}
			_ = RunWorker(env, inbox, send)
		}()
	}
	return f, nil
}

func (f *chanFabric) Broadcast(mu ModelUpdate) error {
	for _, inbox := range f.inboxes {
		if inbox == nil {
			continue
		}
		inbox <- mu
	}
	return nil
}

func (f *chanFabric) Replies() <-chan Reply { return f.replies }
func (f *chanFabric) AliveWorkers() int     { return f.alive }

func (f *chanFabric) Close() error {
	f.once.Do(func() {
		close(f.done)
		for _, inbox := range f.inboxes {
			if inbox != nil {
				close(inbox)
			}
		}
	})
	return nil
}
