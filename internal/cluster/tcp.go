package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bcc/internal/wire"
)

// The TCP fabric runs the identical master/worker protocol over real
// loopback sockets — the messages genuinely leave the process boundary
// through the kernel's TCP stack. It backs both the in-process
// RunLive(..., TCP: true) mode and the multi-process cmd/bcccluster tool.
// Every connection speaks the wire package's binary frames (wireCodec). The
// first frame a worker sends is a wire.Hello carrying its index and resolved
// comm-plane parameters — payload codec, top-K and effective chunk size —
// which the master verifies against its own before admitting the
// connection: a mismatch would silently corrupt every payload, so it is
// rejected at handshake time.

type tcpFabric struct {
	ln      net.Listener
	conns   []net.Conn
	codecs  []*wireCodec
	replies chan Reply
	alive   int
	mu      sync.Mutex
	closed  bool
	// done is closed by Close, releasing readers blocked handing a reply to
	// an engine that has stopped receiving (a cancelled or failed run).
	done chan struct{}
	// readers tracks the per-connection reader goroutines so DrainFabric can
	// wait for every worker's clean close before the master tears the
	// connections down.
	readers sync.WaitGroup
	// Measured wire traffic of the master's connections, counted at the
	// connection layer (every byte crossing the sockets, framing included).
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

// WireTotals implements wireCounter: cumulative bytes received/sent across
// all worker connections since the fabric accepted them.
func (f *tcpFabric) WireTotals() (in, out int64) {
	return f.bytesIn.Load(), f.bytesOut.Load()
}

// countingConn counts every byte crossing a master-side connection into the
// fabric's totals. Wrapping the conn (rather than instrumenting codecs) means
// the count is the genuine wire traffic: frame headers, handshakes and
// payloads alike.
type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

// CountConn wraps conn so every byte read and written is added to in and
// out. The service daemon wraps each job's accepted data-plane connections
// a second time with its fleet-level counters, so per-job fabric totals and
// fleet totals are both measured at the connection layer.
func CountConn(conn net.Conn, in, out *atomic.Int64) net.Conn {
	return countingConn{Conn: conn, in: in, out: out}
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// newTCPFabric starts a loopback listener, spawns one in-process worker
// goroutine per alive worker that dials it, and wires reader goroutines
// into the replies channel.
func newTCPFabric(cfg *Config, opts LiveOptions) (fabric, error) {
	if opts.Codec != "" && opts.Codec != "wire" {
		return nil, fmt.Errorf("cluster: unknown frame codec %q (wire is the only TCP frame format)", opts.Codec)
	}
	_, n, _ := cfg.Plan.Params()
	dead := cfg.deadSet()
	alive := n - len(dead)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: tcp listen: %w", err)
	}

	// Spawn workers that dial the listener and speak the protocol.
	addr := ln.Addr().String()
	for w := 0; w < n; w++ {
		if dead[w] {
			continue
		}
		env := WorkerEnv{
			Index:              w,
			Plan:               cfg.Plan,
			Model:              cfg.Model,
			Units:              cfg.Units,
			Latency:            cfg.latency(),
			TimeScale:          opts.TimeScale,
			Comm:               cfg.Comm,
			Faults:             cfg.Faults,
			ComputeParallelism: cfg.ComputeParallelism,
			Pipelined:          cfg.Pipelined,
		}
		go func() { _ = DialAndServeWorker(addr, env) }()
	}

	fab, err := ServeMaster(ln, n, alive, opts.Timeout, cfg.buffers(), cfg.Comm, cfg.Model.Dim())
	if err != nil {
		ln.Close()
		return nil, err
	}
	return fab, nil
}

// acceptConn accepts one connection on ln, deadline-bound when timeout > 0
// and the listener supports it (TCP listeners do; wrappers forward it), so a
// worker that never dials cannot wedge the master.
func acceptConn(ln net.Listener, timeout time.Duration) (net.Conn, error) {
	if tl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok && timeout > 0 {
		if err := tl.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	}
	return ln.Accept()
}

// readHello reads an accepted connection's handshake frame under the same
// timeout as the accept, so a peer that connects and sends nothing cannot
// wedge the master either. The deadline is cleared afterwards: the
// connection's reply reader is long-lived and blocks between iterations.
func readHello(conn net.Conn, codec *wireCodec, timeout time.Duration) (wire.Hello, error) {
	if timeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return wire.Hello{}, err
		}
	}
	h, err := codec.ReadHello()
	if err != nil {
		return wire.Hello{}, err
	}
	return h, conn.SetReadDeadline(time.Time{})
}

// acceptWorkers accepts exactly `alive` handshaking connections on ln and
// assembles the fabric around them. pool, if non-nil, backs the codecs'
// reply deserialization so gradient payloads land in recycled buffers. Each
// worker's hello must name an index in [0, n) and declare the master's comm
// plane cp — payload codec, top-K and chunk size — or the handshake fails.
func acceptWorkers(ln net.Listener, n, alive int, timeout time.Duration, pool *BufferPool, cp commPlane, dim int) (*tcpFabric, error) {
	f := &tcpFabric{ln: ln, replies: make(chan Reply, alive*4+4), alive: alive, done: make(chan struct{})}
	f.conns = make([]net.Conn, 0, alive)
	f.codecs = make([]*wireCodec, 0, alive)
	for i := 0; i < alive; i++ {
		raw, err := acceptConn(ln, timeout)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: tcp accept %d/%d: %w", i, alive, err)
		}
		conn := countingConn{Conn: raw, in: &f.bytesIn, out: &f.bytesOut}
		codec := newWireCodec(conn, pool, cp)
		hello, err := readHello(conn, codec, timeout)
		if err != nil {
			conn.Close()
			f.Close()
			return nil, fmt.Errorf("cluster: tcp handshake: %w", err)
		}
		if err := cp.checkHello(hello); err != nil {
			conn.Close()
			f.Close()
			return nil, fmt.Errorf("cluster: tcp handshake worker %d: %w", hello.Worker, err)
		}
		if hello.Worker < 0 || hello.Worker >= n {
			conn.Close()
			f.Close()
			return nil, fmt.Errorf("cluster: tcp handshake: worker index %d out of range [0,%d)", hello.Worker, n)
		}
		f.conns = append(f.conns, conn)
		f.codecs = append(f.codecs, codec)
		// Reader: stream this worker's replies into the shared channel. A
		// malformed frame ends the reader, dropping the connection's
		// replies; the iteration then decodes without them or times out.
		f.readers.Add(1)
		go func(codec *wireCodec, worker int) {
			defer f.readers.Done()
			for {
				rep, err := codec.ReadReply(worker, dim)
				if err != nil || !f.deliver(rep) {
					return
				}
			}
		}(codec, hello.Worker)
	}
	return f, nil
}

func (f *tcpFabric) Broadcast(mu ModelUpdate) error {
	for i, codec := range f.codecs {
		if err := codec.WriteModel(mu); err != nil {
			return fmt.Errorf("cluster: tcp broadcast to conn %d: %w", i, err)
		}
	}
	return nil
}

// deliver hands a reply from a connection reader to the engine, or reports
// false once the fabric is closed: nobody receives any more, and the reader
// must exit rather than block forever on a full channel.
func (f *tcpFabric) deliver(rep Reply) bool {
	select {
	case f.replies <- rep:
		return true
	case <-f.done:
		return false
	}
}

func (f *tcpFabric) Replies() <-chan Reply { return f.replies }
func (f *tcpFabric) AliveWorkers() int     { return f.alive }

// drainReaders waits (up to timeout) for every connection reader to observe
// its worker's clean close — a worker closes its side after receiving the
// shutdown broadcast — while discarding any stale replies still in flight
// so a full replies channel cannot wedge a reader. It reports whether all
// readers finished in time.
func (f *tcpFabric) drainReaders(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		f.readers.Wait()
		close(done)
	}()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case <-done:
			return true
		case rep := <-f.replies:
			// In-flight straggler replies from the final iteration: nobody
			// will decode them, drop them so their reader can exit.
			_ = rep
		case <-deadline.C:
			return false
		}
	}
}

// drainer is the optional fabric capability behind DrainFabric: waiting for
// the workers' clean close before the master tears its connections down.
type drainer interface {
	drainReaders(timeout time.Duration) bool
}

// DrainFabric performs the graceful half of fabric teardown, between the
// engine returning and Close: it (re-)broadcasts the shutdown update (best
// effort — the engine already sent one on a normal exit, but an interrupted
// caller may not have) and then waits, bounded by timeout, for every worker
// to close its side of the connection. Without the drain, Close can tear a
// socket down while the worker's last reply is still in flight, turning a
// clean shutdown into a connection reset on the worker. Fabrics without
// real connection readers (the channel fabric) drain trivially. It reports
// whether the fabric drained within the timeout.
func DrainFabric(fab Fabric, timeout time.Duration) bool {
	_ = fab.Broadcast(ModelUpdate{Iter: -1})
	if d, ok := fab.(drainer); ok {
		return d.drainReaders(timeout)
	}
	return true
}

func (f *tcpFabric) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	close(f.done)
	for _, c := range f.conns {
		_ = c.Close()
	}
	return f.ln.Close()
}

// DialAndServeWorker connects to a master at addr, performs the handshake
// and serves the worker protocol until the connection closes or the master
// sends a shutdown update. It is used by the in-process TCP runtime and by
// the out-of-process worker command.
func DialAndServeWorker(addr string, env WorkerEnv) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: worker %d dial: %w", env.Index, err)
	}
	defer conn.Close()
	dim := 0
	if env.Model != nil {
		dim = env.Model.Dim()
	}
	cp, err := env.Comm.resolve(dim)
	if err != nil {
		return fmt.Errorf("cluster: worker %d: %w", env.Index, err)
	}
	// The worker's reads are model broadcasts, not replies, so its codec
	// needs no reply pool.
	codec := newWireCodec(conn, nil, cp)
	if env.Bufs == nil && env.Model != nil {
		// A TCP worker's payloads are fully serialized by the time WriteReply
		// returns, so a small private pool recycled in the send path makes
		// the worker's steady-state encode allocation-free too.
		env.Bufs = NewBufferPool(env.Model.Dim(), 64)
	}
	if err := codec.WriteHello(cp.hello(env.Index)); err != nil {
		return fmt.Errorf("cluster: worker %d hello: %w", env.Index, err)
	}
	// A dedicated reader streams model updates into a channel so the worker
	// loop can observe fresh broadcasts mid-sleep (pipelined cancellation).
	// The codec's read and write halves are independent, so the reader
	// goroutine and the reply writes below do not race. done keeps the
	// reader from leaking on a full buffer if RunWorker exits on a send
	// error.
	updates := make(chan ModelUpdate, 16)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(updates)
		for {
			mu, err := codec.ReadModel()
			if err != nil {
				return
			}
			select {
			case updates <- mu:
			case <-done:
				return
			}
			if mu.Iter < 0 {
				return
			}
		}
	}()
	send := func(r Reply) error {
		err := codec.WriteReply(r)
		// The frame is on the wire (or the connection is broken); either way
		// the payload buffers can go back to the worker's pool.
		recycleMsgs(env.Bufs, r.Msgs)
		return err
	}
	return RunWorker(env, updates, send)
}

// ServeMaster accepts `alive` worker connections on ln and returns a fabric
// for RunWithFabric; used by cmd/bcccluster, where workers are separate
// processes, by the service daemon over leased fleet workers, and by the
// in-process TCP runtime. n is the cluster size (worker indices are
// validated against it). comm (with the model dimension dim) must match the
// CommOptions given to every worker — each handshake is verified against it.
// timeout bounds each accept and each handshake read (0 = unbounded).
//
// pool, if non-nil, backs reply deserialization: payloads land in pooled
// buffers that the engine recycles after each decode, so a long-running
// host keeps the allocation-free steady state (pass Config.Buffers() of the
// run the fabric will drive). A nil pool allocates each payload.
//
// A sharded master (Config.MasterShards > 1) takes every reply on these
// same connections: its shards split the decode and update in-process, not
// the sockets. Close on the returned fabric closes ln.
func ServeMaster(ln net.Listener, n, alive int, timeout time.Duration, pool *BufferPool, comm CommOptions, dim int) (Fabric, error) {
	cp, err := comm.resolve(dim)
	if err != nil {
		return nil, err
	}
	f, err := acceptWorkers(ln, n, alive, timeout, pool, cp, dim)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Fabric is the exported face of the master-side substrate, for callers
// (cmd/bcccluster) that manage their own listeners and then hand control to
// RunWithFabric.
type Fabric = fabric

// RunWithFabric drives the master engine over an already-connected fabric.
// The caller retains ownership of the fabric and must Close it.
func RunWithFabric(cfg *Config, fab Fabric, opts LiveOptions) (*Result, error) {
	return RunWithFabricContext(context.Background(), cfg, fab, opts)
}

// RunWithFabricContext is RunWithFabric bounded by a context: cancellation
// interrupts the master even while it blocks for replies and returns the
// completed iterations' partial Result alongside ctx.Err(). The caller
// still owns the fabric and must Close it to release worker connections.
func RunWithFabricContext(ctx context.Context, cfg *Config, fab Fabric, opts LiveOptions) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return runEngine(ctx, cfg, newLiveTransport(cfg, fab, opts))
}
