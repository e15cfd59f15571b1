package cluster

import (
	"fmt"
	"io"

	"bcc/internal/coding"
	"bcc/internal/wire"
)

// wireCodec frames one TCP connection of the fabric, master or worker side,
// in the wire package's binary format. It is NOT safe for concurrent use in
// one direction; the read and write halves are independent.
type wireCodec struct {
	w *wire.Writer
	r *wire.Reader
	// alloc supplies pooled payload buffers to ReadReplyInto; nil means
	// plain allocation.
	alloc wire.VecAlloc
	// scratch is the reusable wire-level reply frame: its Msgs backing array
	// is recycled across reads (the payload buffers inside are handed off to
	// the cluster-level Reply, which the master owns).
	scratch wire.Reply
}

// newWireCodec frames rw under the resolved comm plane cp: payloads travel
// in the codec's compact representation at its chunk size. pool, if
// non-nil, backs reply deserialization: gradient-sized payloads are read
// straight into pooled buffers (the engine recycles them post-decode), so
// the TCP master's steady-state receive path stops allocating.
func newWireCodec(rw io.ReadWriter, pool *BufferPool, cp commPlane) *wireCodec {
	c := &wireCodec{w: wire.NewWriter(rw), r: wire.NewReader(rw)}
	c.w.SetPayload(cp.pc)
	c.r.SetPayload(cp.pc)
	if pool != nil {
		dim := pool.Dim()
		c.alloc = func(n int) []float64 {
			if n != dim {
				return nil // wire falls back to a fresh allocation
			}
			return pool.Get()
		}
	}
	return c
}

func (c *wireCodec) WriteHello(h wire.Hello) error { return c.w.WriteHello(h) }

func (c *wireCodec) ReadHello() (wire.Hello, error) {
	if err := c.expect(wire.KindHello); err != nil {
		return wire.Hello{}, err
	}
	return c.r.ReadHello()
}

func (c *wireCodec) WriteModel(m ModelUpdate) error {
	return c.w.WriteModel(wire.Model{Iter: m.Iter, Level: m.Level, Query: m.Query})
}

func (c *wireCodec) ReadModel() (ModelUpdate, error) {
	if err := c.expect(wire.KindModel); err != nil {
		return ModelUpdate{}, err
	}
	m, err := c.r.ReadModel()
	return ModelUpdate{Iter: m.Iter, Level: m.Level, Query: m.Query}, err
}

func (c *wireCodec) WriteReply(r Reply) error {
	out := wire.Reply{Iter: r.Iter, Worker: r.Worker, Compute: r.Compute}
	out.Msgs = make([]wire.Msg, len(r.Msgs))
	for i, m := range r.Msgs {
		out.Msgs[i] = wire.Msg{From: m.From, Tag: m.Tag, Units: m.Units, Vec: m.Vec, Imag: m.Imag}
	}
	return c.w.WriteReply(out)
}

// ReadReply is the master's reply intake: it reads the next reply frame and
// refuses one that does not come from worker (the index the connection's
// hello announced) or whose non-nil payloads are not exactly dim elements
// (the model dimension). Callers drop the connection on any error, so a
// malformed frame never reaches the decoder.
func (c *wireCodec) ReadReply(worker, dim int) (Reply, error) {
	if err := c.expect(wire.KindReply); err != nil {
		return Reply{}, err
	}
	if err := c.r.ReadReplyInto(&c.scratch, c.alloc); err != nil {
		return Reply{}, err
	}
	in := &c.scratch
	if in.Worker != worker {
		return Reply{}, fmt.Errorf("cluster: reply from worker %d on worker %d's connection", in.Worker, worker)
	}
	rep := Reply{Iter: in.Iter, Worker: in.Worker, Compute: in.Compute}
	rep.Msgs = make([]coding.Message, len(in.Msgs))
	for i, m := range in.Msgs {
		if (m.Vec != nil && len(m.Vec) != dim) || (m.Imag != nil && len(m.Imag) != dim) {
			return Reply{}, fmt.Errorf("cluster: worker %d reply payload of %d/%d elements, want %d",
				worker, len(m.Vec), len(m.Imag), dim)
		}
		rep.Msgs[i] = coding.Message{From: m.From, Tag: m.Tag, Units: m.Units, Vec: m.Vec, Imag: m.Imag}
	}
	return rep, nil
}

func (c *wireCodec) expect(kind byte) error {
	k, err := c.r.NextKind()
	if err != nil {
		return err
	}
	if k != kind {
		return fmt.Errorf("cluster: expected frame kind %d, got %d", kind, k)
	}
	return nil
}
