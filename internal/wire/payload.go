package wire

import (
	"fmt"
	"math"
	"slices"
)

// PayloadCodec selects how vector payloads are represented on the wire and,
// for the lossy codecs, the canonical in-process transform every runtime
// applies so results stay bit-identical whether or not bytes actually cross
// a socket.
//
// The three codecs:
//
//   - PayloadRaw64: today's format — dense little-endian float64 words,
//     bit-exact, the default.
//   - PayloadF32: dense float32 words. The canonical transform rounds each
//     element to float32 and widens back (float64(float32(v))), so a wire
//     round trip reproduces the in-process transform exactly.
//   - PayloadTopK: the K largest-|v| coordinates as sorted index+value
//     pairs (u32 index, f32 value); all other coordinates decode to zero.
//     Selection happens on the raw float64 magnitudes BEFORE float32
//     rounding, with ties broken toward the lower index, so every runtime
//     keeps the same set.
//
// Queries (model broadcasts) are only ever dense: PayloadF32 quantizes them,
// PayloadTopK leaves them raw64 (sparsifying the iterate would change the
// algorithm, not just the gradient message).
type PayloadCodec uint8

// Payload codecs, in wire-encoding order (the codec byte in the hello frame).
const (
	PayloadRaw64 PayloadCodec = iota
	PayloadF32
	PayloadTopK
)

// ParsePayloadCodec maps a codec name to its value. The empty string is
// PayloadRaw64 so zero-valued configs mean "uncompressed".
func ParsePayloadCodec(name string) (PayloadCodec, error) {
	switch name {
	case "", "raw64":
		return PayloadRaw64, nil
	case "f32":
		return PayloadF32, nil
	case "topk":
		return PayloadTopK, nil
	}
	return 0, fmt.Errorf("wire: unknown payload codec %q (known: %v)", name, PayloadCodecNames())
}

// PayloadCodecNames lists the recognized codec names.
func PayloadCodecNames() []string { return []string{"raw64", "f32", "topk"} }

func (c PayloadCodec) String() string {
	switch c {
	case PayloadRaw64:
		return "raw64"
	case PayloadF32:
		return "f32"
	case PayloadTopK:
		return "topk"
	}
	return fmt.Sprintf("PayloadCodec(%d)", uint8(c))
}

// DefaultChunk is the number of float64 elements staged per bulk read/write
// chunk (4 KiB at raw64 width): large enough to amortize the copy, small
// enough that per-codec scratch stays modest and a corrupt length prefix
// cannot force a huge transient buffer.
const DefaultChunk = 512

// maxChunk bounds configured chunk sizes so scratch buffers stay sane.
const maxChunk = 1 << 20

// PayloadConfig carries a codec plus its parameters. The zero value is
// raw64 with the default chunk size.
type PayloadConfig struct {
	Codec PayloadCodec
	TopK  int // coordinates kept per vector under PayloadTopK
	Chunk int // elements per framing chunk; <=0 means DefaultChunk
}

// ChunkElems returns the effective framing chunk size in elements — the
// configured Chunk normalized (<=0 becomes DefaultChunk, oversize clamped).
// Both ends of a connection must agree on it; handshake validation compares
// this normalized value so "default" and an explicit 512 match.
func (c PayloadConfig) ChunkElems() int { return c.chunkElems() }

// chunkElems returns the normalized chunk size in elements.
func (c PayloadConfig) chunkElems() int {
	if c.Chunk <= 0 {
		return DefaultChunk
	}
	if c.Chunk > maxChunk {
		return maxChunk
	}
	return c.Chunk
}

// effK is the effective number of kept coordinates for an n-element vector.
func (c PayloadConfig) effK(n int) int {
	k := c.TopK
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// VecBytes is the payload byte cost of an n-element vector under this codec,
// excluding framing prefixes — the same element-only accounting the cluster
// layer has always used for its modelled per-iteration byte counts.
func (c PayloadConfig) VecBytes(n int) int {
	switch c.Codec {
	case PayloadF32:
		return 4 * n
	case PayloadTopK:
		return 8 * c.effK(n) // u32 index + f32 value per kept coordinate
	}
	return 8 * n
}

// VecCoder applies a payload codec's canonical in-process transform. The
// runtimes that never serialize (sim, in-process channels) run payloads
// through a VecCoder so their results are bit-identical to a TCP run with
// the same codec. A VecCoder owns reusable selection scratch and is not safe
// for concurrent use; each goroutine that encodes needs its own.
type VecCoder struct {
	cfg PayloadConfig
	idx []int32 // top-k selection scratch: heap, then sorted ascending
}

// NewVecCoder returns a coder for cfg. A raw64 coder is a no-op.
func NewVecCoder(cfg PayloadConfig) *VecCoder { return &VecCoder{cfg: cfg} }

// ApplyQuery transforms a model query in place. Only PayloadF32 touches
// queries; PayloadTopK ships them dense.
func (c *VecCoder) ApplyQuery(v []float64) {
	if c != nil && c.cfg.Codec == PayloadF32 {
		QuantizeF32(v)
	}
}

// ApplyReply transforms a reply payload vector in place: quantize (f32),
// sparsify+quantize (topk), or nothing (raw64). Nil slices are fine.
func (c *VecCoder) ApplyReply(v []float64) {
	if c == nil || v == nil {
		return
	}
	switch c.cfg.Codec {
	case PayloadF32:
		QuantizeF32(v)
	case PayloadTopK:
		c.sparsify(v)
	}
}

// QuantizeF32 rounds every element to float32 precision in place. This is
// the canonical f32 transform: a wire round trip through float32 words
// decodes to exactly these values.
func QuantizeF32(v []float64) {
	for i, x := range v {
		v[i] = float64(float32(x))
	}
}

// sparsify keeps the K largest-|v| coordinates (ties → lower index),
// quantizes them to float32 precision, and zeroes the rest.
func (c *VecCoder) sparsify(v []float64) {
	k := c.cfg.effK(len(v))
	if k >= len(v) {
		QuantizeF32(v)
		return
	}
	if k == 0 {
		for i := range v {
			v[i] = 0
		}
		return
	}
	kept := c.Select(v)
	j := 0
	for i := range v {
		if j < len(kept) && kept[j] == int32(i) {
			v[i] = float64(float32(v[i]))
			j++
		} else {
			v[i] = 0
		}
	}
}

// Select returns the indices of the K largest-|v| coordinates in ascending
// index order, breaking magnitude ties toward the lower index. The returned
// slice aliases the coder's scratch and is valid until the next call.
// Selection runs on the raw float64 magnitudes so it is independent of any
// later quantization.
func (c *VecCoder) Select(v []float64) []int32 {
	k := c.cfg.effK(len(v))
	if k == 0 {
		return c.idx[:0]
	}
	if cap(c.idx) < k {
		c.idx = make([]int32, k)
	}
	h := c.idx[:k]
	for i := range h {
		h[i] = int32(i)
	}
	// Min-heap on (|v[i]|, -i): the root is the weakest kept coordinate, so
	// a later candidate replaces it only when strictly stronger (or equal
	// magnitude at a lower index — impossible for later candidates, which
	// makes ties resolve to the earlier index).
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(v, h, i)
	}
	for i := k; i < len(v); i++ {
		if keptLess(v, h[0], int32(i)) {
			h[0] = int32(i)
			siftDown(v, h, 0)
		}
	}
	slices.Sort(h)
	return h
}

// keptLess reports whether coordinate a is a weaker keep than b: smaller
// magnitude, or equal magnitude at a higher index.
func keptLess(v []float64, a, b int32) bool {
	va, vb := math.Abs(v[a]), math.Abs(v[b])
	if va != vb {
		return va < vb
	}
	return a > b
}

func siftDown(v []float64, h []int32, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && keptLess(v, h[r], h[l]) {
			m = r
		}
		if !keptLess(v, h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
