package wire

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"bcc/internal/rngutil"
)

// refSelect is the obviously-correct top-k reference: order every index by
// (|v| descending, index ascending) and keep the first k, returned ascending.
func refSelect(v []float64, k int) []int32 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		av, bv := math.Abs(v[idx[a]]), math.Abs(v[idx[b]])
		if av != bv {
			return av > bv
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	kept := make([]int32, k)
	for i := 0; i < k; i++ {
		kept[i] = int32(idx[i])
	}
	sort.Slice(kept, func(a, b int) bool { return kept[a] < kept[b] })
	return kept
}

// TestSelectKeepsKLargest is the top-k correctness property: against random
// vectors of many shapes, the heap-based Select must keep exactly the K
// largest-magnitude coordinates, with ties broken toward the lower index,
// and return them in ascending index order.
func TestSelectKeepsKLargest(t *testing.T) {
	rng := rngutil.New(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		k := rng.Intn(n + 2) // occasionally k > n
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(4) {
			case 0:
				v[i] = 0 // mass ties at zero
			case 1:
				v[i] = float64(rng.Intn(3)) - 1 // ties at ±1
			default:
				v[i] = rng.Normal()
			}
		}
		coder := NewVecCoder(PayloadConfig{Codec: PayloadTopK, TopK: k})
		got := coder.Select(v)
		want := refSelect(v, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d k=%d): kept %d indices, want %d\nv=%v", trial, n, k, len(got), len(want), v)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): kept %v, want %v\nv=%v", trial, n, k, got, want, v)
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("trial %d: indices not strictly ascending: %v", trial, got)
			}
		}
	}
}

// TestSelectTieBreakDeterministic pins the tie rule on hand-built vectors:
// equal magnitudes keep the LOWER index, signs are irrelevant.
func TestSelectTieBreakDeterministic(t *testing.T) {
	cases := []struct {
		v    []float64
		k    int
		want []int32
	}{
		{[]float64{1, -1, 1, 1}, 2, []int32{0, 1}},
		{[]float64{2, -1, 1, -2}, 2, []int32{0, 3}},
		{[]float64{0, 0, 0}, 2, []int32{0, 1}},
		{[]float64{-3, 5, 3}, 2, []int32{0, 1}}, // |−3| ties |3| → index 0
		{[]float64{1, 2, 3}, 0, []int32{}},
		{[]float64{1, 2}, 5, []int32{0, 1}}, // k > n keeps everything
	}
	for ci, tc := range cases {
		coder := NewVecCoder(PayloadConfig{Codec: PayloadTopK, TopK: tc.k})
		got := coder.Select(tc.v)
		if len(got) != len(tc.want) {
			t.Fatalf("case %d: kept %v, want %v", ci, got, tc.want)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("case %d: kept %v, want %v", ci, got, tc.want)
			}
		}
	}
}

// TestF32RoundTripULPBound bounds the f32 quantization error: for values in
// float32's normal range the round trip is correct to half a ULP, i.e. a
// relative error of at most 2^-24.
func TestF32RoundTripULPBound(t *testing.T) {
	rng := rngutil.New(8)
	const relBound = 1.0 / (1 << 24)
	check := func(x float64) {
		t.Helper()
		q := float64(float32(x))
		if x == 0 {
			if q != 0 {
				t.Fatalf("0 quantized to %v", q)
			}
			return
		}
		if rel := math.Abs(q-x) / math.Abs(x); rel > relBound {
			t.Fatalf("f32(%v) = %v: relative error %v exceeds 2^-24", x, q, rel)
		}
	}
	for i := 0; i < 1000; i++ {
		check(rng.Normal() * math.Pow(10, float64(rng.Intn(20)-10)))
	}
	for _, x := range []float64{1.0 / 3, math.Pi, 1e30, -1e-30, math.MaxFloat32 / 2} {
		check(x)
	}
	// QuantizeF32 must implement exactly that rounding, elementwise, and be
	// idempotent (the fixed point is float32-representable values).
	v := []float64{1.0 / 3, -math.Pi, 0, 1e20}
	q := append([]float64(nil), v...)
	QuantizeF32(q)
	for i := range v {
		if q[i] != float64(float32(v[i])) {
			t.Fatalf("QuantizeF32[%d] = %v, want %v", i, q[i], float64(float32(v[i])))
		}
	}
	again := append([]float64(nil), q...)
	QuantizeF32(again)
	for i := range q {
		if math.Float64bits(again[i]) != math.Float64bits(q[i]) {
			t.Fatalf("QuantizeF32 not idempotent at %d: %v -> %v", i, q[i], again[i])
		}
	}
}

// TestVecBytes pins the modelled per-vector byte widths the latency scaling
// and Bytes accounting are built on.
func TestVecBytes(t *testing.T) {
	if got := (PayloadConfig{}).VecBytes(100); got != 800 {
		t.Fatalf("raw64 VecBytes(100) = %d", got)
	}
	if got := (PayloadConfig{Codec: PayloadF32}).VecBytes(100); got != 400 {
		t.Fatalf("f32 VecBytes(100) = %d", got)
	}
	if got := (PayloadConfig{Codec: PayloadTopK, TopK: 7}).VecBytes(100); got != 56 {
		t.Fatalf("topk VecBytes(100) = %d", got)
	}
	// effK clamps to the vector length.
	if got := (PayloadConfig{Codec: PayloadTopK, TopK: 7}).VecBytes(3); got != 24 {
		t.Fatalf("topk VecBytes(3) = %d", got)
	}
}

// TestApplyReplyTransforms pins the canonical in-process transform the
// non-serializing runtimes apply: f32 quantization, top-k sparsify with kept
// values quantized, nil tolerated.
func TestApplyReplyTransforms(t *testing.T) {
	f32 := NewVecCoder(PayloadConfig{Codec: PayloadF32})
	v := []float64{1.0 / 3, -math.Pi}
	f32.ApplyReply(v)
	if v[0] != float64(float32(1.0/3)) || v[1] != float64(float32(-math.Pi)) {
		t.Fatalf("f32 ApplyReply = %v", v)
	}
	f32.ApplyReply(nil) // must not panic

	topk := NewVecCoder(PayloadConfig{Codec: PayloadTopK, TopK: 2})
	w := []float64{0.1, -5, 0.3, 4}
	topk.ApplyReply(w)
	want := []float64{0, float64(float32(-5.0)), 0, float64(float32(4.0))}
	for i := range want {
		if math.Float64bits(w[i]) != math.Float64bits(want[i]) {
			t.Fatalf("topk ApplyReply = %v, want %v", w, want)
		}
	}
	topk.ApplyReply(nil)

	raw := NewVecCoder(PayloadConfig{})
	u := []float64{1.0 / 3}
	raw.ApplyReply(u)
	if u[0] != 1.0/3 {
		t.Fatalf("raw64 ApplyReply mutated the vector: %v", u)
	}

	// ApplyQuery quantizes under f32 only; topk ships queries dense.
	q1 := []float64{1.0 / 3}
	f32.ApplyQuery(q1)
	if q1[0] != float64(float32(1.0/3)) {
		t.Fatalf("f32 ApplyQuery = %v", q1)
	}
	q2 := []float64{1.0 / 3}
	topk.ApplyQuery(q2)
	if q2[0] != 1.0/3 {
		t.Fatalf("topk ApplyQuery mutated the query: %v", q2)
	}
}

// writeReplyBytes serializes one reply under the given payload config and
// returns the raw frame bytes.
func writeReplyBytes(t *testing.T, pc PayloadConfig, rep Reply) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetPayload(pc)
	if err := w.WriteReply(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChunkSizeNeverChangesBytes pins the framing contract behind the
// negotiated chunk size: chunking is staging only, so the byte stream is
// identical for every chunk size, for every codec — and a reader configured
// with a DIFFERENT chunk size still decodes it exactly.
func TestChunkSizeNeverChangesBytes(t *testing.T) {
	rng := rngutil.New(9)
	vec := make([]float64, 777) // not a multiple of any tested chunk
	for i := range vec {
		vec[i] = rng.Normal()
	}
	rep := Reply{Iter: 3, Worker: 1, Compute: 0.5, Msgs: []Msg{{From: 1, Tag: 2, Units: 1, Vec: vec}}}
	for _, codec := range []PayloadCodec{PayloadRaw64, PayloadF32, PayloadTopK} {
		ref := writeReplyBytes(t, PayloadConfig{Codec: codec, TopK: 48, Chunk: 0}, rep)
		for _, chunk := range []int{1, 7, 776, 777, 778, 1 << 15} {
			got := writeReplyBytes(t, PayloadConfig{Codec: codec, TopK: 48, Chunk: chunk}, rep)
			if !bytes.Equal(got, ref) {
				t.Fatalf("codec %v chunk %d: byte stream differs from default-chunk stream", codec, chunk)
			}
			// Cross-chunk read: reader staged at another granularity.
			r := NewReader(bytes.NewReader(got))
			r.SetPayload(PayloadConfig{Codec: codec, TopK: 48, Chunk: 1 + chunk%5})
			if k, err := r.NextKind(); err != nil || k != KindReply {
				t.Fatalf("codec %v chunk %d: NextKind = %v, %v", codec, chunk, k, err)
			}
			var dec Reply
			if err := r.ReadReplyInto(&dec, nil); err != nil {
				t.Fatalf("codec %v chunk %d: read: %v", codec, chunk, err)
			}
			// Decoded values must equal the canonical in-process transform.
			want := append([]float64(nil), vec...)
			NewVecCoder(PayloadConfig{Codec: codec, TopK: 48}).ApplyReply(want)
			checkVecEqual(t, 0, "vec", dec.Msgs[0].Vec, want)
		}
	}
}

// TestTopKDecodeRejectsMalformed pins the reader's top-k validation: indices
// out of order, repeated, out of range, or a count above the vector length
// must fail cleanly instead of scattering wild.
func TestTopKDecodeRejectsMalformed(t *testing.T) {
	pc := PayloadConfig{Codec: PayloadTopK, TopK: 2}
	base := writeReplyBytes(t, pc, Reply{Msgs: []Msg{{Units: 1, Vec: []float64{1, 2, 3, 4}}}})
	// Locate the vec body: frame is kind(1) iter(8) worker(4) compute(8)
	// nmsgs(4) from(4) tag(8) units(8) len(4) k(4) pairs...
	const pairOff = 1 + 8 + 4 + 8 + 4 + 4 + 8 + 8 + 4 + 4
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), base...)
		mutate(b)
		r := NewReader(bytes.NewReader(b))
		r.SetPayload(pc)
		if _, err := r.NextKind(); err != nil {
			return err
		}
		var rep Reply
		return r.ReadReplyInto(&rep, nil)
	}
	if err := corrupt(func(b []byte) {}); err != nil {
		t.Fatalf("unmutated frame rejected: %v", err)
	}
	// Duplicate index: second pair's index = first pair's index.
	if err := corrupt(func(b []byte) { copy(b[pairOff+8:pairOff+12], b[pairOff:pairOff+4]) }); err == nil {
		t.Fatal("duplicate top-k index accepted")
	}
	// Out-of-range index.
	if err := corrupt(func(b []byte) { b[pairOff+8] = 200 }); err == nil {
		t.Fatal("out-of-range top-k index accepted")
	}
	// k larger than the vector length.
	if err := corrupt(func(b []byte) { b[pairOff-4] = 5 }); err == nil {
		t.Fatal("topk count above vector length accepted")
	}
}
