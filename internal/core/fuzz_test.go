package core

import (
	"bytes"
	"runtime"
	"testing"

	"bcc/internal/faults"
)

// specAllocBound caps what DecodeSpec may allocate for an input of n bytes:
// a constant plus a multiple of the input, so no value inside a spec (a
// worker count, a dimension, a fault-plan size) can make decoding allocate
// more than the bytes that carry it.
func specAllocBound(n int) uint64 { return 1<<20 + 64*uint64(n) }

// FuzzDecodeSpec feeds arbitrary bytes through the service's spec decoder:
// it must never panic, allocate at most in proportion to its input, and a
// spec that decodes must re-encode to bytes that decode to the same
// encoding, every strict prefix of which fails.
func FuzzDecodeSpec(f *testing.F) {
	for _, s := range []Spec{
		{},
		{Scheme: SchemeCyclicRep, Examples: 6, Workers: 6, Load: 3, Runtime: RuntimeTCP, Payload: PayloadTopK, TopK: 8,
			MasterShards: 2, WireChunk: 16, Dead: []int{1}, DropProb: 0.05, Pipelined: true, GradNormTol: 1e-9},
		{Scheme: SchemeNested, Examples: 8, Workers: 8, Load: 3, AdaptRedundancy: true, AdaptWindow: 2,
			Faults: &faults.Plan{N: 8, Seed: 3, Crashes: []faults.Crash{{Worker: 2, At: 5, RestartAfter: 2}}}},
	} {
		b, err := EncodeSpec(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"workers":1000000000,"examples":1000000000,"dim":1000000000}`))
	f.Add([]byte(`{"latency":{}}`))
	f.Add([]byte(`{"checkpoint_path":"/tmp/x"}`))
	f.Add([]byte(`{"dead":[1,1,1,1,1,1,1,1]}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := DecodeSpec(b)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > specAllocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d, cap %d", len(b), grew, specAllocBound(len(b)))
		}
		if err != nil {
			return
		}
		enc, err := EncodeSpec(s)
		if err != nil {
			t.Fatalf("decoded spec %+v does not re-encode: %v", s, err)
		}
		again, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", enc, err)
		}
		if enc2, err := EncodeSpec(again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoded spec %s read back as %s, %v", enc, enc2, err)
		}
		for n := 0; n < len(enc); n++ {
			if _, err := DecodeSpec(enc[:n]); err == nil {
				t.Fatalf("%d-byte prefix of a %d-byte spec accepted", n, len(enc))
			}
		}
	})
}
