package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeTrace replaces the old hand-rolled byte-flip loop with native
// fuzzing: the decoder must never panic on arbitrary input, and anything it
// does accept must re-encode and re-decode to the same value. Without -fuzz
// the seed corpus below runs as a plain regression test; `make chaos` runs
// the mutation engine for real.
func FuzzDecodeTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleProgram()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("NOTATRACE..."))
	f.Add(valid[:len(valid)/2])
	// A one-byte flip in the header and one in the payload, the classic
	// corruptions the old loop exercised.
	for _, i := range []int{0, len(valid) / 2, len(valid) - 1} {
		c := append([]byte{}, valid...)
		c[i] ^= 0xff
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(bytes.NewReader(data)) // must not panic
		if err != nil {
			return
		}
		// Accepted input: the decoded trace must survive a round trip.
		var out bytes.Buffer
		if err := Encode(&out, p); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		p2, err := Decode(&out)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatal("accepted trace does not round-trip bit-exactly")
		}
	})
}

// FuzzColumnBlock drives the columnar block decoder with arbitrary bytes: it
// must never panic, and any block it accepts must re-encode into a block that
// decodes to the same accesses.
func FuzzColumnBlock(f *testing.F) {
	f.Add(appendBlock(nil, randomAccesses(500, 1)))
	f.Add(appendBlock(nil, stencilAccesses(BlockAccesses)))
	f.Add(appendBlock(nil, []Access{{Op: OpFence, Scope: ScopeSys}}))
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := make([]Access, BlockAccesses)
		accs, err := decodeBlock(data, buf) // must not panic
		if err != nil {
			return
		}
		re := appendBlock(nil, accs)
		got, err := decodeBlock(re, make([]Access, BlockAccesses))
		if err != nil {
			t.Fatalf("accepted block does not re-encode: %v", err)
		}
		if !reflect.DeepEqual(accs, got) {
			t.Fatal("accepted block does not round-trip")
		}
	})
}
