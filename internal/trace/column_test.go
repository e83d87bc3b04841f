package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// randomAccesses builds a valid but structurally noisy stream: every field
// varies, so every column exercises its multi-run path.
func randomAccesses(n int, seed int64) []Access {
	rng := rand.New(rand.NewSource(seed))
	elems := []uint8{1, 2, 4, 8, 16}
	out := make([]Access, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(16) == 0 {
			out = append(out, Access{Op: OpFence, Scope: ScopeSys})
			continue
		}
		a := Access{
			Op:        Op(rng.Intn(3)),
			Scope:     Scope(rng.Intn(4)),
			Pattern:   Pattern(rng.Intn(3)),
			Threads:   uint8(1 + rng.Intn(32)),
			ElemBytes: elems[rng.Intn(len(elems))],
			Stride:    uint32(rng.Intn(1 << 20)),
			Seed:      rng.Uint32(),
			Addr:      rng.Uint64() >> 15,
		}
		if a.Pattern == PatScattered && a.Stride == 0 {
			a.Stride = 1
		}
		out = append(out, a)
	}
	return out
}

// stencilAccesses is the workload-shaped common case: constant fields,
// unit-stride addresses.
func stencilAccesses(n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = Access{
			Op: OpLoad, Scope: ScopeWeak, Pattern: PatContiguous,
			Threads: 32, ElemBytes: 4, Addr: uint64(i) * 128,
		}
	}
	return out
}

func decodeAll(t *testing.T, c *ColumnAccesses) []Access {
	t.Helper()
	var dec BlockDecoder
	var out []Access
	for i := 0; i < c.NumBlocks(); i++ {
		accs, err := dec.Decode(c, i)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		out = append(out, accs...)
	}
	return out
}

func TestColumnRoundTrip(t *testing.T) {
	for _, n := range []int{1, 63, BlockAccesses - 1, BlockAccesses, BlockAccesses + 1, 3*BlockAccesses + 17} {
		for _, mk := range []func() []Access{
			func() []Access { return randomAccesses(n, int64(n)) },
			func() []Access { return stencilAccesses(n) },
		} {
			orig := mk()
			c := EncodeColumns(orig)
			if c.Len() != n {
				t.Fatalf("n=%d: Len = %d", n, c.Len())
			}
			if got := decodeAll(t, c); !reflect.DeepEqual(got, orig) {
				t.Fatalf("n=%d: round trip diverged", n)
			}
		}
	}
	if EncodeColumns(nil) != nil {
		t.Fatal("empty stream should encode to nil")
	}
}

func TestColumnCompression(t *testing.T) {
	// The workload-shaped streams must compress far beyond the 4x the
	// acceptance bar asks for; random streams must still round-trip, however
	// badly they compress.
	n := 200_000
	c := EncodeColumns(stencilAccesses(n))
	logical := uint64(n) * 24
	if ratio := float64(logical) / float64(c.CompressedBytes()); ratio < 100 {
		t.Fatalf("stencil stream compressed only %.1fx (logical %d, compressed %d)",
			ratio, logical, c.CompressedBytes())
	}
	if c.ResidentBytes() < c.CompressedBytes() {
		t.Fatal("resident bytes below compressed bytes")
	}
}

func TestColumnSpillRoundTrip(t *testing.T) {
	orig := randomAccesses(2*BlockAccesses+100, 42)
	c := EncodeColumns(orig)
	before := c.ResidentBytes()

	sf, err := NewSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	freed, err := c.SpillTo(sf)
	if err != nil {
		t.Fatal(err)
	}
	if freed == 0 {
		t.Fatal("spill freed nothing")
	}
	if !c.Spilled() {
		t.Fatal("not marked spilled")
	}
	if after := c.ResidentBytes(); after >= before {
		t.Fatalf("resident bytes %d not reduced from %d", after, before)
	}
	if uint64(sf.Size()) != c.CompressedBytes() {
		t.Fatalf("spill file holds %d bytes, compressed is %d", sf.Size(), c.CompressedBytes())
	}
	// Re-spilling is a no-op.
	if f2, err := c.SpillTo(sf); err != nil || f2 != 0 {
		t.Fatalf("second spill: freed %d, err %v", f2, err)
	}
	if got := decodeAll(t, c); !reflect.DeepEqual(got, orig) {
		t.Fatal("spilled round trip diverged")
	}
	if sf.Reads() == 0 || sf.ReadBytes() == 0 {
		t.Fatal("spill reads not counted")
	}
}

func TestColumnSpillConcurrentReaders(t *testing.T) {
	orig := stencilAccesses(4 * BlockAccesses)
	c := EncodeColumns(orig)
	sf, err := NewSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func() {
			var dec BlockDecoder
			for r := 0; r < 20; r++ {
				for i := 0; i < c.NumBlocks(); i++ {
					if _, err := dec.Decode(c, i); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}()
	}
	// Flip to spilled mid-read: readers must stay correct either way.
	if _, err := c.SpillTo(sf); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := decodeAll(t, c); !reflect.DeepEqual(got, orig) {
		t.Fatal("post-spill decode diverged")
	}
}

func TestColumnJSONRoundTrip(t *testing.T) {
	orig := randomAccesses(BlockAccesses+5, 7)
	c := EncodeColumns(orig)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back ColumnAccesses
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := decodeAll(t, &back); !reflect.DeepEqual(got, orig) {
		t.Fatal("JSON round trip diverged")
	}
	// Spilled stores marshal identically (blocks read back from the file).
	sf, err := NewSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SpillTo(sf); err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("spilled JSON differs from resident JSON")
	}
}

func TestDecodeBlockRejectsCorrupt(t *testing.T) {
	blk := appendBlock(nil, randomAccesses(500, 3))
	buf := make([]Access, BlockAccesses)
	if _, err := decodeBlock(blk, buf); err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}
	// Truncations at every length and single-byte flips at every position
	// must error or decode to something re-encodable — never panic.
	for cut := 0; cut < len(blk); cut++ {
		if _, err := decodeBlock(blk[:cut], buf); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := 0; i < len(blk); i++ {
		c := append([]byte{}, blk...)
		c[i] ^= 0xff
		out, err := decodeBlock(c, buf)
		if err != nil {
			continue
		}
		re := appendBlock(nil, out)
		if _, err := decodeBlock(re, buf); err != nil {
			t.Fatalf("flip at %d: accepted block does not re-encode: %v", i, err)
		}
	}
	// Structural hazards.
	for name, data := range map[string][]byte{
		"empty":       {},
		"zero count":  {0},
		"huge count":  {0xff, 0xff, 0x7f},
		"no columns":  {5},
		"overrun run": {2, 0, 200},
	} {
		if _, err := decodeBlock(data, buf); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestKernelEachBlock(t *testing.T) {
	accs := randomAccesses(2*BlockAccesses+9, 11)
	col := Kernel{GPU: 0, Name: "k", Col: EncodeColumns(accs)}
	if col.NumAccesses() != len(accs) {
		t.Fatal("NumAccesses disagrees")
	}
	var dec BlockDecoder
	var got []Access
	if err := col.EachBlock(&dec, func(a []Access) bool {
		got = append(got, a...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatal("EachBlock diverged from the encoded stream")
	}
	// Early stop.
	calls := 0
	if err := col.EachBlock(&dec, func([]Access) bool { calls++; return false }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("early stop made %d calls", calls)
	}
	// A kernel without accesses yields nothing.
	var empty Kernel
	if err := empty.EachBlock(&dec, func([]Access) bool { t.Fatal("empty kernel yielded"); return true }); err != nil {
		t.Fatal(err)
	}
}

func TestColumnEncoderCountsSysWrites(t *testing.T) {
	accs := []Access{
		{Op: OpStore, Scope: ScopeSys, Threads: 1, ElemBytes: 4},
		{Op: OpAtomic, Scope: ScopeSys, Threads: 1, ElemBytes: 4},
		{Op: OpLoad, Scope: ScopeSys, Threads: 1, ElemBytes: 4},
		{Op: OpFence, Scope: ScopeSys},
		{Op: OpStore, Scope: ScopeGPU, Threads: 1, ElemBytes: 4},
	}
	c := EncodeColumns(accs)
	if c.SysWrites() != 2 {
		t.Fatalf("SysWrites = %d, want 2 (one store, one atomic)", c.SysWrites())
	}
	js, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back ColumnAccesses
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back.SysWrites() != 2 {
		t.Fatalf("SysWrites after JSON = %d, want 2", back.SysWrites())
	}
}

func TestRecordedSpill(t *testing.T) {
	rec := sampleProgram()
	sf, err := NewSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	freed, err := rec.Spill(sf)
	if err != nil {
		t.Fatal(err)
	}
	if freed == 0 {
		t.Fatal("nothing freed")
	}
	want := sampleProgram()
	for pi := range want.Ph {
		for ki := range want.Ph[pi].Kernels {
			k := &rec.Ph[pi].Kernels[ki]
			if !k.Col.Spilled() {
				t.Fatalf("kernel %s stayed resident", k.Name)
			}
			if !reflect.DeepEqual(decodeAll(t, k.Col), decodeAll(t, want.Ph[pi].Kernels[ki].Col)) {
				t.Fatal("spilled trace no longer replays identically")
			}
		}
	}
	// Spilling an already spilled trace is a no-op.
	if f2, err := rec.Spill(sf); err != nil || f2 != 0 {
		t.Fatalf("second spill: freed %d, err %v", f2, err)
	}
}
