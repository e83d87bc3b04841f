package core

import (
	"math/rand"
	"testing"

	"gps/internal/memsys"
)

func testGeom() memsys.Geometry {
	return memsys.MustGeometry(64<<10, 128, 49, 47)
}

func collectDrains(drained *[]Drained) func(Drained) {
	return func(d Drained) { *drained = append(*drained, d) }
}

func TestWriteQueueCoalescesSameLine(t *testing.T) {
	var drained []Drained
	q := NewWriteQueue(0, testGeom(), 8, 7, collectDrains(&drained))
	if q.PushStore(0) {
		t.Fatal("first store should miss")
	}
	if !q.PushStore(4) {
		t.Fatal("same-line store should coalesce")
	}
	if !q.PushStore(127) {
		t.Fatal("same-line store should coalesce")
	}
	if q.PushStore(128) {
		t.Fatal("next-line store should miss")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	if len(drained) != 0 {
		t.Fatalf("nothing should drain below the watermark, got %d", len(drained))
	}
	s := q.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", s.Hits, s.Misses)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", s.HitRate())
	}
}

func TestWriteQueueNonConsecutiveCoalescing(t *testing.T) {
	// Section 3.3: "Stores need not be consecutive to be coalesced".
	var drained []Drained
	q := NewWriteQueue(0, testGeom(), 8, 7, collectDrains(&drained))
	q.PushStore(0)        // line 0
	q.PushStore(512)      // line 4
	if !q.PushStore(64) { // back to line 0
		t.Fatal("non-consecutive same-line store should still coalesce")
	}
}

func TestWriteQueueWatermarkDrainsOldest(t *testing.T) {
	var drained []Drained
	// Capacity 512, watermark 511 in the paper; scaled here: cap 4, mark 3.
	q := NewWriteQueue(2, testGeom(), 4, 3, collectDrains(&drained))
	q.PushStore(0 * 128)
	q.PushStore(1 * 128)
	q.PushStore(2 * 128) // occupancy hits 3 == watermark: drain LRA (line 0)
	if len(drained) != 1 {
		t.Fatalf("drains = %d, want 1", len(drained))
	}
	d := drained[0]
	if d.LineVA != 0 || d.Reason != DrainWatermark || d.SrcGPU != 2 {
		t.Fatalf("drained %+v", d)
	}
	if q.Len() != 2 {
		t.Fatalf("Len after drain = %d, want 2", q.Len())
	}
}

func TestWriteQueueDrainCarriesMergedWrites(t *testing.T) {
	var drained []Drained
	q := NewWriteQueue(0, testGeom(), 4, 3, collectDrains(&drained))
	q.PushStore(0)
	q.PushStore(8)
	q.PushStore(16)
	q.PushStore(128)
	q.PushStore(256) // drains line 0 with 3 merged writes
	if len(drained) != 1 || drained[0].Writes != 3 {
		t.Fatalf("drained = %+v, want 3 writes in line 0", drained)
	}
}

func TestWriteQueueFlushDrainsAllInOrder(t *testing.T) {
	var drained []Drained
	q := NewWriteQueue(0, testGeom(), 16, 15, collectDrains(&drained))
	for i := 0; i < 5; i++ {
		q.PushStore(memsys.VAddr(i * 128))
	}
	q.Flush()
	if q.Len() != 0 {
		t.Fatalf("Len after flush = %d", q.Len())
	}
	if len(drained) != 5 {
		t.Fatalf("flush drained %d, want 5", len(drained))
	}
	for i, d := range drained {
		if d.LineVA != memsys.VAddr(i*128) {
			t.Fatalf("flush order wrong at %d: %+v", i, d)
		}
		if d.Reason != DrainFlush {
			t.Fatalf("reason = %v, want flush", d.Reason)
		}
	}
	// Queue stays usable after flush.
	q.PushStore(0)
	if q.Len() != 1 {
		t.Fatal("queue unusable after flush")
	}
}

func TestWriteQueueAtomicsPassThrough(t *testing.T) {
	var drained []Drained
	q := NewWriteQueue(1, testGeom(), 8, 7, collectDrains(&drained))
	q.PushAtomic(64)
	q.PushAtomic(64) // same line: still no coalescing for atomics
	if q.Len() != 0 {
		t.Fatal("atomics must not occupy the queue")
	}
	if len(drained) != 2 {
		t.Fatalf("atomic drains = %d, want 2", len(drained))
	}
	for _, d := range drained {
		if !d.Atomic || d.Reason != DrainPassThrough {
			t.Fatalf("atomic drain = %+v", d)
		}
	}
	if q.Stats().HitRate() != 0 {
		t.Fatal("atomic-only stream must have 0%% hit rate (Section 7.4)")
	}
}

// Same-address order: an atomic to a resident line must not overtake the
// older store block for that line, or a remote replica would end on the
// store's stale value. The queue drains FIFO up to and including the block,
// then passes the atomic through; younger blocks stay resident.
func TestWriteQueueAtomicDrainsOlderSameLineStoreFirst(t *testing.T) {
	var drained []Drained
	q := NewWriteQueue(0, testGeom(), 8, 7, collectDrains(&drained))
	q.PushStore(0)
	q.PushStore(128)
	q.PushStore(256)
	q.PushAtomic(128 + 8)
	want := []Drained{
		{LineVA: 0, Writes: 1, Reason: DrainFlush},
		{LineVA: 128, Writes: 1, Reason: DrainFlush},
		{LineVA: 128, Writes: 1, Reason: DrainPassThrough, Atomic: true},
	}
	if len(drained) != len(want) {
		t.Fatalf("drained = %+v, want %+v", drained, want)
	}
	for i := range want {
		if drained[i] != want[i] {
			t.Fatalf("drain %d = %+v, want %+v", i, drained[i], want[i])
		}
	}
	if q.Len() != 1 || !q.Contains(256) {
		t.Fatalf("younger block must stay resident, Len = %d", q.Len())
	}
}

func TestWriteQueueDrainOldestAndResident(t *testing.T) {
	var drained []Drained
	q := NewWriteQueue(0, testGeom(), 8, 7, collectDrains(&drained))
	for _, va := range []memsys.VAddr{256, 0, 128, 8} {
		q.PushStore(va)
	}
	var lines []memsys.VAddr
	q.Resident(func(l memsys.VAddr) { lines = append(lines, l) })
	if len(lines) != 3 || lines[0] != 256 || lines[1] != 0 || lines[2] != 128 {
		t.Fatalf("resident = %v, want FIFO [256 0 128]", lines)
	}
	if !q.DrainOldest() || drained[0].LineVA != 256 || drained[0].Reason != DrainWatermark {
		t.Fatalf("DrainOldest drained %+v, want line 256 as a watermark drain", drained)
	}
	q.Flush()
	if q.DrainOldest() {
		t.Fatal("DrainOldest on an empty queue reported work")
	}
}

func TestWriteQueueCloneIsIndependent(t *testing.T) {
	var orig, copied []Drained
	q := NewWriteQueue(0, testGeom(), 8, 7, collectDrains(&orig))
	q.PushStore(0)
	q.PushStore(128)
	c := q.Clone(collectDrains(&copied))
	c.PushStore(256)
	if !c.PushStore(8) {
		t.Fatal("clone lost the resident index")
	}
	c.Flush()
	if q.Len() != 2 || q.Contains(256) || len(orig) != 0 {
		t.Fatalf("clone mutated the original: Len = %d, drains = %v", q.Len(), orig)
	}
	if len(copied) != 3 || copied[0].Writes != 2 {
		t.Fatalf("clone drained %+v, want 3 blocks, the first with 2 writes", copied)
	}
}

func TestWriteQueueHitRateIncludesAtomicsInDenominator(t *testing.T) {
	var drained []Drained
	q := NewWriteQueue(0, testGeom(), 8, 7, collectDrains(&drained))
	q.PushStore(0)
	q.PushStore(4) // hit
	q.PushAtomic(128)
	q.PushAtomic(128)
	s := q.Stats()
	if got, want := s.HitRate(), 0.25; got != want {
		t.Fatalf("HitRate = %v, want %v", got, want)
	}
}

func TestWriteQueueStreamingHasZeroHitRate(t *testing.T) {
	// A pure streaming writer (each line touched once, like Jacobi after SM
	// coalescing) must see 0% queue hit rate.
	var drained []Drained
	q := NewWriteQueue(0, testGeom(), 512, 511, collectDrains(&drained))
	for i := 0; i < 10000; i++ {
		q.PushStore(memsys.VAddr(i * 128))
	}
	if q.Stats().HitRate() != 0 {
		t.Fatalf("streaming hit rate = %v, want 0", q.Stats().HitRate())
	}
}

func TestWriteQueueTemporalLocalityCapturedByLargerQueue(t *testing.T) {
	// Revisit each line after touching `gap` other lines. A queue larger
	// than the gap captures the revisit; a smaller one does not. This is the
	// mechanism behind Figure 14.
	hitRate := func(capacity, gap int) float64 {
		q := NewWriteQueue(0, testGeom(), capacity, capacity-1, func(Drained) {})
		for rep := 0; rep < 20; rep++ {
			for i := 0; i < gap; i++ {
				q.PushStore(memsys.VAddr(i * 128))
			}
		}
		return q.Stats().HitRate()
	}
	small := hitRate(64, 256)
	large := hitRate(512, 256)
	if small != 0 {
		t.Fatalf("small queue hit rate = %v, want 0", small)
	}
	if large < 0.9 {
		t.Fatalf("large queue hit rate = %v, want >= 0.9", large)
	}
}

func TestWriteQueueOccupancyNeverExceedsWatermark(t *testing.T) {
	q := NewWriteQueue(0, testGeom(), 512, 511, func(Drained) {})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100000; i++ {
		q.PushStore(memsys.VAddr(rng.Intn(100000) * 128))
		if q.Len() >= 512 {
			t.Fatalf("occupancy %d reached capacity", q.Len())
		}
	}
}

// Property: conservation — every store is eventually accounted as exactly
// one of {hit, miss}, and every missed line either drains or is resident.
func TestWriteQueueConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		var drainedWrites int
		q := NewWriteQueue(0, testGeom(), 32, 31, func(d Drained) { drainedWrites += d.Writes })
		n := 1 + rng.Intn(5000)
		for i := 0; i < n; i++ {
			q.PushStore(memsys.VAddr(rng.Intn(200) * 128))
		}
		s := q.Stats()
		if s.Hits+s.Misses != uint64(n) {
			t.Fatalf("hits+misses = %d, want %d", s.Hits+s.Misses, n)
		}
		q.Flush()
		if drainedWrites != n {
			t.Fatalf("drained writes = %d, want %d (no store lost or duplicated)", drainedWrites, n)
		}
		if q.Len() != 0 {
			t.Fatal("residue after flush")
		}
	}
}

func TestWriteQueueConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewWriteQueue(0, testGeom(), 0, 1, func(Drained) {}) },
		func() { NewWriteQueue(0, testGeom(), 4, 0, func(Drained) {}) },
		func() { NewWriteQueue(0, testGeom(), 4, 5, func(Drained) {}) },
		func() { NewWriteQueue(0, testGeom(), 4, 3, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected constructor panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkWriteQueuePushStore(b *testing.B) {
	q := NewWriteQueue(0, testGeom(), 512, 511, func(Drained) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.PushStore(memsys.VAddr((i % 4096) * 128))
	}
}
