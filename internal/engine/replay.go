package engine

import (
	"sync"

	"gps/internal/trace"
)

// The engine has one round-robin phase loop. Sequential replay is that loop
// with one worker owning every GPU. GPU-parallel replay runs the same loop
// on several workers at once, each owning a disjoint, contiguous range of
// GPUs, against the one model and its one profile vector. Each worker feeds
// its GPUs' kernels through the identical chunk schedule, so every GPU's
// stream reaches the model in the sequential order, and each GPU's profile
// row is written by exactly one goroutine. BeginPhase, EndPhase and Finish
// always run on the calling goroutine. (Ranges are contiguous because the
// model allocates neighbouring GPUs' state side by side: a round-robin
// split made workers share cache lines and cost ~10% more CPU.)
//
// That is only sound for phases in which the model's per-access state is
// strictly per-GPU and its shared structures are read-only. A model says
// which phases qualify by implementing ParallelModel; every other phase,
// and every phase of any other model, replays sequentially.

// ParallelModel is a Model whose per-access state may be partitioned by GPU
// for some phases.
type ParallelModel interface {
	Model
	// ParallelPhase reports whether ph's kernels may replay concurrently
	// on disjoint GPU sets: during ph, AccessBatch for one GPU must touch
	// no mutable state that AccessBatch for another GPU reads or writes.
	// It is called on the calling goroutine, after BeginPhase.
	ParallelPhase(ph *trace.Phase) bool
}

// ShardObserver extends PhaseObserver with per-worker events for phases
// that replay in parallel. ShardStart and ShardEnd are called from the
// worker's goroutine and must be safe for concurrent use across workers.
type ShardObserver interface {
	PhaseObserver
	ShardStart(phase, shard int)
	ShardEnd(phase, shard int)
}

// RunSharded replays prog through m on up to `shards` goroutines. The
// result is byte-identical to Run at any shard count.
func RunSharded(prog trace.Program, m Model, shards int) *Result {
	res, _ := RunShardedObserved(prog, m, shards, nil)
	return res
}

// RunShardedObserved is RunSharded with an optional phase observer, and
// reports whether any phase actually fanned out across goroutines. If the
// observer also implements ShardObserver it additionally receives
// per-worker start/end events from the worker goroutines. shards <= 1, a
// model that is not a ParallelModel, or a phase the model declines replay
// on the calling goroutine alone.
func RunShardedObserved(prog trace.Program, m Model, shards int, po PhaseObserver) (res *Result, fanned bool) {
	meta := prog.Meta()
	n := meta.NumGPUs
	pm, _ := m.(ParallelModel)
	if shards > n {
		shards = n // extra workers would own no kernels
	}
	if pm == nil || shards < 1 {
		shards = 1
	}
	so, _ := po.(ShardObserver)
	workers := make([]replayer, shards)
	for w := range workers {
		workers[w].exp = NewExpander(LineBytes)
	}
	var panics []any

	res = &Result{Meta: meta, Paradigm: m.Name()}
	prog.Phases(func(ph *trace.Phase) bool {
		if po != nil {
			po.PhaseStart(ph.Index, len(ph.Kernels))
		}
		profiles := newProfiles(n)
		for _, k := range ph.Kernels {
			profiles[k.GPU].ComputeOps += k.ComputeOps
			profiles[k.GPU].LocalBytes += k.LocalStreamBytes
		}
		m.BeginPhase(ph.Index, profiles)
		if shards > 1 && pm.ParallelPhase(ph) {
			fanned = true
			if panics == nil {
				panics = make([]any, shards)
			}
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					defer func() { panics[w] = recover() }()
					if so != nil {
						so.ShardStart(ph.Index, w)
						defer so.ShardEnd(ph.Index, w)
					}
					workers[w].replay(m, ph, w, shards, n)
				}(w)
			}
			wg.Wait()
			for _, p := range panics {
				if p != nil {
					// Re-panic on the caller, as the sequential replay would.
					panic(p)
				}
			}
		} else {
			workers[0].replay(m, ph, 0, 1, n)
		}
		m.EndPhase(ph.Index)
		res.Phases = append(res.Phases, PhaseRecord{Index: ph.Index, Profiles: profiles})
		if po != nil {
			po.PhaseEnd(ph.Index)
		}
		return true
	})
	m.Finish(res)
	return res, fanned
}

// replayer is one worker's replay scratch: its own expander, batch and
// per-kernel block cursors, so concurrent workers share nothing on the hot
// path and decode only the kernels they own. The scratch is reused across
// phases.
type replayer struct {
	exp     *Expander
	batch   Batch
	readers []blockCursor
}

// replay runs worker's share of one phase: the kernels of GPUs g with
// g*workers/gpus == worker, interleaved round-robin in chunks.
func (w *replayer) replay(m Model, ph *trace.Phase, worker, workers, gpus int) {
	ks := ph.Kernels
	for len(w.readers) < len(ks) {
		w.readers = append(w.readers, blockCursor{})
	}
	rs := w.readers[:len(ks)]
	// Only owned kernels with instructions await completion: an empty
	// kernel never reaches the end-of-stream decrement below, and counting
	// it would spin the loop forever.
	remaining := 0
	for ki := range ks {
		rs[ki].reset(&ks[ki])
		if ks[ki].GPU*workers/gpus != worker {
			rs[ki].n = 0 // not ours: never decoded
		}
		if rs[ki].n > 0 {
			remaining++
		}
	}
	b := &w.batch
	for remaining > 0 {
		for ki := range ks {
			r := &rs[ki]
			if r.pos >= r.n {
				continue
			}
			end := r.pos + chunk
			if end >= r.n {
				end = r.n
				remaining--
			}
			b.Accs = r.window(r.pos, end)
			b.Offs = append(b.Offs[:0], 0)
			b.Lines = b.Lines[:0]
			for _, a := range b.Accs {
				b.Lines = w.exp.AppendLines(b.Lines, a)
				b.Offs = append(b.Offs, int32(len(b.Lines)))
			}
			m.AccessBatch(ks[ki].GPU, b)
			r.pos = end
		}
	}
}
