package funcsim

import (
	"math/rand"
	"testing"

	"gps/internal/engine"
	"gps/internal/paradigm"
	"gps/internal/trace"
)

// diffProgram builds a random multi-phase program over one shared region
// with pinned manual subscribers (at least two) and no profiling window:
// per GPU and phase one kernel of weak stores, loads and sys fences. Stores
// and loads are strided warps over up to eight lines of a 1024-line region,
// so long kernels push far more distinct lines than the 512-entry queue
// holds and force watermark drains. It also returns each kernel's accesses,
// indexed by phase and GPU.
func diffProgram(seed int64, gpus, ops int) (*trace.Recorded, [][][]trace.Access) {
	const base, lines = uint64(1) << 33, 1024
	rng := rand.New(rand.NewSource(seed))
	subs := rng.Perm(gpus)[:2+rng.Intn(gpus-1)]
	prog := &trace.Recorded{M: trace.Meta{
		Name:    "differential",
		NumGPUs: gpus,
		Regions: []trace.Region{{
			Name: "shared", Kind: trace.RegionShared, Base: base, Size: lines * engine.LineBytes,
			ManualSubscribers: subs,
		}},
	}}
	kernels := make([][][]trace.Access, 2)
	for p := range kernels {
		ph := trace.Phase{Index: p}
		for g := 0; g < gpus; g++ {
			accs := make([]trace.Access, ops)
			for i := range accs {
				a := trace.Access{
					Op: trace.OpStore, Pattern: trace.PatStrided, Stride: engine.LineBytes,
					Threads: uint8(1 + rng.Intn(8)), ElemBytes: 8,
					Addr: base + uint64(rng.Intn(lines-8))*engine.LineBytes + uint64(rng.Intn(16))*8,
				}
				switch r := rng.Intn(1000); {
				case r < 2:
					a = trace.Access{Op: trace.OpFence, Scope: trace.ScopeSys}
				case r < 500:
					a.Op = trace.OpLoad
				}
				accs[i] = a
			}
			kernels[p] = append(kernels[p], accs)
			ph.Kernels = append(ph.Kernels, trace.Kernel{GPU: g, Name: "random", ComputeOps: 1, Col: trace.EncodeColumns(accs)})
		}
		prog.Ph = append(prog.Ph, ph)
	}
	return prog, kernels
}

// FuzzGPSModelMatchesFuncsim replays random kernels through the GPS model
// (engine.Run) and, line by line in each GPU's program order, through the
// functional machine. Both publish through core.WriteQueue at the paper's
// 512 entries, so they must agree on every pushed line per (src,dst), on
// each GPU's write queue hit rate and on the loads forwarded from the queue
// (Section 5.1). Cross-GPU interleaving cannot matter: subscriptions are
// pinned and each queue sees only its own GPU's stream.
func FuzzGPSModelMatchesFuncsim(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(40))
	f.Add(int64(2), uint8(2), uint16(600))
	f.Add(int64(3), uint8(1), uint16(900))
	f.Fuzz(func(t *testing.T, seed int64, gpus uint8, ops uint16) {
		n := 2 + int(gpus%3)
		prog, kernels := diffProgram(seed, n, 1+int(ops%1024))
		model, err := paradigm.New(paradigm.KindGPS, prog, paradigm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res := engine.Run(prog, model)

		m, err := NewMachine(n, 64<<10, engine.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		r := prog.M.Regions[0]
		if err := m.SetSubscribers(r.Base, r.Size, r.ManualSubscribers...); err != nil {
			t.Fatal(err)
		}
		exp := engine.NewExpander(engine.LineBytes)
		stores := make([]uint64, n)
		for _, phase := range kernels {
			for g, accs := range phase {
				for _, a := range accs {
					if a.Op == trace.OpFence {
						m.Queue(g).Flush()
						continue
					}
					for _, line := range exp.Expand(a) {
						if a.Op == trace.OpStore {
							m.Store(g, line, float64(line))
							stores[g]++
						} else {
							m.Load(g, line)
						}
					}
				}
			}
			m.Barrier()
		}

		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				var pushed uint64
				for _, ph := range res.Phases {
					pushed += ph.Profiles[src].Push[dst]
				}
				if pushed/engine.LineBytes != m.Delivered[src][dst] {
					t.Fatalf("pushed lines %d->%d: model %d, funcsim %d", src, dst, pushed/engine.LineBytes, m.Delivered[src][dst])
				}
			}
			st := m.Queue(src).Stats()
			if st.Stores != stores[src] || res.WriteQueueHitRate[src] != st.HitRate() {
				t.Fatalf("GPU %d queue: model hit rate %v, funcsim %v over %d/%d stores",
					src, res.WriteQueueHitRate[src], st.HitRate(), st.Stores, stores[src])
			}
		}
		if res.ForwardedLoads != m.Forwarded {
			t.Fatalf("forwarded loads: model %d, funcsim %d", res.ForwardedLoads, m.Forwarded)
		}
	})
}
