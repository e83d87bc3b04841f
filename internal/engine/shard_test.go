package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"gps/internal/engine"
	"gps/internal/paradigm"
	"gps/internal/trace"
	"gps/internal/workload"
)

// TestRunShardedMatchesRun proves the sharded replay's core guarantee: for
// every paradigm and several programs, the Result at any shard count is
// identical (reflect.DeepEqual, which covers every profile counter, hit
// rate, and histogram) to the sequential replay's. Only the GPS models with
// per-GPU replay state fan out; the rest must replay sequentially.
func TestRunShardedMatchesRun(t *testing.T) {
	cfg := workload.Config{NumGPUs: 4, Iterations: 1, Scale: 1, Seed: 1}
	type input struct {
		name string
		prog trace.Program
	}
	var inputs []input
	for _, app := range []string{"jacobi", "pagerank"} {
		spec, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{app, spec.Build(cfg)})
	}
	inputs = append(inputs, input{"sysstore", sysStoreProgram()})
	for _, in := range inputs {
		for _, kind := range paradigm.Kinds() {
			want, _ := runWithShards(t, in.prog, kind, 1)
			wantFan := kind == paradigm.KindGPS || kind == paradigm.KindGPSNoSub
			for _, shards := range []int{2, 3, 8} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", in.name, kind, shards), func(t *testing.T) {
					got, fanned := runWithShards(t, in.prog, kind, shards)
					if !reflect.DeepEqual(want, got) {
						t.Errorf("sharded result diverges from sequential\nseq: %+v\nshr: %+v", want, got)
					}
					if fanned != wantFan {
						t.Errorf("fanned out = %v, want %v", fanned, wantFan)
					}
				})
			}
		}
	}
}

// sysStoreProgram is the sys-scope collapse of Section 5.3 on two GPUs:
// in phase 0 each GPU issues a sys-scoped store and a load to the same GPS
// page, so the first store collapses the page and the second GPU must see
// the collapsed mapping. GPS replays that phase sequentially; phase 1 holds
// only weak accesses and may fan out.
func sysStoreProgram() *trace.Recorded {
	const page = 1 << 33
	kernel := func(gpu int, accs ...trace.Access) trace.Kernel {
		return trace.Kernel{GPU: gpu, Name: "k", ComputeOps: 10, Col: trace.EncodeColumns(accs)}
	}
	access := func(op trace.Op, scope trace.Scope) trace.Access {
		return trace.Access{Op: op, Scope: scope, Pattern: trace.PatContiguous, Threads: 32, ElemBytes: 4, Addr: page}
	}
	sysStore, load := access(trace.OpStore, trace.ScopeSys), access(trace.OpLoad, trace.ScopeWeak)
	store := access(trace.OpStore, trace.ScopeWeak)
	return &trace.Recorded{
		M: trace.Meta{Name: "sysstore", NumGPUs: 2, ProfilePhases: 1, Regions: []trace.Region{
			{Name: "shared", Kind: trace.RegionShared, Base: page, Size: 1 << 20,
				Writers: []int{0, 1}, Readers: []int{0, 1}},
		}},
		Ph: []trace.Phase{
			{Index: 0, Kernels: []trace.Kernel{kernel(0, sysStore, load), kernel(1, sysStore, load)}},
			{Index: 1, Kernels: []trace.Kernel{kernel(0, store, load), kernel(1, load, store)}},
		},
	}
}

// TestRunShardedOversharded checks the degenerate extreme: more shards than
// GPUs clamps to one worker per GPU.
func TestRunShardedOversharded(t *testing.T) {
	cfg := workload.Config{NumGPUs: 2, Iterations: 1, Scale: 1, Seed: 1}
	spec, err := workload.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(cfg)
	for _, kind := range []paradigm.Kind{paradigm.KindUM, paradigm.KindGPS} {
		want, _ := runWithShards(t, prog, kind, 1)
		got, _ := runWithShards(t, prog, kind, 64)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%v: 64-shard result diverges from sequential", kind)
		}
	}
}

func runWithShards(t *testing.T, prog trace.Program, kind paradigm.Kind, shards int) (*engine.Result, bool) {
	t.Helper()
	model, err := paradigm.New(kind, prog, paradigm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return engine.RunShardedObserved(prog, model, shards, nil)
}
