package engine_test

import (
	"fmt"
	"testing"

	"gps/internal/engine"
	"gps/internal/paradigm"
	"gps/internal/workload"
)

// benchConfig keeps the traces small enough that one engine.Run iteration
// is a few milliseconds: these benchmarks exist to profile the per-access
// hot path, not the experiment matrix.
var benchConfig = workload.Config{NumGPUs: 4, Iterations: 2, Scale: 1, Seed: 1}

// BenchmarkEngineRun replays a quick Jacobi (peer-to-peer halos) and
// Pagerank (many-to-many atomics) trace through every headline paradigm.
func BenchmarkEngineRun(b *testing.B) {
	for _, app := range []string{"jacobi", "pagerank"} {
		spec, err := workload.ByName(app)
		if err != nil {
			b.Fatal(err)
		}
		prog := spec.Build(benchConfig)
		for _, kind := range paradigm.Figure8Kinds() {
			b.Run(fmt.Sprintf("%s/%s", app, kind), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := paradigm.New(kind, prog, paradigm.DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					engine.Run(prog, m)
				}
			})
		}
	}
}

// BenchmarkEngineRunSharded replays a 16-GPU HIT trace through GPS at
// several shard counts. The shards=1 case runs the same loop on one worker,
// so the spread between shards=1 and shards=8 is the GPU-parallel speedup
// (plus per-phase fan-out overhead); on a single-core box expect the
// overhead only.
func BenchmarkEngineRunSharded(b *testing.B) {
	cfg := workload.Config{NumGPUs: 16, Iterations: 2, Scale: 1, Seed: 1}
	spec, err := workload.ByName("hit")
	if err != nil {
		b.Fatal(err)
	}
	prog := spec.Build(cfg)
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("hit/gps/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := paradigm.New(paradigm.KindGPS, prog, paradigm.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				engine.RunSharded(prog, m, shards)
			}
		})
	}
}

func BenchmarkScanSharing(b *testing.B) {
	spec, err := workload.ByName("jacobi")
	if err != nil {
		b.Fatal(err)
	}
	prog := spec.Build(benchConfig)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.ScanSharing(prog, prog.Meta().ProfilePhases, 64<<10)
	}
}
