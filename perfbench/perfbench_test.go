package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the package must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the package implements %d", names, len(workloads))
	}
	for _, list := range []struct {
		name     string
		declared map[string]string
		json     []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
	}{{"end_to_end", e2eMetrics, b.EndToEnd}, {"per_layer", layerMetrics, b.PerLayer}} {
		seen := map[string]bool{}
		for _, m := range list.json {
			if unit, ok := list.declared[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s (%s) in BENCHMARK.json, package says %q (declared %v)", list.name, m.Name, m.Unit, unit, ok)
			}
			seen[m.Name] = true
		}
		for name := range list.declared {
			if !seen[name] {
				t.Errorf("%s: %s missing from BENCHMARK.json", list.name, name)
			}
		}
	}
}

// notWorkCounts are per-layer counts that are not fixed by the inputs:
// status polls (and the proxied reads they cause) follow how long jobs
// take, and inexact cells follow the timing solve's tie-breaking order.
var notWorkCounts = map[string]bool{
	"client.polls_per_job":  true,
	"cluster.proxied_reads": true,
	"timing.inexact_cells":  true,
}

// TestWorkCountsExact runs every workload's traced run twice at seed 1
// and twice at another seed, with the shortest measuring time, and checks
// that every run passes its output checks and that each per-layer work
// count repeats exactly: these are the counts a performance change may
// cite.
func TestWorkCountsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, seed := range []int64{1, 7} {
			var first map[string]metric
			for i := 0; i < 2; i++ {
				cfg := runConfig{Seed: seed, Seconds: 0.01, Trace: true, OutDir: t.TempDir(), MinRuns: 1}
				res := newResult(name)
				if err := workloads[name](cfg, res); err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				res.checkNames(res.layer, layerMetrics)
				if res.failed != 0 || res.attempted == 0 {
					t.Fatalf("%s seed %d: %d of %d checks failed: %v", name, seed, res.failed, res.attempted, res.checks)
				}
				counts := map[string]metric{}
				for k, m := range res.layer {
					if (m.Unit == "count" || m.Unit == "bytes" || m.Unit == "count/job") && !notWorkCounts[k] {
						counts[k] = m
					}
				}
				if first == nil {
					first = counts
					continue
				}
				for k, m := range first {
					if counts[k] != m {
						t.Errorf("%s seed %d: %s = %v, then %v", name, seed, k, m.Value, counts[k].Value)
					}
				}
			}
		}
	}
}
