package main

import (
	"sort"
	"strings"

	"gps/internal/experiments"
)

// e2eMetrics are reported by every untraced run of every workload. The
// list, like layerMetrics, must match BENCHMARK.json (the package test
// checks it). They are CPU times: on the shared host this was calibrated
// on, vCPU steal and memory contention moved wall times between runs by
// more than any usable bound (see README.md).
var e2eMetrics = map[string]string{
	"setup_s":         "s",
	"run_cpu_s":       "s",
	"minst_per_cpu_s": "Minst/s",
	"jobs_per_cpu_s":  "1/s",
	"peak_rss_mb":     "MB",
}

// layerMetrics are reported by every traced run of every workload; a
// layer the workload does not exercise reports 0.
var layerMetrics = map[string]string{
	"workload.build_s":                "s",
	"workload.records_built":          "count",
	"trace.compressed_bytes":          "bytes",
	"trace.logical_bytes":             "bytes",
	"trace.decode_s":                  "s",
	"trace.records_decoded":           "count",
	"trace.blocks_decoded":            "count",
	"trace.spill_s":                   "s",
	"trace.spill_block_reads":         "count",
	"trace.spill_read_bytes":          "bytes",
	"trace.share":                     "frac",
	"engine.expand_s":                 "s",
	"engine.lines_expanded":           "count",
	"engine.replay_s":                 "s",
	"engine.replays":                  "count",
	"engine.share":                    "frac",
	"paradigm.new_s":                  "s",
	"paradigm.um.model_s":             "s",
	"paradigm.um_hints.model_s":       "s",
	"paradigm.rdl.model_s":            "s",
	"paradigm.memcpy.model_s":         "s",
	"paradigm.gps.model_s":            "s",
	"paradigm.infinite.model_s":       "s",
	"paradigm.share":                  "frac",
	"timing.simulate_s":               "s",
	"timing.calls":                    "count",
	"timing.phases":                   "count",
	"timing.share":                    "frac",
	"timing.inexact_cells":            "count",
	"experiments.trace_builds":        "count",
	"experiments.trace_hits":          "count",
	"experiments.engine_runs":         "count",
	"experiments.engine_hits":         "count",
	"experiments.baseline_runs":       "count",
	"experiments.overhead_s":          "s",
	"stats.render_s":                  "s",
	"stats.share":                     "frac",
	"bench.run_wall_s":                "s",
	"bench.layer_sum_s":               "s",
	"bench.tracing_overhead_s":        "s",
	"client.hit_p50_ms":               "ms",
	"client.hit_p90_ms":               "ms",
	"client.hit_samples":              "count",
	"client.miss_p50_ms":              "ms",
	"client.miss_p90_ms":              "ms",
	"client.miss_samples":             "count",
	"client.polls_per_job":            "count/job",
	"httpapi.submit_local_ms_p50":     "ms",
	"httpapi.result_local_ms_p50":     "ms",
	"cluster.submit_forwarded_ms_p50": "ms",
	"cluster.result_proxied_ms_p50":   "ms",
	"cluster.forwards":                "count",
	"cluster.proxied_reads":           "count",
	"service.journal_records":         "count/job",
	"service.queue_wait_ms_p50":       "ms",
	"service.queue_wait_ms_p90":       "ms",
	"service.exec_ms_p50":             "ms",
	"service.exec_ms_p90":             "ms",
	"service.cache_hit_frac":          "frac",
	"service.coalesced":               "count",
	"service.peer_fetched":            "count",
}

// gpsdLayerPrefixes are the layers only gpsd-mixed exercises.
var gpsdLayerPrefixes = []string{"client.", "httpapi.", "cluster.", "service."}

// zeroLayers reports 0 for every per-layer metric under prefixes that the
// run did not set: the workload does not exercise those layers.
func (r *result) zeroLayers(prefixes ...string) {
	for name, unit := range layerMetrics {
		if _, ok := r.layer[name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				r.setLayer(name, 0, unit)
			}
		}
	}
}

// checkNames fails a check for every metric missing from, or extra to,
// the declared list, or reported in another unit.
func (r *result) checkNames(got map[string]metric, want map[string]string) {
	for name, unit := range want {
		m, ok := got[name]
		r.check(ok && m.Unit == unit, "metric %s: reported %v (unit %q), declared unit %q", name, ok, m.Unit, unit)
	}
	var extra []string
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	r.check(len(extra) == 0, "undeclared metrics %v", extra)
}

// runnerLayers records one measured round's runner counters.
func runnerLayers(res *result, cs experiments.CacheStats) {
	res.setLayer("experiments.trace_builds", float64(cs.TraceBuilds), "count")
	res.setLayer("experiments.trace_hits", float64(cs.TraceHits), "count")
	res.setLayer("experiments.engine_runs", float64(cs.EngineRuns), "count")
	res.setLayer("experiments.engine_hits", float64(cs.EngineHits), "count")
	res.setLayer("experiments.baseline_runs", float64(cs.BaselineRuns), "count")
	res.setLayer("trace.spill_block_reads", float64(cs.SpillBlockReads), "count")
	res.setLayer("trace.spill_read_bytes", float64(cs.SpillReadBytes), "bytes")
}
