// Command perfbench is the repository benchmark: it drives the simulator
// (experiments runner) and gpsd (service + cluster + httpapi over loopback)
// through three seeded workloads and prints one JSON result line.
//
//	perfbench --workload paper-4gpu --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation. With --trace 1 the run also replays the same work
// layer by layer, calling each layer's public functions from this package
// under spans, and the result carries the per-layer metrics. Every run
// checks the simulator's outputs and counts each mismatch as a failure.
//
// The benchmark lives in its own module and imports the simulator's
// packages through a replace directive; it changes none of them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloadFunc runs one workload and fills res. It returns an error only
// when the run could not be carried out at all (set-up failed); mismatches
// and failed operations are recorded on res instead.
type workloadFunc func(cfg runConfig, res *result) error

var workloads = map[string]workloadFunc{
	"paper-4gpu": runPaper,
	"pod-64gpu":  runPod,
	"gpsd-mixed": runGPSD,
}

// runConfig is what the command line selects for one run.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	OutDir  string // scratch files (spill, journals) and the span dump
	MinRuns int    // lower bound on measured rounds, whatever Seconds says
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-4gpu | pod-64gpu | gpsd-mixed")
		seed    = flag.Int64("seed", 1, "input seed (the same seed gives the same inputs)")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		traced  = flag.Int("trace", 0, "1 = traced layer-by-layer run, per-layer metrics")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for scratch files and span dumps")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seed < 1 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %g, trace %d)\n",
			*name, *seed, *seconds, *traced)
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *traced == 1, OutDir: *outDir, MinRuns: 3}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res := newResult(*name)
	if err := run(cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.Trace {
		path := filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := res.spans.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d spans to %s\n", res.spans.len(), path)
	}
	res.print(os.Stdout, cfg.Trace)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run's metrics and its correctness record.
type result struct {
	workload  string
	e2e       map[string]metric
	layer     map[string]metric
	attempted int
	failed    int
	checks    []string // failed checks, for the human-readable report
	notes     []string // extra human-readable lines (tables, load shape)
	spans     *spanLog
}

func newResult(workload string) *result {
	return &result{
		workload: workload,
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		spans:    &spanLog{epoch: time.Now()},
	}
}

func (r *result) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *result) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// op counts one attempted operation; ok=false counts it as failed.
func (r *result) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check records one output check: a false cond is a failed operation and
// is listed in the report.
func (r *result) check(cond bool, format string, args ...any) bool {
	r.op(cond)
	if !cond {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
	return cond
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable report and, as the last line, the JSON
// result: end-to-end metrics untraced, per-layer metrics traced.
func (r *result) print(w io.Writer, traced bool) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	dump := func(title string, m map[string]metric) {
		fmt.Fprintf(w, "%s:\n", title)
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-36s %16.6f %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	dump("end-to-end ("+r.workload+")", r.e2e)
	if traced {
		dump("per-layer ("+r.workload+")", r.layer)
	}
	out, declared := r.e2e, e2eMetrics
	if traced {
		out, declared = r.layer, layerMetrics
	}
	r.checkNames(out, declared)
	for k, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out[k] = metric{0, m.Unit}
			r.check(false, "metric %s is not a number", k)
		}
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-36s %16.6f frac (%d of %d)\n", "failed_frac", failedFrac, r.failed, r.attempted)
	for _, c := range r.checks {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", c)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, out})
	if err != nil {
		panic(err) // only plain numbers and strings: cannot fail
	}
	fmt.Fprintln(w, string(line))
}
