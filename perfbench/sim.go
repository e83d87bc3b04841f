package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"gps/internal/engine"
	"gps/internal/experiments"
	"gps/internal/interconnect"
	"gps/internal/paradigm"
	"gps/internal/stats"
	"gps/internal/timing"
	"gps/internal/trace"
	"gps/internal/workload"
)

// simPlan is one simulator workload: apps replayed at gpus under every
// Figure 8 paradigm, each structural result priced on fabrics(kind), plus
// the one-GPU baselines, all through one experiments.Runner with one
// worker and no shards.
type simPlan struct {
	seed    int64
	apps    []string
	gpus    int
	fabrics func(paradigm.Kind) []*interconnect.Fabric
	// only, when set, replaces the six Figure 8 paradigms.
	only []paradigm.Kind
	// spill moves every trace to the runner's spill file during set-up, so
	// each replay reads its blocks back from disk.
	spill bool
	// gpsMean is the mean GPS speedup on mainFabric the run must reproduce
	// (0: no headline check).
	gpsMean    float64
	mainFabric string
}

// gpsMeanSeed1 is the Figure 8 headline (mean GPS speedup on PCIe 4.0 at
// seed 1) recorded in BENCH_10.json.
const gpsMeanSeed1 = 3.134100718499948

func paperPlan(seed int64) simPlan {
	gens := []interconnect.PCIeGen{interconnect.PCIe3, interconnect.PCIe4, interconnect.PCIe5, interconnect.PCIe6}
	p := simPlan{
		seed: seed,
		apps: workload.Names(),
		gpus: 4,
		fabrics: func(k paradigm.Kind) []*interconnect.Fabric {
			if k == paradigm.KindInfinite {
				return []*interconnect.Fabric{interconnect.Infinite(4)}
			}
			fabs := make([]*interconnect.Fabric, len(gens))
			for i, g := range gens {
				fabs[i] = interconnect.PCIeTree(4, g)
			}
			return fabs
		},
		mainFabric: interconnect.PCIeTree(4, interconnect.PCIe4).Name(),
	}
	if seed == 1 {
		p.gpsMean = gpsMeanSeed1
	}
	return p
}

func podPlan(seed int64) simPlan {
	return simPlan{
		seed:  seed,
		apps:  []string{"pagerank", "hit"},
		gpus:  64,
		spill: true,
		fabrics: func(k paradigm.Kind) []*interconnect.Fabric {
			if k == paradigm.KindInfinite {
				return []*interconnect.Fabric{interconnect.Infinite(64)}
			}
			return []*interconnect.Fabric{interconnect.HierarchicalNVSwitch(64, 8, interconnect.NVLink3Bandwidth, 2)}
		},
	}
}

func runPaper(cfg runConfig, res *result) error { return runSim(paperPlan(cfg.Seed), cfg, res) }
func runPod(cfg runConfig, res *result) error   { return runSim(podPlan(cfg.Seed), cfg, res) }

func (p simPlan) opt() experiments.Options { return experiments.Options{Seed: p.seed} }

// wcfg is the workload configuration the runner derives from p.opt() for a
// cell on gpus devices (experiments.Options defaults: 4 iterations, scale 1).
func (p simPlan) wcfg(gpus int) workload.Config {
	return workload.Config{NumGPUs: gpus, Iterations: 4, Scale: 1, Seed: p.seed}
}

func (p simPlan) kinds() []paradigm.Kind {
	if p.only != nil {
		return p.only
	}
	return paradigm.Figure8Kinds()
}

func (p simPlan) cells() []experiments.Cell {
	var cells []experiments.Cell
	for _, app := range p.apps {
		for _, k := range p.kinds() {
			for _, fab := range p.fabrics(k) {
				cells = append(cells, experiments.Cell{App: app, Kind: k, GPUs: p.gpus, Fab: fab,
					Opt: p.opt(), Cfg: paradigm.DefaultConfig()})
			}
		}
	}
	return cells
}

// traceGPUs are the system sizes whose traces the plan replays: the
// workload's own and the one-GPU baseline's.
func (p simPlan) traceGPUs() []int { return []int{p.gpus, 1} }

// cellKey names one priced cell; baselines are (app, infinite, 1 GPU).
type cellKey struct {
	app  string
	kind paradigm.Kind
	gpus int
	fab  string
}

// cellStats are the simulated statistics a cell must reproduce exactly.
type cellStats struct {
	total, steady float64
	bytes         uint64
	faults        int
	wqHit         string
}

// ulpTolerance bounds the relative difference allowed between two solves
// of the same structural result. timing.Simulate's max-min rate solve picks
// among tied bottleneck links in map iteration order, so the last bits of a
// simulated time can differ between calls on identical input (the Figure 8
// GPS mean at seed 1 reads 3.1341007184999476 or 3.134100718499948). Such
// cells pass but are counted as inexact; every other statistic must match
// exactly.
const ulpTolerance = 1e-12

func closeTo(a, b float64) bool {
	return a == b || math.Abs(a-b) <= ulpTolerance*math.Max(math.Abs(a), math.Abs(b))
}

// compare reports whether got reproduces want: exactly, or up to the
// last-bit noise of the timing solve.
func (want cellStats) compare(got cellStats) (match, exact bool) {
	if got == want {
		return true, true
	}
	return got.bytes == want.bytes && got.faults == want.faults && got.wqHit == want.wqHit &&
		closeTo(got.total, want.total) && closeTo(got.steady, want.steady), false
}

func statsOf(rep *timing.Report, res *engine.Result) cellStats {
	return cellStats{total: rep.Total, steady: rep.SteadyTotal(),
		bytes: res.InterconnectBytes(res.Meta.ProfilePhases), faults: res.TotalFaults(),
		wqHit: fmt.Sprint(res.WriteQueueHitRate)}
}

// simOutput is everything a matrix produced that the checks compare.
type simOutput struct {
	cells  map[cellKey]cellStats
	steady map[cellKey]float64
	bases  map[string]float64
	text   string // rendered tables
}

// render builds one speedup table per priced fabric (apps x paradigms,
// with the infinite-bandwidth column on its ideal fabric) and a mean row,
// and returns their text plus the mean GPS speedup on mainFabric.
func (p simPlan) render(out *simOutput) (string, float64) {
	kinds := paradigm.Figure8Kinds()
	cols := make([]string, len(kinds))
	for i, k := range kinds {
		cols[i] = k.String()
	}
	var text string
	gpsMean := 0.0
	for _, fab := range p.fabrics(paradigm.KindGPS) {
		tb := stats.NewTable(fmt.Sprintf("speedup over 1 GPU, %d GPUs on %s", p.gpus, fab.Name()), "app", cols...)
		sums := make([]float64, len(kinds))
		for _, app := range p.apps {
			row := make([]float64, len(kinds))
			for i, k := range kinds {
				f := fab.Name()
				if k == paradigm.KindInfinite {
					f = p.fabrics(k)[0].Name()
				}
				row[i] = stats.Speedup(out.bases[app], out.steady[cellKey{app, k, p.gpus, f}])
				sums[i] += row[i]
			}
			tb.AddRow(app, row...)
		}
		mean := make([]float64, len(kinds))
		for i := range sums {
			mean[i] = sums[i] / float64(len(p.apps))
		}
		tb.AddRow("mean", mean...)
		text += tb.String()
		if fab.Name() == p.mainFabric {
			gpsMean, _, _ = experiments.Claims71(tb)
		}
	}
	return text, gpsMean
}

// simRound is one untraced, measured pass: a fresh runner, set-up (every
// trace built, and spilled for spill plans), then the matrix and render.
// It keeps the CPU time of each set-up step and the wall and CPU time of
// each matrix operation (baselines, then cells, in issue order), so a run
// can take each one's best over its rounds.
type simRound struct {
	run           float64   // matrix wall, for the notes and the runner overhead
	steps         []float64 // CPU seconds
	opWall, opCPU []float64
	cache         experiments.CacheStats
	out           *simOutput
	records       map[traceKey]int // trace records per built trace
	err           error
}

type traceKey struct {
	app  string
	gpus int
}

func (p simPlan) round() simRound {
	var rd simRound
	r := experiments.NewRunner(1)
	rd.records = map[traceKey]int{}
	for _, app := range p.apps {
		for _, g := range p.traceGPUs() {
			c := cpuSeconds()
			rec, err := r.Trace(app, p.wcfg(g))
			if err != nil {
				rd.err = err
				return rd
			}
			rd.steps = append(rd.steps, cpuSeconds()-c)
			rd.records[traceKey{app, g}] = records(rec)
		}
	}
	if p.spill {
		// Lower the budget one trace at a time: each step spills the least
		// recently used trace that still has resident blocks and nothing
		// else, so every trace spills and none is evicted. The final budget
		// sits between the spilled index footprint and the compressed size.
		c := cpuSeconds()
		for i := 0; i < len(rd.records) && r.CacheStats().TraceSpills < uint64(len(rd.records)); i++ {
			r.SetTraceBudget(r.CacheStats().TraceBytes - 1)
		}
		rd.steps = append(rd.steps, cpuSeconds()-c)
	}
	runtime.GC() // set-up's garbage is not the round's

	cells := p.cells()
	rd.opWall = make([]float64, len(p.apps)+len(cells))
	rd.opCPU = make([]float64, len(rd.opWall))
	var cpu0 float64
	// The runner has one worker, so events arrive one at a time, in order.
	ctx := experiments.WithCellObserver(context.Background(), func(ev experiments.CellEvent) {
		if ev.Start {
			cpu0 = cpuSeconds()
			return
		}
		rd.opWall[ev.Index] = ev.Dur.Seconds()
		rd.opCPU[ev.Index] = cpuSeconds() - cpu0
	})
	t1 := time.Now()
	bases, results, err := r.RunMatrixWithBaselines(ctx, p.apps, p.opt(), paradigm.DefaultConfig(), cells)
	if err == nil {
		rd.out = &simOutput{cells: map[cellKey]cellStats{}, steady: map[cellKey]float64{}, bases: bases}
		for _, cr := range results {
			k := cellKey{cr.Cell.App, cr.Cell.Kind, cr.Cell.GPUs, cr.Cell.Fab.Name()}
			rd.out.cells[k] = statsOf(cr.Report, cr.Result)
			rd.out.steady[k] = cr.Report.SteadyTotal()
		}
		rd.out.text, _ = p.render(rd.out)
	}
	rd.run = time.Since(t1).Seconds()
	rd.cache = r.CacheStats()
	rd.err = err
	return rd
}

func records(rec *trace.Recorded) int {
	n := 0
	for i := range rec.Ph {
		for k := range rec.Ph[i].Kernels {
			n += rec.Ph[i].Kernels[k].NumAccesses()
		}
	}
	return n
}

// expectedCache is the exact CacheStats work the plan's matrix must do on
// a runner whose traces were all built during set-up.
func (p simPlan) expectedCache() experiments.CacheStats {
	structural := len(p.apps) * len(p.kinds())
	engineRuns := structural + len(p.apps) // + one baseline replay per app
	return experiments.CacheStats{
		TraceBuilds:  uint64(len(p.apps) * len(p.traceGPUs())),
		TraceHits:    uint64(engineRuns),
		EngineRuns:   uint64(engineRuns),
		EngineHits:   uint64(len(p.cells()) - structural),
		BaselineRuns: uint64(len(p.apps)),
	}
}

// checkRound records the round's output checks: the matrix ran, its work
// counters are exact, the spill regime held, the outputs repeat those of
// the reference round, and the headline speedup is reproduced. It returns
// how many cells matched the reference only up to timing noise.
func (p simPlan) checkRound(res *result, rd simRound, ref *simOutput) (inexact int) {
	ncells := len(p.cells()) + len(p.apps)
	if !res.check(rd.err == nil && rd.out != nil, "matrix failed: %v", rd.err) {
		for i := 0; i < ncells; i++ {
			res.op(false)
		}
		return 0
	}
	for i := 0; i < ncells; i++ {
		res.op(true)
	}
	want, got := p.expectedCache(), rd.cache
	res.check(got.TraceBuilds == want.TraceBuilds && got.TraceHits == want.TraceHits &&
		got.EngineRuns == want.EngineRuns && got.EngineHits == want.EngineHits &&
		got.BaselineRuns == want.BaselineRuns,
		"cache counters: got builds/hits %d/%d engine runs/hits %d/%d baselines %d, want %d/%d %d/%d %d",
		got.TraceBuilds, got.TraceHits, got.EngineRuns, got.EngineHits, got.BaselineRuns,
		want.TraceBuilds, want.TraceHits, want.EngineRuns, want.EngineHits, want.BaselineRuns)
	ntraces := uint64(len(p.apps) * len(p.traceGPUs()))
	if p.spill {
		res.check(got.TraceSpills == ntraces && got.TraceEvictions == 0 && got.SpillBlockReads > 0,
			"spill regime: %d spills (want %d), %d evictions (want 0), %d spill block reads (want > 0)",
			got.TraceSpills, ntraces, got.TraceEvictions, got.SpillBlockReads)
	} else {
		res.check(got.TraceSpills == 0 && got.TraceEvictions == 0 && got.SpillBlockReads == 0,
			"resident regime: %d spills, %d evictions, %d spill block reads (want 0)",
			got.TraceSpills, got.TraceEvictions, got.SpillBlockReads)
	}
	if ref != nil && ref != rd.out {
		inexact = compareOutputs(res, "this round", rd.out, "the first round", ref)
	}
	if p.gpsMean != 0 {
		_, mean := p.render(rd.out)
		res.check(closeTo(mean, p.gpsMean), "mean GPS speedup on %s: %.17g, want %.17g", p.mainFabric, mean, p.gpsMean)
		if mean != p.gpsMean {
			res.note("mean GPS speedup on %s: %.17g (BENCH_10: %.17g; differs in the last bits only)", p.mainFabric, mean, p.gpsMean)
		}
	}
	return inexact
}

// compareOutputs checks every cell, baseline and rendered table of got
// against want and returns how many cells matched only up to timing noise.
func compareOutputs(res *result, gotName string, got *simOutput, wantName string, want *simOutput) (inexact int) {
	res.check(len(got.cells) == len(want.cells), "%s priced %d cells, %s %d", gotName, len(got.cells), wantName, len(want.cells))
	for k, w := range want.cells {
		match, exact := w.compare(got.cells[k])
		res.check(match, "cell %v: %s %+v, %s %+v", k, gotName, got.cells[k], wantName, w)
		if match && !exact {
			inexact++
		}
	}
	for app, w := range want.bases {
		res.check(closeTo(got.bases[app], w), "baseline %s: %s %v, %s %v", app, gotName, got.bases[app], wantName, w)
	}
	res.check(got.text == want.text, "rendered tables differ between %s and %s", gotName, wantName)
	return inexact
}

// instructions is the warp instructions one matrix replays: every trace's
// records times its structural replays (each paradigm replays the
// workload's trace once; the baseline replays the one-GPU trace once).
func (p simPlan) instructions(recs map[traceKey]int) float64 {
	n := 0
	for _, app := range p.apps {
		n += recs[traceKey{app, p.gpus}] * len(p.kinds())
		n += recs[traceKey{app, 1}]
	}
	return float64(n)
}

// bestSum sums, over the positions of the rounds' samples, each
// position's smallest value: the round's work as it runs when the host
// does not slow it down.
func bestSum(rounds [][]float64) float64 {
	sum := 0.0
	for i := range rounds[0] {
		best := math.Inf(1)
		for _, r := range rounds {
			if i < len(r) {
				best = math.Min(best, r[i])
			}
		}
		sum += best
	}
	return sum
}

// reportE2E records the end-to-end metrics of the rounds: set-up and
// matrix CPU times are each step's or operation's best over the rounds,
// summed. The matrix wall time, summed the same way, is returned.
func (p simPlan) reportE2E(res *result, rounds []simRound, recs map[traceKey]int) (wall float64) {
	var steps, walls, cpus [][]float64
	for _, rd := range rounds {
		if rd.out == nil {
			continue // failed; counted by checkRound
		}
		steps, walls, cpus = append(steps, rd.steps), append(walls, rd.opWall), append(cpus, rd.opCPU)
	}
	if len(walls) == 0 {
		return 0
	}
	cpu := bestSum(cpus)
	res.setE2E("setup_s", bestSum(steps), "s")
	res.setE2E("run_cpu_s", cpu, "s")
	res.setE2E("minst_per_cpu_s", p.instructions(recs)/1e6/cpu, "Minst/s")
	res.setE2E("jobs_per_cpu_s", float64(len(p.cells())+len(p.apps))/cpu, "1/s")
	res.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	return bestSum(walls)
}

func runSim(p simPlan, cfg runConfig, res *result) error {
	budget := "default (4 GiB)"
	if p.spill {
		budget = "stepped below the compressed trace bytes (every trace spills)"
	}
	res.note("load: 1 process, experiments runner with 1 worker and no shards, trace budget %s", budget)
	if cfg.Trace {
		return tracedSim(p, cfg, res)
	}
	var rounds []simRound
	var runs []float64
	var ref *simOutput
	var recs map[traceKey]int
	inexact := 0
	start := time.Now()
	for n := 0; n < cfg.MinRuns || time.Since(start).Seconds() < cfg.Seconds; n++ {
		rd := p.round()
		if ref == nil {
			ref, recs = rd.out, rd.records
		}
		inexact += p.checkRound(res, rd, ref)
		rounds, runs = append(rounds, rd), append(runs, rd.run)
	}
	wall := p.reportE2E(res, rounds, recs)
	res.note("rounds: %d (matrix wall %v, best per operation %.3f s); cells matching the first round only up to timing noise: %d",
		len(runs), runs, wall, inexact)
	return nil
}

// tracedSim measures one untraced round for the reference outputs, the
// matrix wall time and the runner's counters, then replays the same cells
// layer by layer and checks that every simulated statistic matches.
func tracedSim(p simPlan, cfg runConfig, res *result) error {
	rd := p.round()
	if rd.out == nil {
		return fmt.Errorf("reference round: %v", rd.err)
	}
	p.checkRound(res, rd, rd.out)
	p.reportE2E(res, []simRound{rd}, rd.records)
	res.setLayer("bench.run_wall_s", rd.run, "s")
	runtime.GC()

	var sf *trace.SpillFile
	if p.spill {
		var err error
		if sf, err = trace.NewSpillFile(cfg.OutDir); err != nil {
			return err
		}
		defer sf.Close()
	}
	acc := newLayerAcc()
	log := res.spans
	top := log.begin(0, res.workload)
	direct, err := layerReplay(p, log, top, acc, sf)
	if err != nil {
		return err
	}
	var text string
	renderS := log.timed(top, "stats.render", func(*span) { text, _ = p.render(direct) })
	log.end(top)

	direct.text = text
	inexact := compareOutputs(res, "layer replay", direct, "runner", rd.out)
	res.setLayer("timing.inexact_cells", float64(inexact), "count")
	res.check(acc.replays == int64(rd.cache.EngineRuns), "layer replay ran %d replays, the runner %d",
		acc.replays, rd.cache.EngineRuns)
	res.check(acc.timingCalls == int64(len(p.cells())+len(p.apps)), "layer replay priced %d cells, want %d",
		acc.timingCalls, len(p.cells())+len(p.apps))
	res.check(float64(acc.recordsDecoded) == p.instructions(rd.records), "layer replay decoded %d records, the runner replays %.0f",
		acc.recordsDecoded, p.instructions(rd.records))
	if sf != nil {
		res.check(sf.Reads()-acc.standaloneSpillReads == rd.cache.SpillBlockReads,
			"layer replay read %d spilled blocks, the runner %d", sf.Reads()-acc.standaloneSpillReads, rd.cache.SpillBlockReads)
	}
	acc.report(res, renderS, rd.run)
	runnerLayers(res, rd.cache)
	res.zeroLayers(gpsdLayerPrefixes...)
	return nil
}
