package main

import (
	"fmt"
	"unsafe"

	"gps/internal/engine"
	"gps/internal/interconnect"
	"gps/internal/paradigm"
	"gps/internal/timing"
	"gps/internal/trace"
	"gps/internal/workload"
)

// modelKeys names each Figure 8 paradigm in the per-layer metrics.
var modelKeys = map[paradigm.Kind]string{
	paradigm.KindUM:       "um",
	paradigm.KindUMHints:  "um_hints",
	paradigm.KindRDL:      "rdl",
	paradigm.KindMemcpy:   "memcpy",
	paradigm.KindGPS:      "gps",
	paradigm.KindInfinite: "infinite",
}

// layerAcc accumulates the traced replay's per-layer time and work. Decode
// and expansion are timed once per trace by standalone passes and charged
// once per replay of that trace; a paradigm's model time is its engine.Run
// time minus that trace's decode and expansion time.
type layerAcc struct {
	buildS, decodeS, spillS, expandS, newS, replayS, simulateS float64
	modelS                                                     map[paradigm.Kind]float64
	recordsBuilt, recordsDecoded, blocksDecoded, linesExpanded int64
	replays, timingCalls, timingPhases                         int64
	compressedBytes, logicalBytes                              int64
	standaloneSpillReads                                       uint64
	tracedWall                                                 float64 // replay + timing spans, including span bookkeeping
}

func newLayerAcc() *layerAcc { return &layerAcc{modelS: map[paradigm.Kind]float64{}} }

// timed runs fn under a span named name, child of parent.
func (l *spanLog) timed(parent *span, name string, fn func(*span)) float64 {
	s := l.begin(parent.ID, name)
	fn(s)
	l.end(s)
	return s.dur()
}

// passStats is one standalone pass over a trace.
type passStats struct {
	secs                   float64
	records, blocks, lines int64
}

// decodePass decodes every block of rec once with a trace.BlockDecoder.
func decodePass(log *spanLog, parent *span, name string, rec *trace.Recorded) (passStats, error) {
	var ps passStats
	var dec trace.BlockDecoder
	var err error
	ps.secs = log.timed(parent, name, func(s *span) {
		for i := range rec.Ph {
			for k := range rec.Ph[i].Kernels {
				err = rec.Ph[i].Kernels[k].EachBlock(&dec, func(accs []trace.Access) bool {
					ps.records += int64(len(accs))
					ps.blocks++
					return true
				})
				if err != nil {
					return
				}
			}
		}
		s.count("records", ps.records)
		s.count("blocks", ps.blocks)
	})
	return ps, err
}

// expandPass decodes rec and coalesces every instruction into cache lines
// with an engine.Expander.
func expandPass(log *spanLog, parent *span, rec *trace.Recorded) (passStats, error) {
	var ps passStats
	var dec trace.BlockDecoder
	var err error
	exp := engine.NewExpander(engine.LineBytes)
	var lines []uint64
	ps.secs = log.timed(parent, "engine.expand", func(s *span) {
		for i := range rec.Ph {
			for k := range rec.Ph[i].Kernels {
				err = rec.Ph[i].Kernels[k].EachBlock(&dec, func(accs []trace.Access) bool {
					for _, a := range accs {
						lines = exp.AppendLines(lines[:0], a)
						ps.lines += int64(len(lines))
					}
					ps.records += int64(len(accs))
					return true
				})
				if err != nil {
					return
				}
			}
		}
		s.count("lines", ps.lines)
	})
	return ps, err
}

// layerReplay replays plan p layer by layer, calling each layer's public
// functions under spans: trace build, standalone decode and expansion
// passes, then paradigm.New + engine.Run per paradigm and timing.Simulate
// per fabric. It returns the simulated outputs for comparison with the
// runner's. sf, when non-nil, receives every trace's blocks after its
// standalone resident decode pass, so replays read them back from disk.
func layerReplay(p simPlan, log *spanLog, parent *span, acc *layerAcc, sf *trace.SpillFile) (*simOutput, error) {
	out := &simOutput{cells: map[cellKey]cellStats{}, steady: map[cellKey]float64{}, bases: map[string]float64{}}
	for _, app := range p.apps {
		root := log.begin(parent.ID, "app/"+app)
		for _, g := range p.traceGPUs() {
			spec, err := workload.ByName(app)
			if err != nil {
				return nil, err
			}
			var rec *trace.Recorded
			acc.buildS += log.timed(root, "workload.build", func(s *span) {
				rec = trace.Collect(spec.Build(p.wcfg(g)))
				n := int64(records(rec))
				s.count("records", n)
				acc.recordsBuilt += n
				acc.logicalBytes += n * int64(unsafe.Sizeof(trace.Access{}))
				for i := range rec.Ph {
					for k := range rec.Ph[i].Kernels {
						if c := rec.Ph[i].Kernels[k].Col; c != nil {
							acc.compressedBytes += int64(c.CompressedBytes())
						}
					}
				}
			})
			dec, err := decodePass(log, root, "trace.decode", rec)
			if err != nil {
				return nil, err
			}
			read := dec // the decode pass whose residency matches the replays
			var before uint64
			if sf != nil {
				var serr error
				log.timed(root, "trace.spill", func(*span) { _, serr = rec.Spill(sf) })
				if serr != nil {
					return nil, fmt.Errorf("spill %s/%d: %w", app, g, serr)
				}
				before = sf.Reads()
				if read, err = decodePass(log, root, "trace.decode_spilled", rec); err != nil {
					return nil, err
				}
			}
			exp, err := expandPass(log, root, rec)
			if err != nil {
				return nil, err
			}
			if sf != nil {
				acc.standaloneSpillReads += sf.Reads() - before
			}
			if err := p.replayTrace(log, root, acc, out, app, g, rec, dec, read, exp); err != nil {
				return nil, err
			}
		}
		log.end(root)
	}
	return out, nil
}

// replayTrace is layerReplay's per-trace step: every paradigm the plan
// replays on rec, each priced on its fabrics. The one-GPU trace replays
// only the infinite-bandwidth baseline.
func (p simPlan) replayTrace(log *spanLog, root *span, acc *layerAcc, out *simOutput,
	app string, g int, rec *trace.Recorded, dec, read, exp passStats) error {
	kinds, fabrics := p.kinds(), p.fabrics
	baseline := g == 1 && p.gpus != 1
	if baseline {
		kinds = []paradigm.Kind{paradigm.KindInfinite}
		fabrics = func(paradigm.Kind) []*interconnect.Fabric {
			return []*interconnect.Fabric{interconnect.Infinite(1)}
		}
	}
	n := float64(len(kinds))
	expandOnly := exp.secs - read.secs
	acc.decodeS += dec.secs * n
	acc.spillS += (read.secs - dec.secs) * n
	acc.expandS += expandOnly * n
	acc.recordsDecoded += dec.records * int64(len(kinds))
	acc.blocksDecoded += dec.blocks * int64(len(kinds))
	acc.linesExpanded += exp.lines * int64(len(kinds))

	replay := log.begin(root.ID, "replay")
	for _, kind := range kinds {
		var model engine.Model
		var err error
		acc.newS += log.timed(replay, "paradigm.new", func(*span) {
			model, err = paradigm.New(kind, rec, paradigm.DefaultConfig())
		})
		if err != nil {
			return fmt.Errorf("paradigm.New %s on %s/%d: %w", kind, app, g, err)
		}
		var res *engine.Result
		runS := log.timed(replay, "engine.run", func(s *span) {
			res = engine.Run(rec, model)
			s.count("replays", 1)
			s.count("records", dec.records)
		})
		acc.replayS += runS
		acc.replays++
		acc.modelS[kind] += runS - read.secs - expandOnly
		for _, fab := range fabrics(kind) {
			var rep *timing.Report
			acc.simulateS += log.timed(replay, "timing.simulate", func(s *span) {
				rep = timing.Simulate(res, timing.DefaultConfig(fab))
				s.count("phases", int64(len(rep.Phases)))
			})
			acc.timingCalls++
			acc.timingPhases += int64(len(rep.Phases))
			if baseline {
				out.bases[app] = rep.SteadyTotal()
				continue
			}
			k := cellKey{app, kind, g, fab.Name()}
			out.cells[k] = statsOf(rep, res)
			out.steady[k] = rep.SteadyTotal()
		}
	}
	log.end(replay)
	acc.tracedWall += replay.dur()
	return nil
}

// layerSum is the traced replay's layer total: the time inside layer
// calls that the runner's matrix also pays for (the standalone passes and
// trace builds are excluded; decode and expansion are inside engine.Run).
func (a *layerAcc) layerSum(renderS float64) float64 {
	return a.newS + a.replayS + a.simulateS + renderS
}

// report records the simulator-layer metrics, the layer shares of the
// traced layer total, and the runner overhead against wallS, the wall time
// of the same work through the runner (or gpsd).
func (a *layerAcc) report(res *result, renderS, wallS float64) {
	res.setLayer("workload.build_s", a.buildS, "s")
	res.setLayer("workload.records_built", float64(a.recordsBuilt), "count")
	res.setLayer("trace.compressed_bytes", float64(a.compressedBytes), "bytes")
	res.setLayer("trace.logical_bytes", float64(a.logicalBytes), "bytes")
	res.setLayer("trace.decode_s", a.decodeS, "s")
	res.setLayer("trace.records_decoded", float64(a.recordsDecoded), "count")
	res.setLayer("trace.blocks_decoded", float64(a.blocksDecoded), "count")
	res.setLayer("trace.spill_s", a.spillS, "s")
	res.setLayer("engine.expand_s", a.expandS, "s")
	res.setLayer("engine.lines_expanded", float64(a.linesExpanded), "count")
	res.setLayer("engine.replay_s", a.replayS, "s")
	res.setLayer("engine.replays", float64(a.replays), "count")
	res.setLayer("paradigm.new_s", a.newS, "s")
	model := 0.0
	for _, k := range paradigm.Figure8Kinds() {
		res.setLayer("paradigm."+modelKeys[k]+".model_s", a.modelS[k], "s")
		model += a.modelS[k]
	}
	res.setLayer("timing.simulate_s", a.simulateS, "s")
	res.setLayer("timing.calls", float64(a.timingCalls), "count")
	res.setLayer("timing.phases", float64(a.timingPhases), "count")
	res.setLayer("stats.render_s", renderS, "s")

	sum := a.layerSum(renderS)
	share := func(v float64) float64 {
		if sum <= 0 {
			return 0
		}
		return v / sum
	}
	res.setLayer("trace.share", share(a.decodeS+a.spillS), "frac")
	res.setLayer("engine.share", share(a.expandS), "frac")
	res.setLayer("paradigm.share", share(a.newS+model), "frac")
	res.setLayer("timing.share", share(a.simulateS), "frac")
	res.setLayer("stats.share", share(renderS), "frac")
	res.setLayer("bench.layer_sum_s", sum, "s")
	res.setLayer("bench.tracing_overhead_s", a.tracedWall+renderS-sum, "s")
	res.setLayer("experiments.overhead_s", wallS-sum, "s")
}
