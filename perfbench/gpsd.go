package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gps/internal/client"
	"gps/internal/cluster"
	"gps/internal/experiments"
	"gps/internal/httpapi"
	"gps/internal/interconnect"
	"gps/internal/paradigm"
	"gps/internal/service"
	"gps/internal/stats"
	"gps/internal/workload"
)

// The gpsd-mixed load: a closed loop of gpsdClients callers against
// gpsdNodes in-process nodes. Each round issues one fresh spec per Table 2
// app and as many repeat specs drawn from the hot set, in a seeded order
// and through seeded entry nodes; the callers take the round's jobs in
// turn, each waiting for its result before taking the next.
const (
	gpsdNodes     = 3
	gpsdClients   = 2
	hotSetSize    = 8
	gpsdSetups    = 3 // set-up is timed this many times; the last cluster serves the load
	pollInterval  = 5 * time.Millisecond
	minClassJobs  = 100 // per class, so each p90 has ten samples beyond it
	maxLoadWindow = 120 * time.Second
)

var freshFabrics = []string{"pcie4", "pcie6"}

// matrixSpec is one app under GPS at 4 GPUs priced on freshFabrics.
func matrixSpec(app string, seed int64, iterations int) service.Spec {
	spec := service.Spec{Type: "matrix", Seed: seed, Iterations: iterations}
	for _, f := range freshFabrics {
		spec.Cells = append(spec.Cells, service.CellSpec{App: app, Paradigm: "GPS", GPUs: 4, Fabric: f})
	}
	return spec
}

// hotSpec is hot-set entry i: cheaper to warm (one iteration) than a
// fresh spec; its cost never shows in the measured window.
func hotSpec(seed int64, i int) service.Spec {
	apps := workload.Names()
	return matrixSpec(apps[i%len(apps)], seed*1_000_000+int64(i)+1, 1)
}

type gpsdNode struct {
	id      string
	url     string
	svc     *service.Server
	clu     *cluster.Cluster
	journal *service.Journal
	srv     *http.Server
	served  chan struct{} // closed when Serve returns
}

// gpsdCluster is gpsdNodes fully wired nodes on loopback listeners, each
// with a journal replicating to its ring successor, one worker, and no
// steal or probe loops.
type gpsdCluster struct {
	nodes   []*gpsdNode
	clients []*client.Client // one per node, shared by the callers
}

func bootCluster(dir string) (*gpsdCluster, error) {
	gc := &gpsdCluster{}
	for i := 0; i < gpsdNodes; i++ {
		id := fmt.Sprintf("n%d", i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			gc.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		j, err := service.OpenJournal(filepath.Join(dir, id+".journal"))
		if err != nil {
			ln.Close()
			gc.close()
			return nil, err
		}
		n := &gpsdNode{id: id, url: "http://" + ln.Addr().String(), journal: j, served: make(chan struct{})}
		n.clu = cluster.New(cluster.Config{Self: id, StealInterval: -1})
		n.svc = service.New(service.Config{
			NodeID:       id,
			Workers:      1,
			CacheEntries: 1 << 16, // the hot set must never be evicted by fresh results
			Journal:      j,
			RemoteResult: n.clu.FetchPeerResult,
		})
		n.clu.Bind(n.svc)
		j.SetSink(n.clu)
		n.clu.EnableReplication()
		n.srv = &http.Server{Handler: httpapi.New(n.svc, httpapi.WithCluster(n.clu))}
		go func() {
			defer close(n.served)
			n.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
		}()
		gc.nodes = append(gc.nodes, n)
		gc.clients = append(gc.clients, client.New(n.url))
	}
	for _, a := range gc.nodes {
		for _, b := range gc.nodes {
			if a != b {
				a.clu.AddPeer(b.id, b.url)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for !gc.allAlive() {
		for _, n := range gc.nodes {
			n.clu.ProbeOnce(ctx)
		}
		if ctx.Err() != nil {
			gc.close()
			return nil, errors.New("nodes never saw their peers alive")
		}
	}
	for _, n := range gc.nodes {
		n.clu.FlushReplication(ctx) // the initial snapshot arms the inline stream
	}
	return gc, nil
}

func (gc *gpsdCluster) allAlive() bool {
	for _, n := range gc.nodes {
		for _, m := range gc.nodes {
			if m == n {
				continue
			}
			if p, ok := n.clu.Peer(m.id); !ok || !p.Alive() {
				return false
			}
		}
	}
	return true
}

// close stops every node and waits for its server goroutine to exit.
func (gc *gpsdCluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range gc.nodes {
		n.srv.Close() //nolint:errcheck // listener teardown
		<-n.served
		n.svc.Shutdown(ctx) //nolint:errcheck // idle by now: every job has finished
		n.journal.Close()   //nolint:errcheck // scratch journal
	}
}

func (gc *gpsdCluster) owner(spec service.Spec) (int, error) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return 0, err
	}
	o := gc.nodes[0].clu.Owner(canon.Hash())
	for i, n := range gc.nodes {
		if n.id == o {
			return i, nil
		}
	}
	return 0, fmt.Errorf("owner %q is not a node", o)
}

// gpsdJob is one submission of the load.
type gpsdJob struct {
	spec   service.Spec
	repeat bool
	hot    int // hot-set index of a repeat spec
	entry  int // node the caller submits through
	owner  int
}

// jobResult is what one caller observed for one job.
type jobResult struct {
	job     gpsdJob
	ok      bool
	why     string
	latency time.Duration
	polls   int
	status  service.Status
	outcome string
	body    []byte
	submit  time.Duration // submit call alone
	result  time.Duration // result call alone
}

// run submits job through its entry node, polls until it is terminal and
// reads the result body. Per-call spans are recorded when log is non-nil.
func (gc *gpsdCluster) run(ctx context.Context, job gpsdJob, log *spanLog) jobResult {
	jr := jobResult{job: job}
	c := gc.clients[job.entry]
	var root *span
	if log != nil {
		root = log.begin(0, "job")
		defer log.end(root)
	}
	call := func(name string, fn func()) time.Duration {
		if log == nil {
			t := time.Now()
			fn()
			return time.Since(t)
		}
		s := log.begin(root.ID, name)
		fn()
		log.end(s)
		return time.Duration(s.dur() * 1e9)
	}
	start := time.Now()
	var sub client.SubmitResult
	var err error
	jr.submit = call("client.submit", func() { sub, err = c.Submit(ctx, job.spec) })
	if err != nil {
		jr.why = fmt.Sprintf("submit: %v", err)
		return jr
	}
	jr.outcome, jr.status = sub.Outcome, sub.Status
	for !jr.status.State.Terminal() {
		time.Sleep(pollInterval)
		call("client.status", func() { jr.status, err = c.Status(ctx, sub.ID) })
		jr.polls++
		if err != nil {
			jr.why = fmt.Sprintf("status: %v", err)
			return jr
		}
	}
	var code int
	jr.result = call("client.result", func() {
		code, jr.body, err = c.Do(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil, nil)
	})
	jr.latency = time.Since(start)
	switch {
	case err != nil:
		jr.why = fmt.Sprintf("result: %v", err)
	case jr.status.State != service.StateDone:
		jr.why = fmt.Sprintf("job ended %s: %s", jr.status.State, jr.status.Error)
	case code/100 != 2:
		jr.why = fmt.Sprintf("result: HTTP %d", code)
	default:
		jr.ok = true
	}
	return jr
}

// warm boots a cluster and completes the hot set through it, capturing
// each hot spec's result bytes.
func warm(dir string, seed int64) (*gpsdCluster, [][]byte, error) {
	gc, err := bootCluster(dir)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	hot := make([][]byte, hotSetSize)
	for i := range hot {
		jr := gc.run(ctx, gpsdJob{spec: hotSpec(seed, i), entry: i % gpsdNodes}, nil)
		if !jr.ok {
			gc.close()
			return nil, nil, fmt.Errorf("warming hot spec %d: %s", i, jr.why)
		}
		hot[i] = jr.body
	}
	return gc, hot, nil
}

// roundJobs draws round r's jobs from the seed: one fresh spec per app
// and as many repeat specs, shuffled, each with a random entry node. Each
// fresh spec's seed is unique in the run and chosen so that the round's
// fresh jobs are spread evenly over their ring owners; the queueing they
// meet is then the same from round to round.
func roundJobs(gc *gpsdCluster, rng *rand.Rand, seed int64, r int) ([]gpsdJob, error) {
	apps := workload.Names()
	var jobs []gpsdJob
	for i, app := range apps {
		n := r*len(apps) + i
		job, err := gc.freshOwnedBy(app, seed*1_000_000+100_000+int64(n)*64, n%gpsdNodes)
		if err != nil {
			return nil, err
		}
		h := rng.Intn(hotSetSize)
		jobs = append(jobs, job, gpsdJob{spec: hotSpec(seed, h), repeat: true, hot: h})
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for i := range jobs {
		jobs[i].entry = rng.Intn(gpsdNodes)
		o, err := gc.owner(jobs[i].spec)
		if err != nil {
			return nil, err
		}
		jobs[i].owner = o
	}
	return jobs, nil
}

// freshOwnedBy returns app's fresh spec with the first seed from base on
// whose hash the ring places at node owner. Each seed misses with
// probability 2/3, so 64 candidates all miss with probability 6e-12.
func (gc *gpsdCluster) freshOwnedBy(app string, base int64, owner int) (gpsdJob, error) {
	for s := base; s < base+64; s++ {
		spec := matrixSpec(app, s, 0)
		o, err := gc.owner(spec)
		if err != nil {
			return gpsdJob{}, err
		}
		if o == owner {
			return gpsdJob{spec: spec}, nil
		}
	}
	return gpsdJob{}, fmt.Errorf("no seed in [%d, %d) places %s at n%d", base, base+64, app, owner)
}

// gpsdCounters are the cluster-wide counters read around the load.
type gpsdCounters struct {
	submitted, cacheHits, coalesced, peerFetched, journal uint64
	forwards, proxied                                     uint64
}

func (gc *gpsdCluster) counters(ctx context.Context) (gpsdCounters, error) {
	var c gpsdCounters
	fed, err := gc.clients[0].ClusterMetrics(ctx)
	if err != nil {
		return c, fmt.Errorf("cluster metrics: %w", err)
	}
	if len(fed.Nodes) != gpsdNodes {
		return c, fmt.Errorf("cluster metrics: %d nodes answered", len(fed.Nodes))
	}
	for _, n := range fed.Nodes {
		if n.Metrics == nil {
			return c, fmt.Errorf("cluster metrics: node %s: %s", n.Node, n.Error)
		}
		c.submitted += n.Metrics.JobsSubmitted
		c.cacheHits += n.Metrics.ResultCacheHits
		c.coalesced += n.Metrics.JobsCoalesced
		c.peerFetched += n.Metrics.JobsPeerFetched
		c.journal += n.Metrics.JournalRecords
	}
	for _, cl := range gc.clients {
		h, err := cl.Healthz(ctx)
		if err != nil || h.Cluster == nil {
			return c, fmt.Errorf("healthz %s: %v", cl.Base(), err)
		}
		c.forwards += h.Cluster.Forwards
		c.proxied += h.Cluster.ProxiedReads
	}
	return c, nil
}

func runGPSD(cfg runConfig, res *result) error {
	experiments.SetParallelism(1)
	experiments.SetShards(1)
	res.note("load: %d in-process gpsd nodes (1 worker, journal + replication, no steal/probe loops), "+
		"%d closed-loop clients, experiments runner with 1 worker and the default trace budget",
		gpsdNodes, gpsdClients)
	base, err := os.MkdirTemp(cfg.OutDir, "gpsd-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	var setups []float64
	var gc *gpsdCluster
	var hot [][]byte
	for i := 0; i < gpsdSetups; i++ {
		if gc != nil {
			gc.close()
		}
		experiments.Default.ResetCaches()
		dir := filepath.Join(base, fmt.Sprint(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		c := cpuSeconds()
		if gc, hot, err = warm(dir, cfg.Seed); err != nil {
			return err
		}
		setups = append(setups, cpuSeconds()-c)
	}
	defer gc.close()
	experiments.Default.ResetCaches()
	runtime.GC() // set-up's garbage is not the load's

	// A job that never ends fails its status poll once the load's deadline
	// passes, so the run still ends within its time limit.
	ctx, cancel := context.WithTimeout(context.Background(), maxLoadWindow+30*time.Second)
	defer cancel()
	before, err := gc.counters(ctx)
	if err != nil {
		return err
	}
	var log *spanLog
	if cfg.Trace {
		log = res.spans
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var (
		all                []jobResult
		walls, cpus, rates []float64
		hitLat, missLat    = latencies{name: "hit"}, latencies{name: "miss"}
		nhit, nmiss        int
		freshSample        []jobResult // the first round's fresh jobs, for the traced replay
		start              = time.Now()
		firstRound         experiments.CacheStats
	)
	for r := 0; ; r++ {
		enough := nhit >= minClassJobs && nmiss >= minClassJobs && time.Since(start).Seconds() >= cfg.Seconds
		if r >= cfg.MinRuns && (enough || time.Since(start) > maxLoadWindow) {
			break
		}
		jobs, err := roundJobs(gc, rng, cfg.Seed, r)
		if err != nil {
			return err
		}
		out := make([]jobResult, len(jobs))
		var next atomic.Int64
		var wg sync.WaitGroup
		c0, t0 := cpuSeconds(), time.Now()
		for w := 0; w < gpsdClients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					out[i] = gc.run(ctx, jobs[i], log)
				}
			}()
		}
		wg.Wait()
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0

		cs := experiments.Default.CacheStats()
		var freshInRound uint64
		instr := 0
		for _, jr := range out {
			if jr.job.repeat {
				continue
			}
			freshInRound++
			app, seed := jr.job.spec.Cells[0].App, jr.job.spec.Seed
			for _, g := range []int{4, 1} {
				rec, err := experiments.Default.Trace(app, workload.Config{NumGPUs: g, Iterations: 4, Scale: 1, Seed: seed})
				if err != nil {
					return err
				}
				instr += records(rec)
			}
		}
		if r == 0 {
			firstRound = cs
		}
		// Each fresh job replays its 4-GPU trace once (GPS) and its one-GPU
		// trace once (baseline); a repeat is served from the result cache.
		res.check(cs.EngineRuns == 2*freshInRound, "round %d: %d engine runs for %d fresh jobs (repeats must run none)",
			r, cs.EngineRuns, freshInRound)
		experiments.Default.ResetCaches()

		walls, cpus = append(walls, wall), append(cpus, cpu)
		rates = append(rates, float64(instr)/1e6/cpu)
		for _, jr := range out {
			if !res.check(jr.ok, "job %s: %s", describeJob(jr.job), jr.why) {
				continue
			}
			if jr.job.repeat {
				nhit++
				hitLat.add(jr.latency)
				res.check(jr.outcome == "cached", "repeat %s: outcome %q, want cached", describeJob(jr.job), jr.outcome)
				res.check(string(jr.body) == string(hot[jr.job.hot]),
					"repeat %s: result differs from the warm-up report", describeJob(jr.job))
			} else {
				nmiss++
				missLat.add(jr.latency)
				res.check(jr.outcome == "accepted", "fresh %s: outcome %q, want accepted", describeJob(jr.job), jr.outcome)
				res.check(matrixRows(jr.body) == len(freshFabrics), "fresh %s: result lacks its matrix table", describeJob(jr.job))
				if r == 0 {
					freshSample = append(freshSample, jr)
				}
			}
		}
		all = append(all, out...)
	}
	after, err := gc.counters(ctx)
	if err != nil {
		return err
	}

	cpu := median(cpus)
	jobsPerRound := float64(2 * len(workload.Names()))
	res.setE2E("setup_s", median(setups), "s")
	res.setE2E("run_cpu_s", cpu, "s")
	res.setE2E("minst_per_cpu_s", median(rates), "Minst/s")
	res.setE2E("jobs_per_cpu_s", jobsPerRound/cpu, "1/s")
	res.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	res.note("rounds: %d of %.0f jobs (wall %v, median %.3f s)", len(walls), jobsPerRound, walls, median(walls))
	for _, l := range []*latencies{&hitLat, &missLat} {
		p50, ok50 := l.percentile(0.5)
		p90, ok90 := l.percentile(0.9)
		res.note("%s latency: p50 %.3f ms, p90 %.3f ms over %d jobs (tails ok: %v, %v)", l.name, p50, p90, len(l.ms), ok50, ok90)
	}
	if !cfg.Trace {
		// The latency percentiles are per-layer metrics; an untraced run
		// still refuses a percentile without its tail.
		for _, l := range []*latencies{&hitLat, &missLat} {
			_, ok := l.percentile(0.9)
			res.check(ok, "%s p90: %d samples leave fewer than %d beyond it", l.name, len(l.ms), minTail)
		}
		return nil
	}
	res.setLayer("bench.run_wall_s", median(walls), "s")
	gpsdLayers(res, all, &hitLat, &missLat, before, after)
	runnerLayers(res, firstRound)
	return tracedGPSD(cfg, res, freshSample)
}

func describeJob(j gpsdJob) string {
	kind := "fresh"
	if j.repeat {
		kind = "repeat"
	}
	return fmt.Sprintf("%s %s seed %d via n%d (owner n%d)", kind, j.spec.Cells[0].App, j.spec.Seed, j.entry, j.owner)
}

// reportTables is the part of a report body the checks read.
type reportTables struct {
	Tables []struct {
		Name string `json:"name"`
		Text string `json:"text"`
	} `json:"tables"`
}

// matrixRows counts the cell rows of a report's matrix table (-1: none).
func matrixRows(body []byte) int {
	text, ok := matrixText(body)
	if !ok {
		return -1
	}
	return strings.Count(text, "/GPS/4gpu/")
}

func matrixText(body []byte) (string, bool) {
	var rep reportTables
	if json.Unmarshal(body, &rep) != nil {
		return "", false
	}
	for _, t := range rep.Tables {
		if t.Name == "matrix" {
			return t.Text, true
		}
	}
	return "", false
}

// gpsdLayers records the service, cluster and client per-layer metrics of
// the traced load.
func gpsdLayers(res *result, all []jobResult, hitLat, missLat *latencies, before, after gpsdCounters) {
	hitLat.report(res, "client.hit")
	missLat.report(res, "client.miss")
	var submitLocal, submitFwd, resultLocal, resultProxied, wait, exec latencies
	polls := 0
	for _, jr := range all {
		if !jr.ok {
			continue
		}
		polls += jr.polls
		if jr.job.entry == jr.job.owner {
			submitLocal.add(jr.submit)
			resultLocal.add(jr.result)
		} else {
			submitFwd.add(jr.submit)
			resultProxied.add(jr.result)
		}
		if !jr.job.repeat {
			wait.add(time.Duration(jr.status.WaitSeconds * 1e9))
			exec.add(time.Duration(jr.status.WallSeconds * 1e9))
		}
	}
	submitLocal.reportOne(res, "httpapi.submit_local_ms_p50", 0.5)
	submitFwd.reportOne(res, "cluster.submit_forwarded_ms_p50", 0.5)
	resultLocal.reportOne(res, "httpapi.result_local_ms_p50", 0.5)
	resultProxied.reportOne(res, "cluster.result_proxied_ms_p50", 0.5)
	wait.reportOne(res, "service.queue_wait_ms_p50", 0.5)
	wait.reportOne(res, "service.queue_wait_ms_p90", 0.9)
	exec.reportOne(res, "service.exec_ms_p50", 0.5)
	exec.reportOne(res, "service.exec_ms_p90", 0.9)
	n := float64(len(all))
	res.setLayer("client.polls_per_job", float64(polls)/n, "count/job")
	res.setLayer("service.journal_records", float64(after.journal-before.journal)/n, "count/job")
	res.setLayer("service.cache_hit_frac", float64(after.cacheHits-before.cacheHits)/float64(after.submitted-before.submitted), "frac")
	res.setLayer("service.coalesced", float64(after.coalesced-before.coalesced), "count")
	res.setLayer("service.peer_fetched", float64(after.peerFetched-before.peerFetched), "count")
	res.setLayer("cluster.forwards", float64(after.forwards-before.forwards), "count")
	res.setLayer("cluster.proxied_reads", float64(after.proxied-before.proxied), "count")
}

// freshPlan is the simulator work one fresh spec asks gpsd for.
func freshPlan(app string, seed int64) simPlan {
	return simPlan{
		seed: seed,
		apps: []string{app},
		gpus: 4,
		only: []paradigm.Kind{paradigm.KindGPS},
		fabrics: func(paradigm.Kind) []*interconnect.Fabric {
			fabs := make([]*interconnect.Fabric, len(freshFabrics))
			for i, f := range freshFabrics {
				fab, err := interconnect.ByName(f, 4)
				if err != nil {
					panic(err) // freshFabrics are valid names
				}
				fabs[i] = fab
			}
			return fabs
		},
	}
}

// renderMatrix renders a fresh spec's result table the way gpsd reports a
// matrix job: one row per cell with simulated times, speedup and bytes.
func renderMatrix(p simPlan, out *simOutput) string {
	tb := stats.NewTable("Custom matrix", "cell", "total ms", "steady ms", "speedup", "fabric MB")
	tb.Fmt = "%10.3f"
	app := p.apps[0]
	for i, fab := range p.fabrics(paradigm.KindGPS) {
		cs := out.cells[cellKey{app, paradigm.KindGPS, 4, fab.Name()}]
		tb.AddRow(fmt.Sprintf("%s/GPS/4gpu/%s", app, freshFabrics[i]),
			cs.total*1e3, cs.steady*1e3, stats.Speedup(out.bases[app], cs.steady), float64(cs.bytes)/1e6)
	}
	return tb.String()
}

// tracedGPSD replays the first round's fresh jobs layer by layer and checks
// each against the table gpsd returned for it.
func tracedGPSD(cfg runConfig, res *result, sample []jobResult) error {
	acc := newLayerAcc()
	top := res.spans.begin(0, "gpsd-fresh-replay")
	renderS, execS := 0.0, 0.0
	for _, jr := range sample {
		p := freshPlan(jr.job.spec.Cells[0].App, jr.job.spec.Seed)
		out, err := layerReplay(p, res.spans, top, acc, nil)
		if err != nil {
			return err
		}
		var text string
		renderS += res.spans.timed(top, "stats.render", func(*span) { text = renderMatrix(p, out) })
		got, _ := matrixText(jr.body)
		res.check(got == text, "fresh %s: gpsd's table differs from the layer replay:\n%s\nvs\n%s", describeJob(jr.job), got, text)
		execS += jr.status.WallSeconds
	}
	res.spans.end(top)
	acc.report(res, renderS, execS)
	// gpsd reports simulated times rounded to the microsecond, where the
	// timing solve's last-bit noise does not show.
	res.setLayer("timing.inexact_cells", 0, "count")
	return nil
}
