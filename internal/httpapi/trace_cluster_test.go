package httpapi

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gps/internal/client"
	"gps/internal/obs"
	"gps/internal/report"
	"gps/internal/service"
)

// withTraceDirs returns a newTestCluster config option giving every node its
// own trace directory under root, plus a lookup from node id to that
// directory.
func withTraceDirs(t *testing.T) (func(*service.Config), func(id string) string) {
	t.Helper()
	root := t.TempDir()
	dirOf := func(id string) string { return filepath.Join(root, id) }
	opt := func(cfg *service.Config) {
		d := dirOf(cfg.NodeID)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		cfg.TraceDir = d
	}
	return opt, dirOf
}

// collectTraces reads every *.trace.json under each node's trace directory,
// keyed "<node>/<file>" so same-named files from different nodes never
// collide.
func collectTraces(t *testing.T, dirOf func(string) string, ids ...string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for _, id := range ids {
		entries, err := os.ReadDir(dirOf(id))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".trace.json") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dirOf(id), e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[id+"/"+e.Name()] = data
		}
	}
	return files
}

// waitClusterTrace polls the per-node trace directories until the files
// validate as a cluster and the trace with the wanted id satisfies ok, or
// fails after a deadline. Polling absorbs the tracer's asynchronous final
// flush: a job is terminal a beat before its file is complete on disk.
func waitClusterTrace(t *testing.T, dirOf func(string) string, ids []string,
	traceID string, ok func(obs.ClusterTrace) bool) (*obs.ClusterSummary, obs.ClusterTrace) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var lastErr error
	for {
		files := collectTraces(t, dirOf, ids...)
		sum, err := obs.ValidateClusterTraces(files)
		lastErr = err
		if err == nil {
			for _, ct := range sum.Traces {
				if ct.TraceID == traceID && ok(ct) {
					return sum, ct
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never satisfied condition (last validate err: %v)", traceID, lastErr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterTraceForwardedAndStolenJob is the tentpole acceptance path for
// distributed tracing: a job submitted through a non-owner node is forwarded
// to its owner, stolen by a third node while the owner's worker is wedged,
// and executed there. The per-node trace files must join into ONE connected
// trace — a single trace_id with every parent_span_id resolving across
// files, spanning both the owner and the thief.
func TestClusterTraceForwardedAndStolenJob(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	traceOpt, dirOf := withTraceDirs(t)
	nodes := newTestCluster(t, []string{"a", "b", "c"},
		func(id string, n *clusterNode) service.ExecuteFunc {
			if id != "b" {
				return nil // forwarder and thief execute instantly
			}
			return func(ctx context.Context, spec service.Spec) (*report.Report, error) {
				n.exec.Add(1)
				started <- struct{}{}
				select {
				case <-release:
					return &report.Report{ParallelWorkers: 1}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		}, traceOpt)

	// Two specs owned by b, both submitted through a (so each crosses the
	// forward hop): the first wedges b's only worker, the second queues and
	// becomes steal bait.
	specs := specsOwnedBy(t, nodes["a"], "b", 2)
	blocker := submitVia(t, nodes["a"], specs[0])
	<-started
	bait := submitVia(t, nodes["a"], specs[1])
	if bait.NodeID != "b" {
		t.Fatalf("bait job %s landed on %q, want its owner b", bait.ID, bait.NodeID)
	}

	// c's probe sees b overloaded (1/1 busy, 1 queued) and steals the bait.
	nodes["c"].clu.ProbeOnce(context.Background())
	if !nodes["c"].clu.StealOnce(context.Background()) {
		t.Fatal("StealOnce declined with an overloaded victim")
	}
	st, err := nodes["a"].c.WaitTerminal(context.Background(), bait.ID, 5*time.Millisecond)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("stolen job: state %s err %v", st.State, err)
	}
	if st.StolenBy != "c" {
		t.Fatalf("stolen_by = %q, want c", st.StolenBy)
	}
	if st.Trace == nil || st.Trace.TraceID == "" {
		t.Fatalf("terminal status carries no trace identity: %+v", st)
	}

	// Unwedge b so the blocker finishes and its trace file closes cleanly.
	close(release)
	if st2, err := nodes["a"].c.WaitTerminal(context.Background(), blocker.ID, 5*time.Millisecond); err != nil || st2.State != service.StateDone {
		t.Fatalf("blocker job: state %s err %v", st2.State, err)
	}

	// The bait's trace must span the victim (handoff span for the stolen
	// job) and the thief (the execution), all under one trace_id with valid
	// cross-file parent links — ValidateClusterTraces errors on any dangling
	// parent_span_id, so success here IS the connectivity proof.
	_, ct := waitClusterTrace(t, dirOf, []string{"a", "b", "c"}, st.Trace.TraceID,
		func(ct obs.ClusterTrace) bool { return ct.CrossNode() && ct.Roots >= 1 })
	want := []string{"gpsd-b", "gpsd-c"} // trace process names follow gpsd-<node>
	if len(ct.Nodes) != len(want) || ct.Nodes[0] != want[0] || ct.Nodes[1] != want[1] {
		t.Fatalf("trace nodes = %v, want %v", ct.Nodes, want)
	}
	if len(ct.Files) < 2 {
		t.Fatalf("trace files = %v, want spans from 2+ files", ct.Files)
	}
}

// TestClusterTraceAdoptedJobKeepsIdentity covers the crash path: the owner
// of queued jobs is SIGKILLed, the ring successor adopts and executes them,
// and every adopted job must retain the trace identity minted at the
// original submit — the successor's trace file carries the original
// trace_id and validates as one connected trace.
func TestClusterTraceAdoptedJobKeepsIdentity(t *testing.T) {
	release := make(chan struct{})
	var released bool
	defer func() {
		if !released {
			close(release)
		}
	}()
	traceOpt, dirOf := withTraceDirs(t)
	nodes := newTestCluster(t, []string{"a", "b", "c"},
		func(id string, n *clusterNode) service.ExecuteFunc {
			if id != "b" {
				return nil
			}
			return func(ctx context.Context, spec service.Spec) (*report.Report, error) {
				n.exec.Add(1)
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return &report.Report{ParallelWorkers: 1}, nil
			}
		}, traceOpt)

	specs := specsOwnedBy(t, nodes["a"], "b", 2)
	type traced struct{ id, traceID string }
	jobs := make([]traced, 0, len(specs))
	for _, spec := range specs {
		sub := submitVia(t, nodes["a"], spec)
		// The trace identity is minted at submit on the owner; capture it
		// before the kill so the post-adoption check is against the original.
		st, err := nodes["b"].c.Status(context.Background(), sub.ID)
		if err != nil || st.Trace == nil || st.Trace.TraceID == "" {
			t.Fatalf("pre-kill status of %s: trace missing (err %v)", sub.ID, err)
		}
		jobs = append(jobs, traced{id: sub.ID, traceID: st.Trace.TraceID})
	}
	time.Sleep(50 * time.Millisecond) // let b wedge on the first job

	killNode(t, nodes, "b")
	succ := ownerOf(t, nodes["a"], specs[0])
	if succ == "" || succ == "b" {
		t.Fatalf("no takeover target for b: %q", succ)
	}

	survivors := []string{"a", "c"}
	for _, j := range jobs {
		st, err := nodes[succ].c.WaitTerminal(context.Background(), j.id, 5*time.Millisecond)
		if err != nil || st.State != service.StateDone {
			t.Fatalf("adopted job %s: state %s err %v", j.id, st.State, err)
		}
		if st.AdoptedFrom != "b" {
			t.Fatalf("job %s adopted_from %q, want b", j.id, st.AdoptedFrom)
		}
		if st.Trace == nil || st.Trace.TraceID != j.traceID {
			t.Fatalf("job %s lost its trace identity across adoption: %+v, want trace_id %s",
				j.id, st.Trace, j.traceID)
		}
		// Only the survivors' directories are collected: the zombie b still
		// holds a half-written file for its wedged job, which is exactly
		// what a SIGKILL leaves behind and not part of the adopted trace.
		_, ct := waitClusterTrace(t, dirOf, survivors, j.traceID,
			func(ct obs.ClusterTrace) bool { return ct.Roots >= 1 && ct.Spans >= 1 })
		if len(ct.Nodes) != 1 || ct.Nodes[0] != "gpsd-"+succ {
			t.Fatalf("adopted trace %s spans nodes %v, want [gpsd-%s]", j.traceID, ct.Nodes, succ)
		}
	}
}

// TestClusterMetricsFederation checks the operator endpoint: GET
// /v1/cluster/metrics on any node fans out to the whole cluster and merges
// one entry per node, and a dead peer degrades to alive=false instead of
// failing the call.
func TestClusterMetricsFederation(t *testing.T) {
	nodes := newTestCluster(t, []string{"a", "b", "c"},
		func(string, *clusterNode) service.ExecuteFunc { return nil })

	spec := specOwnedBy(t, nodes["a"], "b")
	sub := submitVia(t, nodes["a"], spec)
	if st, err := nodes["a"].c.WaitTerminal(context.Background(), sub.ID, 5*time.Millisecond); err != nil || st.State != service.StateDone {
		t.Fatalf("job: %s %v", st.State, err)
	}

	fed, err := nodes["a"].c.ClusterMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byNode := map[string]client.NodeMetrics{}
	for _, nm := range fed.Nodes {
		byNode[nm.Node] = nm
	}
	if len(byNode) != 3 {
		t.Fatalf("federated %d nodes, want 3: %+v", len(byNode), fed.Nodes)
	}
	for _, id := range []string{"a", "b", "c"} {
		nm := byNode[id]
		if !nm.Alive || nm.Metrics == nil {
			t.Fatalf("node %s: alive=%v metrics=%v, want live with metrics", id, nm.Alive, nm.Metrics != nil)
		}
	}
	if got := byNode["b"].Metrics.JobsDone; got != 1 {
		t.Fatalf("owner jobs_done = %d, want 1", got)
	}
	if byNode["b"].Metrics.JobE2E == nil || byNode["b"].Metrics.JobE2E.Count != 1 {
		t.Fatalf("owner e2e histogram = %+v, want count 1", byNode["b"].Metrics.JobE2E)
	}

	// Kill a peer: the fan-out degrades, never errors.
	killNode(t, nodes, "c")
	fed, err = nodes["a"].c.ClusterMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byNode = map[string]client.NodeMetrics{}
	for _, nm := range fed.Nodes {
		byNode[nm.Node] = nm
	}
	if nm := byNode["c"]; nm.Alive || nm.Metrics != nil {
		t.Fatalf("dead peer c reported %+v, want alive=false without metrics", nm)
	}
	if !byNode["a"].Alive || !byNode["b"].Alive {
		t.Fatal("live nodes degraded alongside the dead peer")
	}

	// The single-node fallback answers the same shape without a cluster.
	svc, ts := instantServer(t, service.Config{Workers: 1, QueueDepth: 4, NodeID: "solo"})
	defer ts.Close()
	_ = svc
	solo, err := client.New(ts.URL).ClusterMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Nodes) != 1 || solo.Nodes[0].Node != "solo" || !solo.Nodes[0].Alive || solo.Nodes[0].Metrics == nil {
		t.Fatalf("single-node fallback = %+v, want one live entry", solo.Nodes)
	}
}
