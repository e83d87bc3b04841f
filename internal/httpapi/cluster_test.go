package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gps/internal/client"
	"gps/internal/cluster"
	"gps/internal/report"
	"gps/internal/service"
)

// clusterNode is one member of an httptest cluster: the service, its
// cluster view, the HTTP server, and an execution counter proving where the
// engine actually ran.
type clusterNode struct {
	id      string
	svc     *service.Server
	clu     *cluster.Cluster
	ts      *httptest.Server
	exec    atomic.Int64
	c       *client.Client
	jpath   string
	journal *service.Journal
}

// newTestCluster boots len(ids) fully wired nodes, each with a journal and
// the replication stream enabled (as gpsd -journal in cluster mode). mkExec
// builds each node's executor around its counter; nil uses a fast
// deterministic one that renders the spec into the report (so byte-identity
// across nodes is a meaningful check).
func newTestCluster(t *testing.T, ids []string,
	mkExec func(id string, n *clusterNode) service.ExecuteFunc,
	cfgFns ...func(*service.Config)) map[string]*clusterNode {
	t.Helper()
	dir := t.TempDir()
	nodes := make(map[string]*clusterNode, len(ids))
	for _, id := range ids {
		n := &clusterNode{id: id, jpath: dir + "/" + id + ".journal"}
		n.clu = cluster.New(cluster.Config{Self: id})
		exec := mkExec(id, n)
		if exec == nil {
			exec = func(ctx context.Context, spec service.Spec) (*report.Report, error) {
				n.exec.Add(1)
				r := &report.Report{ParallelWorkers: 1}
				r.AddTable("spec", fmt.Sprintf("%s fig=%d seed=%d", spec.Type, spec.Figure, spec.Seed))
				return r, nil
			}
		}
		j, err := service.OpenJournal(n.jpath)
		if err != nil {
			t.Fatal(err)
		}
		n.journal = j
		cfg := service.Config{
			NodeID:       id,
			Workers:      1,
			QueueDepth:   8,
			Execute:      exec,
			Journal:      j,
			RemoteResult: n.clu.FetchPeerResult,
		}
		for _, fn := range cfgFns {
			fn(&cfg)
		}
		n.svc = service.New(cfg)
		n.clu.Bind(n.svc)
		n.journal.SetSink(n.clu)
		n.clu.EnableReplication()
		n.ts = httptest.NewServer(New(n.svc, WithCluster(n.clu)))
		n.c = client.New(n.ts.URL)
		nodes[id] = n
	}
	for _, a := range ids {
		for _, b := range ids {
			if a != b {
				nodes[a].clu.AddPeer(b, nodes[b].ts.URL)
			}
		}
	}
	probeAll(nodes)
	flushAll(nodes) // initial snapshot flush arms the inline stream
	t.Cleanup(func() {
		for _, n := range nodes {
			n.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			n.svc.Shutdown(ctx)
			cancel()
			n.journal.Close()
		}
	})
	return nodes
}

func probeAll(nodes map[string]*clusterNode) {
	for _, n := range nodes {
		n.clu.ProbeOnce(context.Background())
	}
}

// flushAll pushes each node's pending replication state (the initial
// full-state snapshot, or anything buffered while a successor was down).
func flushAll(nodes map[string]*clusterNode) {
	for _, n := range nodes {
		n.clu.FlushReplication(context.Background())
	}
}

// killNode simulates a SIGKILL: the listener and every open connection
// (held peer polls included) drop with no drain and no journal close, and
// the survivors probe until the suspicion threshold declares the victim
// dead (which triggers their takeover sweeps).
func killNode(t *testing.T, nodes map[string]*clusterNode, victim string) {
	t.Helper()
	nodes[victim].ts.CloseClientConnections()
	nodes[victim].ts.Close()
	for i := 0; i < 4; i++ { // past the default threshold of 3
		for id, n := range nodes {
			if id != victim {
				n.clu.ProbeOnce(context.Background())
			}
		}
	}
	for id, n := range nodes {
		if id == victim {
			continue
		}
		if p, ok := n.clu.Peer(victim); !ok || p.Alive() {
			t.Fatalf("%s still considers %s alive after threshold probes", id, victim)
		}
	}
}

// ownerOf routes a spec's canonical hash — its job ID — through n's ring
// view. After a node's death this names its takeover successor.
func ownerOf(t *testing.T, n *clusterNode, spec service.Spec) string {
	t.Helper()
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return n.clu.Owner(canon.Hash())
}

// specOwnedBy finds a figure spec whose canonical hash the ring assigns to
// the wanted node, by walking seeds.
func specOwnedBy(t *testing.T, n *clusterNode, owner string) service.Spec {
	t.Helper()
	for seed := int64(1); seed < 4096; seed++ {
		spec := service.Spec{Type: "figure", Figure: 3, Seed: seed}
		canon, err := spec.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		if n.clu.Owner(canon.Hash()) == owner {
			return spec
		}
	}
	t.Fatalf("no seed maps to owner %s", owner)
	return service.Spec{}
}

// rawGet fetches a path from a node and returns status code and body bytes.
func rawGet(t *testing.T, n *clusterNode, path string) (int, []byte) {
	t.Helper()
	resp, err := n.ts.Client().Get(n.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// submitVia posts a spec through a node's typed client.
func submitVia(t *testing.T, n *clusterNode, spec service.Spec) client.SubmitResult {
	t.Helper()
	sub, err := n.c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit via %s: %v", n.id, err)
	}
	return sub
}

// TestClusterByteIdenticalResults is the headline acceptance path: a spec
// submitted through node A lands on its owner B, and once done the report
// read from A, B, and C is byte-identical (owner serves directly, the
// others proxy raw bytes).
func TestClusterByteIdenticalResults(t *testing.T) {
	nodes := newTestCluster(t, []string{"a", "b", "c"},
		func(string, *clusterNode) service.ExecuteFunc { return nil })

	spec := specOwnedBy(t, nodes["a"], "b")
	sub := submitVia(t, nodes["a"], spec)
	if sub.NodeID != "b" {
		t.Fatalf("job %s landed on %q, want its owner b", sub.ID, sub.NodeID)
	}
	st, err := nodes["c"].c.WaitTerminal(context.Background(), sub.ID, 5*time.Millisecond)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("wait via c: state %s err %v", st.State, err)
	}
	if st.NodeID != "b" {
		t.Fatalf("status node_id = %q, want b", st.NodeID)
	}

	var bodies [][]byte
	for _, id := range []string{"a", "b", "c"} {
		code, body := rawGet(t, nodes[id], "/v1/jobs/"+sub.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("result from %s: status %d (%s)", id, code, body)
		}
		bodies = append(bodies, body)
	}
	if string(bodies[0]) != string(bodies[1]) || string(bodies[0]) != string(bodies[2]) {
		t.Fatal("results differ across nodes")
	}
	if !strings.Contains(string(bodies[0]), "fig=3") {
		t.Fatalf("result missing rendered spec: %s", bodies[0])
	}

	if got := nodes["b"].exec.Load(); got != 1 {
		t.Fatalf("owner executed %d times, want 1", got)
	}
	if got := nodes["a"].exec.Load() + nodes["c"].exec.Load(); got != 0 {
		t.Fatalf("non-owners executed %d times, want 0", got)
	}
	if fw := nodes["a"].clu.Stats().Forwards; fw != 1 {
		t.Fatalf("a forwarded %d submits, want 1", fw)
	}
	if pr := nodes["a"].clu.Stats().ProxiedReads; pr == 0 {
		t.Fatal("a served the foreign result without proxying")
	}
}

// TestClusterCrossNodeSingleFlight submits the same spec through two
// different non-owner nodes while the owner's worker is parked; both must
// coalesce onto the owner's single in-flight job, and the engine runs
// exactly once cluster-wide.
func TestClusterCrossNodeSingleFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	nodes := newTestCluster(t, []string{"a", "b", "c"},
		func(id string, n *clusterNode) service.ExecuteFunc {
			return func(ctx context.Context, spec service.Spec) (*report.Report, error) {
				n.exec.Add(1)
				started <- struct{}{}
				select {
				case <-release:
					return &report.Report{ParallelWorkers: 2}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		})

	spec := specOwnedBy(t, nodes["a"], "b")
	first := submitVia(t, nodes["a"], spec)
	<-started // owner is now executing; later submits must coalesce

	var wg sync.WaitGroup
	dups := make([]client.SubmitResult, 2)
	for i, via := range []string{"a", "c"} {
		wg.Add(1)
		go func(i int, via string) {
			defer wg.Done()
			dups[i] = submitVia(t, nodes[via], spec)
		}(i, via)
	}
	wg.Wait()
	for _, d := range dups {
		if d.ID != first.ID {
			t.Fatalf("duplicate got its own job %s, want %s", d.ID, first.ID)
		}
		if d.Outcome != "coalesced" {
			t.Fatalf("duplicate outcome %q, want coalesced", d.Outcome)
		}
	}

	close(release)
	st, err := nodes["c"].c.WaitTerminal(context.Background(), first.ID, 5*time.Millisecond)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("final state %s err %v", st.State, err)
	}
	if st.Coalesced != 2 {
		t.Fatalf("coalesced riders = %d, want 2", st.Coalesced)
	}
	total := nodes["a"].exec.Load() + nodes["b"].exec.Load() + nodes["c"].exec.Load()
	if total != 1 {
		t.Fatalf("engine ran %d times cluster-wide, want exactly 1", total)
	}
}

// TestClusterNodeDownReroute kills one node and checks the survivors keep
// serving: the dead node's specs re-route to the ring's live successor, and
// reads of the dead node's jobs fail with an explicit 502, not a hang.
func TestClusterNodeDownReroute(t *testing.T) {
	nodes := newTestCluster(t, []string{"a", "b", "c"},
		func(string, *clusterNode) service.ExecuteFunc { return nil })

	deadSpec := specOwnedBy(t, nodes["a"], "b")
	pre := submitVia(t, nodes["a"], deadSpec)
	st, err := nodes["a"].c.WaitTerminal(context.Background(), pre.ID, 5*time.Millisecond)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("pre-kill job: %s %v", st.State, err)
	}

	// SIGKILL equivalent for an httptest node: the listener drops with no
	// drain, and the survivors probe past the suspicion threshold.
	killNode(t, nodes, "b")

	// A fresh spec whose full-ring owner is the dead b must re-route to a
	// live node and complete.
	full := cluster.NewRing(0)
	for _, id := range []string{"a", "b", "c"} {
		full.Add(id)
	}
	spec2 := service.Spec{Type: "figure", Figure: 3}
	for seed := int64(20000); ; seed++ {
		spec2.Seed = seed
		canon, _ := spec2.Canonicalize()
		if full.Owner(canon.Hash()) == "b" {
			break
		}
	}
	sub := submitVia(t, nodes["a"], spec2)
	if sub.NodeID == "b" || sub.NodeID == "" {
		t.Fatalf("job %s landed on %q, want a live node", sub.ID, sub.NodeID)
	}
	st, err = nodes["c"].c.WaitTerminal(context.Background(), sub.ID, 5*time.Millisecond)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("re-routed job: %s %v", st.State, err)
	}

	// Reads of the dead node's job IDs no longer 502: Owner routes the
	// hash to the takeover successor. pre.ID finished before the kill, so
	// its replicated record was pruned and no survivor took it over — the
	// successor answers a clean 404 instead of an endless bad gateway.
	code, body := rawGet(t, nodes["a"], "/v1/jobs/"+pre.ID)
	if code != http.StatusNotFound {
		t.Fatalf("read of dead node's done job: %d (%s), want 404", code, body)
	}

	// Healthz on a survivor reflects the dead peer.
	h, err := nodes["a"].c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "cluster" || h.NodeID != "a" || h.PeersAlive != 1 || h.PeersTotal != 2 {
		t.Fatalf("healthz after kill = %+v", h)
	}
}

// TestClusterPeerResultFetch checks the content-addressed peer fetch: a
// spec already completed on one node is answered by its owner without
// re-executing, by pulling the report from the peer's cache.
func TestClusterPeerResultFetch(t *testing.T) {
	nodes := newTestCluster(t, []string{"a", "b", "c"},
		func(string, *clusterNode) service.ExecuteFunc { return nil })

	spec := specOwnedBy(t, nodes["a"], "b")

	// Execute on c against routing: the loop-guard header forces local
	// handling (also proving the guard works).
	canon, _ := spec.Canonicalize()
	req, _ := http.NewRequest(http.MethodPost, nodes["c"].ts.URL+"/v1/jobs",
		strings.NewReader(fmt.Sprintf(`{"type":"figure","figure":3,"seed":%d}`, spec.Seed)))
	req.Header.Set(cluster.ForwardHeader, "test")
	resp, err := nodes["c"].ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("guarded submit to c: %d, want 202 (local handling)", resp.StatusCode)
	}
	waitCached := func(n *clusterNode) {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if state, _, _ := n.svc.PeerResult(context.Background(), canon.Hash(), 0); state == service.StateDone {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("hash never cached on %s", n.id)
	}
	waitCached(nodes["c"])
	if got := nodes["c"].exec.Load(); got != 1 {
		t.Fatalf("c executed %d times, want 1", got)
	}

	// Now the routed submit: a forwards to owner b, whose pre-execution
	// remote lookup finds c's cached report and completes without running.
	sub := submitVia(t, nodes["a"], spec)
	if sub.NodeID != "b" {
		t.Fatalf("job %s landed on %q, want its owner b", sub.ID, sub.NodeID)
	}
	st, err := nodes["b"].c.WaitTerminal(context.Background(), sub.ID, 5*time.Millisecond)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("peer-fetched job: %s %v", st.State, err)
	}
	if !st.PeerFetched {
		t.Fatal("status not marked peer_fetched")
	}
	if got := nodes["b"].exec.Load(); got != 0 {
		t.Fatalf("owner executed %d times, want 0 (peer fetch)", got)
	}
	if got := nodes["b"].svc.Metrics().JobsPeerFetched; got != 1 {
		t.Fatalf("jobs_peer_fetched = %d, want 1", got)
	}
	if got := nodes["b"].clu.Stats().PeerFetches; got != 1 {
		t.Fatalf("cluster peer_fetches = %d, want 1", got)
	}

	// The peer-fetched report served by b matches c's original bytes.
	_, fromB := rawGet(t, nodes["b"], "/v1/jobs/"+sub.ID+"/result")
	code, fromC := rawGet(t, nodes["c"], "/v1/peer/results/"+canon.Hash())
	if code != http.StatusOK || string(fromB) != string(fromC) {
		t.Fatalf("peer-fetched report differs from source (peer code %d)", code)
	}
}

// TestClusterWorkStealing parks the victim's worker, queues a second job,
// and lets the thief pull it over HTTP: the job completes on the victim's
// handle while the engine runs on the thief.
func TestClusterWorkStealing(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	nodes := newTestCluster(t, []string{"v", "w"},
		func(id string, n *clusterNode) service.ExecuteFunc {
			if id != "v" {
				return nil // thief executes instantly
			}
			return func(ctx context.Context, spec service.Spec) (*report.Report, error) {
				n.exec.Add(1)
				started <- struct{}{}
				select {
				case <-release:
					return &report.Report{ParallelWorkers: 3}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		})
	defer close(release)

	// Two jobs straight into v: the first parks the only worker, the second
	// waits in the queue.
	submitLocal(t, nodes["v"], `{"type":"figure","figure":3,"seed":501}`)
	<-started // worker occupied before the second submit
	queued, err := json.Marshal(specOwnedBy(t, nodes["v"], "v"))
	if err != nil {
		t.Fatal(err)
	}
	queuedID := submitLocal(t, nodes["v"], string(queued)).ID

	// The thief's probe sees the victim overloaded (1/1 busy, 1 queued) and
	// one steal round moves the queued job.
	nodes["w"].clu.ProbeOnce(context.Background())
	if !nodes["w"].clu.StealOnce(context.Background()) {
		t.Fatal("StealOnce declined with an overloaded victim")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := nodes["v"].c.WaitTerminal(ctx, queuedID, 0)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("stolen job: state %s err %v", st.State, err)
	}
	rep, err := nodes["v"].c.Result(ctx, queuedID)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.ParallelWorkers != 1 {
		t.Fatalf("stolen job report %+v, want the thief's executor output", rep)
	}
	if st.StolenBy != "w" {
		t.Fatalf("stolen_by = %q, want w", st.StolenBy)
	}
	if got := nodes["w"].exec.Load(); got != 1 {
		t.Fatalf("thief executed %d times, want 1", got)
	}
	vm := nodes["v"].svc.Metrics()
	if vm.JobsStolen != 1 || vm.StealsCompleted != 1 {
		t.Fatalf("victim steal counters %d/%d, want 1/1", vm.JobsStolen, vm.StealsCompleted)
	}
	if got := nodes["w"].clu.Stats().StealsThief; got != 1 {
		t.Fatalf("thief counter = %d, want 1", got)
	}

	// An idle victim yields nothing to steal.
	nodes["w"].clu.ProbeOnce(context.Background())
	if nodes["w"].clu.StealOnce(context.Background()) {
		t.Fatal("stole from a victim with an empty queue")
	}
}

// submitLocal posts a raw spec to one node with the loop-guard header, so
// the node keeps the job whichever node owns its hash.
func submitLocal(t *testing.T, n *clusterNode, body string) client.SubmitResult {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, n.ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set(cluster.ForwardHeader, "test")
	resp, err := n.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub client.SubmitResult
	if err := jsonDecode(resp, &sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// jsonDecode drains and decodes one response body.
func jsonDecode(resp *http.Response, out any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}
