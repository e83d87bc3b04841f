package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gps/internal/client"
	"gps/internal/cluster"
	"gps/internal/report"
	"gps/internal/service"
)

// specsOwnedBy returns n distinct canonical specs whose ring owner is the
// given node (per the submitting node's current liveness view).
func specsOwnedBy(t *testing.T, n *clusterNode, owner string, count int) []service.Spec {
	t.Helper()
	var specs []service.Spec
	for seed := int64(1); seed < 65536 && len(specs) < count; seed++ {
		spec := service.Spec{Type: "figure", Figure: 3, Seed: seed}
		canon, err := spec.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		if n.clu.Owner(canon.Hash()) == owner {
			specs = append(specs, spec)
		}
	}
	if len(specs) < count {
		t.Fatalf("found only %d/%d seeds owned by %s", len(specs), count, owner)
	}
	return specs
}

// TestClusterTakeoverPermanentKill is the permanent-kill chaos scenario:
// three nodes, the owner of a batch of jobs is SIGKILLed mid-queue (one job
// running, the rest queued) and never restarted. Every accepted job must
// reach done on the ring successor under the ID its client holds (the spec
// hash), results must read byte-identical through both survivors, and the
// engine-run counters must prove each job executed exactly once.
func TestClusterTakeoverPermanentKill(t *testing.T) {
	release := make(chan struct{})
	var released bool
	defer func() {
		if !released {
			close(release)
		}
	}()
	nodes := newTestCluster(t, []string{"a", "b", "c"},
		func(id string, n *clusterNode) service.ExecuteFunc {
			if id != "b" {
				return nil // fast deterministic default
			}
			// b's engine parks until released, wedging its queue so the kill
			// happens with work genuinely in flight.
			return func(ctx context.Context, spec service.Spec) (*report.Report, error) {
				n.exec.Add(1)
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				r := &report.Report{ParallelWorkers: 1}
				r.AddTable("spec", "should never finish on b")
				return r, nil
			}
		})

	const jobs = 3
	specs := specsOwnedBy(t, nodes["a"], "b", jobs)
	ids := make([]string, 0, jobs)
	for _, spec := range specs {
		sub := submitVia(t, nodes["a"], spec)
		if sub.NodeID != "b" {
			t.Fatalf("job %s landed on %q, want its owner b", sub.ID, sub.NodeID)
		}
		ids = append(ids, sub.ID)
	}
	// Give b's worker a moment to pick up (and wedge on) the first job so
	// the kill catches a mix of running and queued work. The submit records
	// were replicated synchronously inside each Submit, so nothing below
	// depends on this timing.
	time.Sleep(50 * time.Millisecond)

	killNode(t, nodes, "b")

	succ := ownerOf(t, nodes["a"], specs[0])
	if succ == "" || succ == "b" {
		t.Fatalf("no takeover target for b: %q", succ)
	}
	if got := ownerOf(t, nodes["c"], specs[0]); got != succ {
		t.Fatalf("survivors disagree on b's successor: a says %s, c says %s", succ, got)
	}
	adopter, other := nodes[succ], nodes["a"]
	if succ == "a" {
		other = nodes["c"]
	}

	// Every job completes under the ID its client holds, visible through
	// both survivors, marked as adopted from the dead node.
	for _, id := range ids {
		for _, n := range []*clusterNode{adopter, other} {
			st, err := n.c.WaitTerminal(context.Background(), id, 5*time.Millisecond)
			if err != nil || st.State != service.StateDone {
				t.Fatalf("job %s via %s: state %s err %v", id, n.id, st.State, err)
			}
			if st.AdoptedFrom != "b" {
				t.Fatalf("job %s via %s: adopted_from %q, want b", id, n.id, st.AdoptedFrom)
			}
		}
		codeA, bodyA := rawGet(t, adopter, "/v1/jobs/"+id+"/result")
		codeB, bodyB := rawGet(t, other, "/v1/jobs/"+id+"/result")
		if codeA != 200 || codeB != 200 {
			t.Fatalf("job %s results: %d via %s, %d via %s", id, codeA, adopter.id, codeB, other.id)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Fatalf("job %s result bytes differ between survivors", id)
		}
	}

	// Exactly-once execution: the successor ran all of them, the other
	// survivor ran none, and b's wedged attempt never completed.
	if got := adopter.exec.Load(); got != jobs {
		t.Fatalf("successor %s executed %d jobs, want %d", adopter.id, got, jobs)
	}
	if got := other.exec.Load(); got != 0 {
		t.Fatalf("survivor %s executed %d jobs, want 0", other.id, got)
	}

	// Takeover counters surface on the successor only.
	if st := adopter.clu.Stats(); st.TakeoverJobs != jobs || st.Takeovers == 0 {
		t.Fatalf("successor stats: takeovers=%d takeover_jobs=%d, want >0/%d",
			st.Takeovers, st.TakeoverJobs, jobs)
	}
	if st := other.clu.Stats(); st.TakeoverJobs != 0 {
		t.Fatalf("survivor %s reports %d takeover jobs, want 0", other.id, st.TakeoverJobs)
	}

	// Cross-node single-flight survives the takeover: resubmitting one of
	// the dead node's specs through the other survivor routes to the
	// successor and answers from cache — no re-execution anywhere.
	sub := submitVia(t, other, specs[0])
	if sub.NodeID != succ || sub.Outcome != "cached" {
		t.Fatalf("post-takeover resubmit: %s on %q, want cached on %s", sub.Outcome, sub.NodeID, succ)
	}
	st, err := other.c.WaitTerminal(context.Background(), sub.ID, 5*time.Millisecond)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("post-takeover resubmit: %s %v", st.State, err)
	}
	if got := adopter.exec.Load(); got != jobs {
		t.Fatalf("resubmit re-executed: successor count %d, want %d", got, jobs)
	}
}

// TestClusterResurrectionDuringTakeover covers the return of the dead: a
// node is killed with jobs in flight, its successor takes them over, and the
// node comes back on the same journal and address — once after the
// successor finished the jobs, once while the successor is still executing
// them. Either way the replayed jobs must not execute again: their
// pre-execution peer lookup finds the successor's report, or waits on the
// successor until it lands.
func TestClusterResurrectionDuringTakeover(t *testing.T) {
	t.Run("successor finished", func(t *testing.T) { testResurrection(t, false) })
	t.Run("successor still executing", func(t *testing.T) { testResurrection(t, true) })
}

func testResurrection(t *testing.T, succBusy bool) {
	release := make(chan struct{}) // b's engine: wedged until the test ends
	defer close(release)
	succGate := make(chan struct{}) // the survivors' engines
	gateOpen := false
	openGate := func() {
		if !gateOpen {
			close(succGate)
			gateOpen = true
		}
	}
	defer openGate()
	if !succBusy {
		openGate()
	}
	succStarted := make(chan struct{}, 8)
	nodes := newTestCluster(t, []string{"a", "b", "c"},
		func(id string, n *clusterNode) service.ExecuteFunc {
			gate := (<-chan struct{})(succGate)
			if id == "b" {
				gate = release
			}
			return func(ctx context.Context, spec service.Spec) (*report.Report, error) {
				n.exec.Add(1)
				if id != "b" {
					succStarted <- struct{}{}
				}
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				r := &report.Report{ParallelWorkers: 1}
				r.AddTable("spec", fmt.Sprintf("fig=%d seed=%d", spec.Figure, spec.Seed))
				return r, nil
			}
		})

	specs := specsOwnedBy(t, nodes["a"], "b", 2)
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		ids = append(ids, submitVia(t, nodes["a"], spec).ID)
	}
	time.Sleep(50 * time.Millisecond) // let b wedge on the first job

	killNode(t, nodes, "b")
	succ := ownerOf(t, nodes["a"], specs[0])
	if succBusy {
		select {
		case <-succStarted: // the successor is executing the first taken-over job
		case <-time.After(10 * time.Second):
			t.Fatal("successor never started the taken-over job")
		}
	} else {
		for _, id := range ids {
			st, err := nodes[succ].c.WaitTerminal(context.Background(), id, 5*time.Millisecond)
			if err != nil || st.State != service.StateDone {
				t.Fatalf("taken-over job %s: %s %v", id, st.State, err)
			}
		}
	}

	// Resurrect b from its own journal at its old address. The pre-kill
	// process still exists (its worker is wedged); OpenJournal's compacting
	// rewrite renames the file away, so any late writes from the zombie land
	// on an unlinked inode — exactly the isolation a real restart gets from
	// a new PID.
	j2, err := service.OpenJournal(nodes["b"].jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	clu2 := cluster.New(cluster.Config{Self: "b", StealInterval: -1})
	clu2.AddPeer("a", nodes["a"].ts.URL)
	clu2.AddPeer("c", nodes["c"].ts.URL)
	clu2.ProbeOnce(context.Background()) // liveness view before the replay, as gpsd does
	var reexec atomic.Int64
	svc2 := service.New(service.Config{
		NodeID:     "b",
		Workers:    1,
		QueueDepth: 8,
		Execute: func(ctx context.Context, spec service.Spec) (*report.Report, error) {
			reexec.Add(1)
			return &report.Report{ParallelWorkers: 1}, nil
		},
		Journal:      j2,
		RemoteResult: clu2.FetchPeerResult,
	})
	clu2.Bind(svc2)
	j2.SetSink(clu2)
	clu2.EnableReplication()
	ln, err := net.Listen("tcp", strings.TrimPrefix(nodes["b"].ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewUnstartedServer(New(svc2, WithCluster(clu2)))
	ts2.Listener.Close()
	ts2.Listener = ln
	ts2.Start()
	defer func() {
		ts2.CloseClientConnections()
		ts2.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		svc2.Shutdown(sctx)
		scancel()
	}()
	b2 := &clusterNode{id: "b", svc: svc2, clu: clu2, ts: ts2, c: client.New(ts2.URL)}

	if succBusy {
		// b's first replayed job is asking the successor, which is still
		// executing it: b must wait on it instead of running the job itself.
		deadline := time.Now().Add(10 * time.Second)
		for {
			if st, err := svc2.Job(ids[0]); err == nil && st.State == service.StateRunning {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("resurrected b never started its replayed job")
			}
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(200 * time.Millisecond)
		if got := reexec.Load(); got != 0 {
			t.Fatalf("resurrected b executed %d jobs while the successor was running them", got)
		}
		openGate()
	}

	// Every job reaches done through every node with byte-identical
	// results: a and c still route b's hashes to the successor, b answers
	// from its replayed jobs — which landed the successor's report.
	results := map[string][]byte{}
	readAll := func(via []*clusterNode) {
		t.Helper()
		for _, id := range ids {
			for _, n := range via {
				wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
				st, err := n.c.WaitTerminal(wctx, id, 5*time.Millisecond)
				wcancel()
				if err != nil || st.State != service.StateDone {
					t.Fatalf("job %s via %s: state %s err %v", id, n.id, st.State, err)
				}
				code, body := rawGet(t, n, "/v1/jobs/"+id+"/result")
				if code != http.StatusOK {
					t.Fatalf("job %s result via %s: %d", id, n.id, code)
				}
				if prev, ok := results[id]; ok && !bytes.Equal(prev, body) {
					t.Fatalf("job %s result via %s differs", id, n.id)
				}
				results[id] = body
			}
		}
	}
	readAll([]*clusterNode{nodes["a"], b2, nodes["c"]})
	for _, id := range ids {
		if st, _ := svc2.Job(id); !st.PeerFetched {
			t.Fatalf("resurrected %s: not marked peer_fetched", id)
		}
	}

	// Once the survivors see b again its hashes route back to it, and the
	// bytes read through every node stay the same.
	nodes["a"].clu.ProbeOnce(context.Background())
	nodes["c"].clu.ProbeOnce(context.Background())
	if got := ownerOf(t, nodes["a"], specs[0]); got != "b" {
		t.Fatalf("after b's return its spec routes to %s, want b", got)
	}
	readAll([]*clusterNode{nodes["a"], b2, nodes["c"]})

	// Exactly once: the successor executed every job, b and the other
	// survivor none.
	if got := nodes[succ].exec.Load(); got != int64(len(ids)) {
		t.Fatalf("successor %s executed %d jobs, want %d", succ, got, len(ids))
	}
	for _, id := range []string{"a", "c"} {
		if id != succ && nodes[id].exec.Load() != 0 {
			t.Fatalf("survivor %s executed %d jobs, want 0", id, nodes[id].exec.Load())
		}
	}
	if got := reexec.Load(); got != 0 {
		t.Fatalf("resurrected node re-executed %d taken-over jobs, want 0", got)
	}
}

// TestClusterPeerDiesMidWait steals a job from its victim v and parks the
// thief w's execution while v waits on w by hash.
//
//   - thief killed: v's polls go unanswered, it takes the job back, and runs
//     it locally. Exactly one execution completes cluster-wide — the dead
//     thief's attempt never finishes.
//   - canceled through thief: v owns the hash, so a DELETE sent to w is
//     relayed to v and cancels the job clients submitted, not w's copy.
//   - canceled on owning thief: w owns the hash, so a DELETE sent to v is
//     relayed to w and cancels w's copy; v learns that from its wait and
//     cancels its job too.
//
// Either way a canceled job never runs on the victim.
func TestClusterPeerDiesMidWait(t *testing.T) {
	for _, tc := range []struct {
		name  string
		owner string // ring owner of the stolen job's hash
		kill  bool   // kill the thief; else cancel through the non-owner
	}{
		{"thief killed", "v", true},
		{"canceled through thief", "v", false},
		{"canceled on owning thief", "w", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vRelease := make(chan struct{})
			wGate := make(chan struct{})
			vStarted := make(chan struct{}, 8)
			wStarted := make(chan struct{}, 8)
			var vDone, wDone atomic.Int64
			nodes := newTestCluster(t, []string{"v", "w"},
				func(id string, n *clusterNode) service.ExecuteFunc {
					started, gate, done := vStarted, (<-chan struct{})(vRelease), &vDone
					if id == "w" {
						started, gate, done = wStarted, wGate, &wDone
					}
					return func(ctx context.Context, spec service.Spec) (*report.Report, error) {
						n.exec.Add(1)
						started <- struct{}{}
						select {
						case <-gate:
						case <-ctx.Done():
							return nil, ctx.Err()
						}
						done.Add(1)
						return &report.Report{ParallelWorkers: 1}, nil
					}
				})

			// The first job parks v's only worker; the second queues as steal
			// bait.
			submitLocal(t, nodes["v"], `{"type":"figure","figure":3,"seed":601}`)
			<-vStarted
			baitSpec, err := json.Marshal(specOwnedBy(t, nodes["v"], tc.owner))
			if err != nil {
				t.Fatal(err)
			}
			bait := submitLocal(t, nodes["v"], string(baitSpec))

			nodes["w"].clu.ProbeOnce(context.Background())
			if !nodes["w"].clu.StealOnce(context.Background()) {
				t.Fatal("StealOnce declined with an overloaded victim")
			}
			select {
			case <-wStarted: // the thief is executing; the victim is polling it
			case <-time.After(10 * time.Second):
				t.Fatal("thief never started the stolen job")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()

			if tc.kill {
				defer close(wGate)
				killNode(t, nodes, "w")
				close(vRelease)
				st, err := nodes["v"].c.WaitTerminal(ctx, bait.ID, 0)
				if err != nil || st.State != service.StateDone || st.StolenBy != "" {
					t.Fatalf("stolen job after thief death: state %s stolen_by %q err %v, want done locally",
						st.State, st.StolenBy, err)
				}
				if m := nodes["v"].svc.Metrics(); m.JobsStolen != 1 || m.StealReclaims != 1 || m.StealsCompleted != 0 {
					t.Fatalf("victim steal counters stolen/reclaimed/completed = %d/%d/%d, want 1/1/0",
						m.JobsStolen, m.StealReclaims, m.StealsCompleted)
				}
				if v, w := vDone.Load(), wDone.Load(); v != 2 || w != 0 {
					t.Fatalf("completed executions: victim %d (blocker + bait), thief %d; want 2 and 0", v, w)
				}
				return
			}

			via := nodes["w"]
			if tc.owner == "w" {
				via = nodes["v"]
			}
			// A running job acknowledges the cancel before its executor stops.
			st, err := via.c.Cancel(ctx, bait.ID)
			if err != nil || st.NodeID != tc.owner {
				t.Fatalf("cancel through %s: answered by %q err %v, want %s", via.id, st.NodeID, err, tc.owner)
			}
			close(wGate)
			close(vRelease)
			// Let both nodes settle: the thief's copy ends, the victim's wait
			// on it returns, and v's worker drains its queue.
			var vj service.Status
			for {
				wj, werr := nodes["w"].svc.Job(bait.ID)
				vj, err = nodes["v"].svc.Job(bait.ID)
				m := nodes["v"].svc.Metrics()
				if werr == nil && wj.State.Terminal() && err == nil && vj.State.Terminal() &&
					vDone.Load() >= 1 && m.BusyWorkers == 0 && m.QueueDepth == 0 {
					break
				}
				select {
				case <-ctx.Done():
					t.Fatalf("nodes never settled: thief copy %+v (%v), victim job %+v (%v), victim metrics %+v",
						wj, werr, vj, err, m)
				case <-time.After(20 * time.Millisecond):
				}
			}
			if vj.State != service.StateCanceled {
				t.Fatalf("victim's job after cancel: state %s, want canceled", vj.State)
			}
			if m := nodes["v"].svc.Metrics(); m.StealReclaims != 0 || m.StealsCompleted != 0 {
				t.Fatalf("victim reclaimed %d / completed %d stolen jobs, want 0/0", m.StealReclaims, m.StealsCompleted)
			}
			if v := nodes["v"].exec.Load(); v != 1 {
				t.Fatalf("victim executed %d times, want 1 (the blocker only)", v)
			}
		})
	}
}
