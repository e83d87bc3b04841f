package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gps/internal/report"
)

// blockingExec is a scriptable executor: it signals when a job starts and
// holds the job until released (or the context dies), so tests can pin the
// queue in known states.
type blockingExec struct {
	started chan string   // receives the spec's sensitivity tag on entry
	release chan struct{} // one receive per held job
	runs    atomic.Uint64
}

func newBlockingExec() *blockingExec {
	return &blockingExec{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingExec) exec(ctx context.Context, spec Spec) (*report.Report, error) {
	b.runs.Add(1)
	b.started <- spec.Sensitivity
	select {
	case <-b.release:
		return &report.Report{TotalSeconds: 0.001}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// sensSpec builds distinct valid specs from the sensitivity names.
func sensSpec(name string) Spec { return Spec{Type: "sensitivity", Sensitivity: name} }

func waitTerminal(t *testing.T, s *Server, id string) Status {
	t.Helper()
	job, err := s.jobHandle(id)
	if err != nil {
		t.Fatalf("jobHandle(%s): %v", id, err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", id)
	}
	st, err := s.Job(id)
	if err != nil {
		t.Fatalf("Job(%s): %v", id, err)
	}
	return st
}

func TestSpecCanonicalHashing(t *testing.T) {
	a, err := Spec{Type: "Matrix", Cells: []CellSpec{{App: "jacobi", Paradigm: "gps", GPUs: 4, Fabric: "PCIE4"}}}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Spec{Type: "matrix", Iterations: 4, Scale: 1, Seed: 1,
		Cells: []CellSpec{{App: "jacobi", Paradigm: "GPS", GPUs: 4, Fabric: "pcie4"}}}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Errorf("equivalent specs hash differently:\n%+v\n%+v", a, b)
	}
	c, err := Spec{Type: "matrix", Iterations: 2,
		Cells: []CellSpec{{App: "jacobi", Paradigm: "GPS", GPUs: 4, Fabric: "pcie4"}}}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == c.Hash() {
		t.Error("different iteration counts must hash differently")
	}

	for _, bad := range []Spec{
		{Type: "figure", Figure: 7},
		{Type: "table", Table: 3},
		{Type: "sensitivity", Sensitivity: "nope"},
		{Type: "matrix"},
		{Type: "matrix", Cells: []CellSpec{{App: "nosuch", Paradigm: "GPS", GPUs: 4, Fabric: "pcie4"}}},
		{Type: "matrix", Cells: []CellSpec{{App: "jacobi", Paradigm: "GPS", GPUs: 4, Fabric: "warp"}}},
		{Type: "report"},
	} {
		if _, err := bad.Canonicalize(); err == nil {
			t.Errorf("spec %+v: want validation error", bad)
		}
	}
}

func TestSingleFlightCoalescing(t *testing.T) {
	exec := newBlockingExec()
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.exec})
	defer s.Shutdown(context.Background())

	st1, out1, err := s.Submit(sensSpec("tlb"))
	if err != nil || out1 != OutcomeAccepted {
		t.Fatalf("first submit: %v outcome=%v", err, out1)
	}
	<-exec.started // job is running and holding the worker

	st2, out2, err := s.Submit(sensSpec("tlb"))
	if err != nil {
		t.Fatalf("duplicate submit: %v", err)
	}
	if out2 != OutcomeCoalesced || st2.ID != st1.ID {
		t.Fatalf("duplicate submit: outcome=%v id=%s, want coalesced onto %s", out2, st2.ID, st1.ID)
	}

	close(exec.release)
	st := waitTerminal(t, s, st1.ID)
	if st.State != StateDone {
		t.Fatalf("job state = %s, want done (%s)", st.State, st.Error)
	}
	if got := exec.runs.Load(); got != 1 {
		t.Errorf("executions = %d, want 1 (single-flight)", got)
	}
	if m := s.Metrics(); m.JobsCoalesced != 1 {
		t.Errorf("JobsCoalesced = %d, want 1", m.JobsCoalesced)
	}
}

func TestContentAddressedCache(t *testing.T) {
	exec := newBlockingExec()
	close(exec.release) // run instantly
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.exec})
	defer s.Shutdown(context.Background())

	st, out, err := s.Submit(sensSpec("pagesize"))
	if err != nil || out != OutcomeAccepted {
		t.Fatalf("submit: %v outcome=%v", err, out)
	}
	<-exec.started
	waitTerminal(t, s, st.ID)

	st2, out2, err := s.Submit(sensSpec("pagesize"))
	if err != nil {
		t.Fatal(err)
	}
	if out2 != OutcomeCached || st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("repeat submit: outcome=%v state=%s cacheHit=%v, want cached/done/true",
			out2, st2.State, st2.CacheHit)
	}
	if st2.ID != st.ID {
		t.Errorf("cached submission got job %s, want the done job %s (IDs are spec hashes)", st2.ID, st.ID)
	}
	if got := exec.runs.Load(); got != 1 {
		t.Errorf("executions = %d, want 1 (second served from cache)", got)
	}
	m := s.Metrics()
	if m.ResultCacheHits != 1 || m.ResultCacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", m.ResultCacheHits, m.ResultCacheMisses)
	}
	if _, res, err := s.Result(st2.ID); err != nil || res == nil {
		t.Errorf("cached job has no result: res=%v err=%v", res, err)
	}
}

func TestQueueSaturationRejects(t *testing.T) {
	exec := newBlockingExec()
	s := New(Config{Workers: 1, QueueDepth: 2, Execute: exec.exec})
	defer func() {
		close(exec.release)
		s.Shutdown(context.Background())
	}()

	// One running (occupies the worker), two queued: at capacity.
	if _, _, err := s.Submit(sensSpec("tlb")); err != nil {
		t.Fatal(err)
	}
	<-exec.started
	for _, name := range []string{"pagesize", "watermark"} {
		if _, _, err := s.Submit(sensSpec(name)); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
	}

	_, _, err := s.Submit(sensSpec("l2"))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated submit: err = %v, want ErrQueueFull", err)
	}
	if m := s.Metrics(); m.JobsRejected != 1 {
		t.Errorf("JobsRejected = %d, want 1", m.JobsRejected)
	}
	if ra := s.RetryAfterSeconds(); ra < 1 {
		t.Errorf("RetryAfterSeconds = %d, want >= 1", ra)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	exec := newBlockingExec()
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.exec})
	defer func() {
		select {
		case <-exec.release:
		default:
			close(exec.release)
		}
		s.Shutdown(context.Background())
	}()

	running, _, err := s.Submit(sensSpec("tlb"))
	if err != nil {
		t.Fatal(err)
	}
	<-exec.started
	queued, _, err := s.Submit(sensSpec("pagesize"))
	if err != nil {
		t.Fatal(err)
	}

	// Canceling the queued job retires it without execution.
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, queued.ID); st.State != StateCanceled {
		t.Errorf("queued job state = %s, want canceled", st.State)
	}

	// Canceling the running job interrupts its context mid-run.
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, running.ID); st.State != StateCanceled {
		t.Errorf("running job state = %s, want canceled", st.State)
	}
	if got := exec.runs.Load(); got != 1 {
		t.Errorf("executions = %d, want 1 (queued job never ran)", got)
	}
	if _, err := s.Cancel("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown: %v, want ErrNotFound", err)
	}

	// A canceled spec is not cached: resubmitting executes again.
	if _, out, err := s.Submit(sensSpec("tlb")); err != nil || out != OutcomeAccepted {
		t.Errorf("resubmit after cancel: outcome=%v err=%v, want accepted", out, err)
	}
	<-exec.started
}

func TestShutdownDrainsRunning(t *testing.T) {
	exec := newBlockingExec()
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.exec})

	running, _, err := s.Submit(sensSpec("tlb"))
	if err != nil {
		t.Fatal(err)
	}
	<-exec.started
	queued, _, err := s.Submit(sensSpec("pagesize"))
	if err != nil {
		t.Fatal(err)
	}

	// Release the running job shortly after drain begins.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(exec.release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v (want clean drain)", err)
	}

	if st, _ := s.Job(running.ID); st.State != StateDone {
		t.Errorf("running job drained to %s, want done", st.State)
	}
	if st, _ := s.Job(queued.ID); st.State != StateCanceled {
		t.Errorf("queued job drained to %s, want canceled", st.State)
	}
	if _, _, err := s.Submit(sensSpec("l2")); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
}

func TestShutdownDeadlineAborts(t *testing.T) {
	exec := newBlockingExec() // never released: job only ends via context
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: exec.exec})

	st, _, err := s.Submit(sensSpec("tlb"))
	if err != nil {
		t.Fatal(err)
	}
	<-exec.started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: %v, want deadline exceeded", err)
	}
	if got, _ := s.Job(st.ID); got.State != StateCanceled {
		t.Errorf("aborted job state = %s, want canceled", got.State)
	}
}

func TestJobTimeout(t *testing.T) {
	exec := newBlockingExec() // held until the timeout fires
	s := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: 30 * time.Millisecond, Execute: exec.exec})
	defer s.Shutdown(context.Background())

	st, _, err := s.Submit(sensSpec("tlb"))
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, st.ID)
	if got.State != StateFailed {
		t.Fatalf("timed out job state = %s (%s), want failed", got.State, got.Error)
	}
}

func TestTerminalJobPruning(t *testing.T) {
	exec := newBlockingExec()
	close(exec.release)
	s := New(Config{Workers: 1, QueueDepth: 8, RetainJobs: 2, Execute: exec.exec})
	defer s.Shutdown(context.Background())

	ids := make([]string, 3)
	for i, name := range []string{"tlb", "pagesize", "watermark"} {
		st, _, err := s.Submit(sensSpec(name))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		waitTerminal(t, s, st.ID)
	}
	if _, err := s.Job(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest terminal job still queryable, want pruned (err=%v)", err)
	}
	if _, err := s.Job(ids[2]); err != nil {
		t.Errorf("newest job pruned: %v", err)
	}
}
