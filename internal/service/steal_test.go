package service

import (
	"context"
	"testing"
	"time"

	"gps/internal/report"
)

// blockedStealServer builds a 1-worker server whose executor parks jobs
// until release closes, so the queue can be loaded deterministically.
func blockedStealServer(t *testing.T) (*Server, chan struct{}, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	s := New(Config{
		NodeID:     "victim",
		Workers:    1,
		QueueDepth: 8,
		Execute: func(ctx context.Context, spec Spec) (*report.Report, error) {
			started <- struct{}{}
			select {
			case <-release:
				return &report.Report{ParallelWorkers: 1}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	return s, release, started
}

// loadTwo submits one job that occupies the worker and one that stays
// queued, returning the queued job's status.
func loadTwo(t *testing.T, s *Server, started chan struct{}) Status {
	t.Helper()
	if _, _, err := s.Submit(Spec{Type: "table", Table: 1}); err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied
	queued, _, err := s.Submit(Spec{Type: "table", Table: 2})
	if err != nil {
		t.Fatal(err)
	}
	return queued
}

func TestStealAndComplete(t *testing.T) {
	s, release, started := blockedStealServer(t)
	defer func() {
		close(release)
		s.Shutdown(context.Background())
	}()
	queued := loadTwo(t, s, started)

	stolen, ok := s.Steal("thief")
	if !ok || stolen.ID != queued.ID {
		t.Fatalf("Steal = %+v, %v; want job %s", stolen, ok, queued.ID)
	}
	if st, _ := s.Job(stolen.ID); st.State != StateRunning || st.StolenBy != "thief" {
		t.Fatalf("stolen job state %s stolen_by %q, want running/thief", st.State, st.StolenBy)
	}

	rep := &report.Report{ParallelWorkers: 7}
	if err := s.CompleteStolen(stolen.ID, rep, ""); err != nil {
		t.Fatal(err)
	}
	st, got, err := s.Result(stolen.ID)
	if err != nil || st.State != StateDone || got == nil || got.ParallelWorkers != 7 {
		t.Fatalf("after complete: state %s report %+v err %v", st.State, got, err)
	}

	// The completion landed in the content-addressed cache too: an identical
	// resubmit is a cache hit, and PeerResult serves peers directly.
	if state, cached, _ := s.PeerResult(context.Background(), stolen.ID, 0); state != StateDone || cached.ParallelWorkers != 7 {
		t.Fatalf("PeerResult after steal completion = %s %+v", state, cached)
	}
	dup, outcome, err := s.Submit(stolen.Spec)
	if err != nil || outcome != OutcomeCached {
		t.Fatalf("resubmit after steal: outcome %v err %v, want cached", outcome, err)
	}
	if dup.State != StateDone {
		t.Fatalf("cached resubmit state %s, want done", dup.State)
	}

	m := s.Metrics()
	if m.JobsStolen != 1 || m.StealsCompleted != 1 {
		t.Fatalf("steal counters = %d/%d, want 1/1", m.JobsStolen, m.StealsCompleted)
	}
}

func TestStealFailureLandsOnVictim(t *testing.T) {
	s, release, started := blockedStealServer(t)
	defer func() {
		close(release)
		s.Shutdown(context.Background())
	}()
	queued := loadTwo(t, s, started)

	stolen, ok := s.Steal("thief")
	if !ok {
		t.Fatal("nothing stolen")
	}
	if err := s.CompleteStolen(stolen.ID, nil, "thief blew up"); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Job(queued.ID); st.State != StateFailed || st.Error != "thief blew up" {
		t.Fatalf("failed completion: state %s err %q", st.State, st.Error)
	}
}

func TestCancelStolenJob(t *testing.T) {
	s, release, started := blockedStealServer(t)
	defer func() {
		close(release)
		s.Shutdown(context.Background())
	}()
	queued := loadTwo(t, s, started)

	if _, ok := s.Steal("thief"); !ok {
		t.Fatal("nothing stolen")
	}
	st, err := s.Cancel(queued.ID)
	if err != nil || st.State != StateCanceled {
		t.Fatalf("cancel stolen: state %s err %v, want canceled", st.State, err)
	}
	// The thief's late completion is dropped silently; the cancel stands.
	if err := s.CompleteStolen(queued.ID, &report.Report{}, ""); err != nil {
		t.Fatalf("late completion errored: %v", err)
	}
	if got, _ := s.Job(queued.ID); got.State != StateCanceled {
		t.Fatalf("state after late completion = %s, want canceled", got.State)
	}
}

func TestStealEdgeCases(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Execute: func(ctx context.Context, spec Spec) (*report.Report, error) {
		return &report.Report{}, nil
	}})
	defer s.Shutdown(context.Background())

	if _, ok := s.Steal("thief"); ok {
		t.Fatal("stole from an empty queue")
	}
	if err := s.CompleteStolen("nope", nil, "x"); err != ErrNotFound {
		t.Fatalf("unknown completion err = %v, want ErrNotFound", err)
	}
	if err := s.ReclaimStolen("nope"); err != ErrNotFound {
		t.Fatalf("unknown reclaim err = %v, want ErrNotFound", err)
	}
}

// TestPeerResultStates walks one hash through every answer a waiting peer
// can get: nothing to wait for (unknown, stolen, canceled), pending while a
// local worker owes it, done with the report, failed with the error.
func TestPeerResultStates(t *testing.T) {
	s, release, started := blockedStealServer(t)
	defer s.Shutdown(context.Background())
	ctx := context.Background()
	state := func(hash string) State {
		st, _, _ := s.PeerResult(ctx, hash, time.Millisecond)
		return st
	}

	queued := loadTwo(t, s, started)
	if got := state("no-such-hash"); got != "" {
		t.Fatalf("unknown hash: %q, want nothing to wait for", got)
	}
	if got := state(queued.ID); got != StateQueued {
		t.Fatalf("queued hash: %q, want queued", got)
	}
	canon, err := Spec{Type: "table", Table: 1}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	running := canon.Hash()
	if got := state(running); got != StateRunning {
		t.Fatalf("running hash: %q, want running", got)
	}

	// A stolen job waits on its thief, so it must not be waited on here.
	if _, ok := s.Steal("thief"); !ok {
		t.Fatal("nothing stolen")
	}
	if got := state(queued.ID); got != "" {
		t.Fatalf("stolen hash: %q, want nothing to wait for", got)
	}
	if err := s.CompleteStolen(queued.ID, nil, "thief blew up"); err != nil {
		t.Fatal(err)
	}
	if got, _, msg := s.PeerResult(ctx, queued.ID, 0); got != StateFailed || msg != "thief blew up" {
		t.Fatalf("failed hash: %q %q, want failed with the thief's error", got, msg)
	}

	// A client's cancel is reported, so a steal victim waiting here cancels
	// its job too; a drain's cancel is not, so the victim takes it back.
	canceled, _, err := s.Submit(sensSpec("tlb"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	if got := state(canceled.ID); got != StateCanceled {
		t.Fatalf("canceled hash: %q, want canceled", got)
	}
	drained, _, err := s.Submit(sensSpec("pagesize"))
	if err != nil {
		t.Fatal(err)
	}
	go s.Shutdown(ctx) //nolint:errcheck // waits for the running job, released below
	for st, _ := s.Job(drained.ID); st.State != StateCanceled; st, _ = s.Job(drained.ID) {
		time.Sleep(time.Millisecond)
	}
	if got := state(drained.ID); got != "" {
		t.Fatalf("drained hash: %q, want nothing to wait for", got)
	}

	// A held poll returns as soon as the local execution lands.
	done := make(chan State, 1)
	go func() {
		st, _, _ := s.PeerResult(ctx, running, time.Minute)
		done <- st
	}()
	close(release)
	select {
	case got := <-done:
		if got != StateDone {
			t.Fatalf("held poll answered %q, want done", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("held poll did not return when the job finished")
	}
}
