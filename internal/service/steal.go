package service

import (
	"context"
	"fmt"
	"time"

	"gps/internal/obs"
	"gps/internal/report"
)

// Work stealing, victim side. An overloaded node hands one queued job to an
// idle peer (the thief): Steal checks the job out of the queue, the thief
// runs the spec as an ordinary job of its own under the same hash, and the
// cluster layer waits on the thief by hash and lands the outcome here with
// CompleteStolen (or Cancel, when a client canceled it on the thief) — or
// takes the job back with ReclaimStolen when the thief refuses, loses, or
// stops answering for it. The job's waiters, journal
// entry, and cache commit all stay on this node, so clients polling it
// never notice where the engine actually ran.

// StolenJob is the work handed to a thief: enough to execute the spec
// elsewhere. Trace carries the victim job's trace position (trace_id + the
// victim job span as parent), so the thief's local execution chains under
// it and the two nodes' trace files merge into one timeline.
type StolenJob struct {
	ID    string           `json:"id"` // the spec hash
	Spec  Spec             `json:"spec"`
	Trace obs.TraceContext `json:"trace,omitempty"`
}

// Steal checks one queued job out to the named thief node. It reports false
// when the queue is empty (or every queued entry was already canceled).
// The job transitions to running with StolenBy set and no local executor
// until the thief's outcome lands or the job is reclaimed.
func (s *Server) Steal(thief string) (StolenJob, bool) {
	for {
		var job *Job
		select {
		case job = <-s.queue:
		default:
			return StolenJob{}, false
		}
		if job == nil { // queue closed by a drain
			return StolenJob{}, false
		}
		s.mu.Lock()
		if job.State != StateQueued { // canceled while waiting; try the next one
			s.mu.Unlock()
			continue
		}
		job.State = StateRunning
		job.StolenBy = thief
		job.StartedAt = time.Now()
		s.jobsStolen.Add(1)
		s.cfg.Journal.record(OpStart, job.ID, nil, nil, "") //nolint:errcheck // informational; replay re-runs either way
		s.logger.Info("job stolen", "job_id", job.ID, "thief", thief)
		out := StolenJob{ID: job.ID, Spec: job.Spec, Trace: job.Trace.Context()}
		s.mu.Unlock()
		return out, true
	}
}

// CompleteStolen lands a thief's result (or failure) on the victim's job.
// Completions for unknown IDs error; completions for jobs that were
// reclaimed or canceled in the meantime are dropped silently — the job
// already has an owner for its outcome.
func (s *Server) CompleteStolen(id string, res *report.Report, errMsg string) error {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if job.State != StateRunning || job.StolenBy == "" {
		return nil // reclaimed, canceled, or re-run locally; drop the late completion
	}
	job.FinishedAt = now
	exec := now.Sub(job.StartedAt)
	s.execSeconds += exec.Seconds()
	s.jobExec.Observe(exec.Seconds())
	switch {
	case res != nil:
		job.State = StateDone
		job.Result = res
		if werr := s.cachePutFenced(job.ID, res); werr != nil {
			s.cacheWriteErrs.Add(1)
		}
		s.jobsDone.Add(1)
		s.stealsCompleted.Add(1)
		s.cfg.Journal.record(OpDone, job.ID, nil, nil, "") //nolint:errcheck // terminal close-out
		s.logger.Info("stolen job done", "job_id", job.ID, "thief", job.StolenBy,
			"exec_seconds", exec.Seconds())
	default:
		if errMsg == "" {
			errMsg = "stolen job failed on thief " + job.StolenBy
		}
		job.State = StateFailed
		job.Err = errMsg
		s.jobsFailed.Add(1)
		s.cfg.Journal.record(OpFail, job.ID, nil, nil, job.Err) //nolint:errcheck // terminal close-out
		s.logger.Error("stolen job failed", "job_id", job.ID, "thief", job.StolenBy, "err", errMsg)
	}
	close(job.done)
	s.retireLocked(job)
	s.writeRemoteExecTrace(job)
	return nil
}

// ReclaimStolen takes a stolen job back because its thief cannot deliver:
// it refused the spec, lost the job, or stopped answering. The job returns
// to the local queue; if the server is draining, or the queue refilled while
// the job was checked out, it fails instead. Jobs no longer checked out are
// left alone.
func (s *Server) ReclaimStolen(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if job.State != StateRunning || job.StolenBy == "" {
		return nil // completed, canceled, or already reclaimed
	}
	thief := job.StolenBy
	job.StolenBy = ""
	s.stealReclaims.Add(1)
	if !s.closed { // a drain closes the queue
		job.State = StateQueued
		job.StartedAt = time.Time{}
		select {
		case s.queue <- job:
			s.logger.Warn("stolen job reclaimed", "job_id", id, "thief", thief)
			return nil
		default:
		}
	}
	job.State = StateFailed
	job.Err = fmt.Sprintf("stolen by %s, never completed, could not re-queue", thief)
	job.FinishedAt = time.Now()
	s.jobsFailed.Add(1)
	s.cfg.Journal.record(OpFail, job.ID, nil, nil, job.Err) //nolint:errcheck // terminal close-out
	close(job.done)
	s.retireLocked(job)
	return nil
}

// PeerResult answers a peer waiting on a spec hash — the server side of
// GET /v1/peer/results/{hash}. It reports StateDone with the report when
// this node has one; StateFailed with the error when the hash's latest
// execution here failed; StateCanceled when a client canceled it here, so a
// steal victim waiting on this node cancels its job too instead of running
// it again; StateQueued or StateRunning while a local worker owes it; and
// "" when there is nothing to wait for here: the hash is unknown, was
// dropped by a drain, or its job is itself waiting on a peer (stolen, or
// still asking peers), so two nodes never wait on each other. The answer
// for a non-terminal job that is not stolen is held for up to hold (or
// until ctx ends): the waiter learns the outcome as it lands, and a job
// whose own short peer lookup is under way is judged after it, not during.
func (s *Server) PeerResult(ctx context.Context, hash string, hold time.Duration) (State, *report.Report, string) {
	s.mu.Lock()
	if job := s.jobs[hash]; job != nil && !job.State.Terminal() && job.StolenBy == "" {
		s.mu.Unlock()
		t := time.NewTimer(hold)
		select {
		case <-job.done:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	if res, ok := s.cache.get(hash); ok {
		return StateDone, res, ""
	}
	job := s.jobs[hash]
	switch {
	case job == nil:
		return "", nil, ""
	case job.State == StateDone, job.State == StateFailed:
		return job.State, job.Result, job.Err
	case job.State == StateCanceled && job.Err == errJobCanceled.Error():
		return StateCanceled, nil, ""
	case job.executesHere():
		return job.State, nil, ""
	}
	return "", nil, ""
}
