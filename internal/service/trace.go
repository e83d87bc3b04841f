package service

import (
	"path/filepath"

	"gps/internal/obs"
)

// traceFile is where one execution of a job writes its span trace. The job
// span ID is part of the name because the job ID (the spec hash) repeats
// across executions on a node: a re-run after a failure, a cancel, or a
// cache eviction must not overwrite the earlier run's trace.
func (s *Server) traceFile(job *Job) string {
	return filepath.Join(s.cfg.TraceDir, job.ID+"-"+job.Trace.SpanID+".trace.json")
}

// writeRemoteExecTrace flushes a static span trace for a job that reached
// a terminal state on a thief's executor. runJob never saw the job, so
// without this flush its trace identity would have no span on the node that
// owns it and the cross-node trace would lose its root: the job span under
// its original identity plus one "remote-exec" phase span naming the peer.
// Callers hold s.mu; file IO runs on its own goroutine.
func (s *Server) writeRemoteExecTrace(job *Job) {
	if s.cfg.TraceDir == "" || job.Trace.TraceID == "" {
		return
	}
	args := map[string]string{"hash": job.ID, "state": string(job.State), "peer": job.StolenBy}
	if s.cfg.NodeID != "" {
		args["node_id"] = s.cfg.NodeID
	}
	if job.Err != "" {
		args["error"] = job.Err
	}
	spans := []obs.StaticSpan{
		{
			Cat: obs.CatJob, Name: job.ID,
			Start: job.SubmittedAt, End: job.FinishedAt,
			SpanID: job.Trace.SpanID, ParentSpanID: job.Trace.ParentSpanID,
			Args: args,
		},
		{
			Cat: obs.CatPhase, Name: "remote-exec",
			Start: job.StartedAt, End: job.FinishedAt,
			SpanID: obs.NewSpanID(), ParentSpanID: job.Trace.SpanID,
		},
	}
	path := s.traceFile(job)
	id, node, traceID, logger := job.ID, s.cfg.NodeID, job.Trace.TraceID, s.logger
	go func() {
		if err := obs.WriteStaticTraceFile(path, node, traceID, spans); err != nil {
			logger.Warn("remote-exec trace write failed", "job_id", id, "err", err)
		}
	}()
}
