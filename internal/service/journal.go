package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gps/internal/obs"
)

// The job journal is gpsd's write-ahead log: an append-only file of JSON
// lines recording every job transition (submit, start, done, fail, cancel),
// fsynced on commit. Records are keyed by job ID, which is the canonical
// spec hash, so one ID may be submitted again after a terminal record (a
// failed or canceled spec re-run). On startup the journal is replayed: jobs
// that were queued or running when the process died are re-enqueued, and
// terminal entries are pruned by rewriting the file (compaction). A torn final line — the signature of a crash mid-append —
// is tolerated and dropped.
//
// The journal assumes a single daemon per file; there is no inter-process
// locking.

// Journal transition ops. Exported because the cluster's replication layer
// speaks the same vocabulary: a JournalSink receives these op strings, and
// the successor's replica store interprets them (submit adds, the terminal
// ops prune).
const (
	OpSubmit = "submit"
	OpStart  = "start"
	OpDone   = "done"
	OpFail   = "fail"
	OpCancel = "cancel"
)

// journalRecord is one JSON line of the journal.
type journalRecord struct {
	Op    string         `json:"op"`
	ID    string         `json:"id"`
	Spec  *Spec          `json:"spec,omitempty"`  // on submit
	Trace *obs.TraceInfo `json:"trace,omitempty"` // on submit: distributed trace identity
	Err   string         `json:"error,omitempty"`
	Time  string         `json:"time,omitempty"` // RFC3339Nano, informational
}

// PendingJob is one journaled job that had not reached a terminal state
// when the journal was last written: work a restarted daemon owes its
// clients.
type PendingJob struct {
	ID      string
	Spec    Spec
	Trace   obs.TraceInfo // original trace identity, kept across replay/adoption
	Started bool          // it was mid-execution, not just queued
}

// JournalSink receives every record committed to the journal, after its
// local fsync. The cluster layer implements it to replicate submit and
// terminal records to the ring successor, so a permanently dead node's
// accepted jobs can be promoted and re-run elsewhere. The sink is invoked
// outside the journal lock; per-job ordering (submit before its terminal
// record) still holds because a job only becomes visible to workers after
// its submit record — sink call included — returns.
type JournalSink interface {
	JournalRecord(op, id string, spec *Spec, trace *obs.TraceInfo, errStr string)
}

// Journal is the durable job log. All methods are safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	pending []PendingJob
	records uint64
	sink    JournalSink
}

// OpenJournal opens (or creates) the journal at path, replays it, compacts
// terminal entries away, and returns it ready for appends. The pending jobs
// recovered from the replay are consumed by service.New via TakePending.
func OpenJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	pending := replayJournal(data)

	// Compact: the rewritten journal holds one submit record per pending
	// job (plus a start marker where applicable) and nothing else. Write
	// to a temp file, fsync, and rename over the old journal so a crash
	// during compaction loses nothing.
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	w := bufio.NewWriter(f)
	now := time.Now().UTC().Format(time.RFC3339Nano)
	for i := range pending {
		p := &pending[i]
		var tr *obs.TraceInfo
		if p.Trace.TraceID != "" {
			tr = &p.Trace
		}
		if err := writeRecord(w, journalRecord{Op: OpSubmit, ID: p.ID, Spec: &p.Spec, Trace: tr, Time: now}); err != nil {
			f.Close()
			return nil, err
		}
		if p.Started {
			if err := writeRecord(w, journalRecord{Op: OpStart, ID: p.ID, Time: now}); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	syncDir(path)

	af, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	return &Journal{path: path, f: af, pending: pending}, nil
}

// replayJournal folds the journal bytes into the set of still-pending jobs,
// in first-submit order. Unparseable lines (torn tail writes) and records
// for unknown IDs are skipped; a submit after an ID's terminal record starts
// that ID over.
func replayJournal(data []byte) []PendingJob {
	type state struct {
		spec     Spec
		trace    obs.TraceInfo
		started  bool
		terminal bool
	}
	states := map[string]*state{}
	var order []string
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn write or corruption: drop the line
		}
		switch rec.Op {
		case OpSubmit:
			if rec.Spec == nil || rec.ID == "" {
				continue
			}
			prev, ok := states[rec.ID]
			if ok && !prev.terminal {
				continue // duplicate submit of a live job: keep the first
			}
			if !ok {
				order = append(order, rec.ID)
			}
			st := &state{spec: *rec.Spec}
			if rec.Trace != nil {
				st.trace = *rec.Trace
			}
			states[rec.ID] = st
		case OpStart:
			if st, ok := states[rec.ID]; ok {
				st.started = true
			}
		case OpDone, OpFail, OpCancel:
			if st, ok := states[rec.ID]; ok {
				st.terminal = true
			}
		}
	}
	var pending []PendingJob
	for _, id := range order {
		st := states[id]
		if st.terminal {
			continue
		}
		pending = append(pending, PendingJob{ID: id, Spec: st.spec, Trace: st.trace, Started: st.started})
	}
	return pending
}

func writeRecord(w *bufio.Writer, rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	return nil
}

// syncDir fsyncs the journal's directory so a rename survives power loss;
// best-effort (some filesystems refuse directory syncs).
func syncDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // best-effort
	d.Close()
}

// SetSink attaches (or replaces) the replication sink. A nil journal or nil
// sink is fine; replication simply stays off. Records appended before the
// sink was attached are not re-emitted — the cluster layer covers that gap
// by pushing a full snapshot of the service's live jobs on its first
// successful replication flush.
func (j *Journal) SetSink(s JournalSink) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sink = s
}

// TakePending hands the replayed pending jobs to the consumer exactly once.
func (j *Journal) TakePending() []PendingJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.pending
	j.pending = nil
	return p
}

// record appends one transition and fsyncs it — the commit point. Every
// record that matters for recovery (submit and the terminal ops) goes
// through here before the caller acts on it. trace rides on submit records
// so replayed and adopted jobs keep their distributed trace identity.
func (j *Journal) record(op, id string, spec *Spec, trace *obs.TraceInfo, errStr string) error {
	if j == nil {
		return nil
	}
	rec := journalRecord{
		Op: op, ID: id, Spec: spec, Trace: trace, Err: errStr,
		Time: time.Now().UTC().Format(time.RFC3339Nano),
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: journal: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return fmt.Errorf("service: journal closed")
	}
	if _, err := j.f.Write(data); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("service: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("service: journal: %w", err)
	}
	j.records++
	sink := j.sink
	j.mu.Unlock()
	// Replication runs after the local commit and outside the journal lock:
	// a slow successor throttles the job that caused the record, not every
	// concurrent journal append. Sink failures never undo a local commit.
	if sink != nil {
		sink.JournalRecord(op, id, spec, trace, errStr)
	}
	return nil
}

// Records reports how many transitions this process has appended.
func (j *Journal) Records() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Close flushes and closes the journal file. Further records error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
