package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Distributed trace identity. A job minted anywhere in the cluster carries
// one trace_id for its whole life — across submit forwarding, work steals,
// journal replication, and successor takeover — and every span it produces
// on any node records its span_id plus the span_id of its parent, W3C
// trace-context style. Merging the per-node trace files therefore yields one
// connected parent/child tree per job, which ValidateClusterTraces checks
// and Perfetto renders as a single cross-node timeline.

// TraceparentHeader carries the trace context between nodes (and from
// clients), valued with TraceContext.Traceparent's W3C-style rendering.
const TraceparentHeader = "X-GPS-Traceparent"

// TraceContext is a propagated trace position: the trace being continued
// and the span that is the parent of whatever starts next. The zero value
// means "no trace".
type TraceContext struct {
	TraceID string `json:"trace_id,omitempty"` // 32 hex chars
	SpanID  string `json:"span_id,omitempty"`  // 16 hex chars; parent of the next span
}

// TraceInfo is one job's full trace identity: the trace it belongs to, the
// span_id of its own job span, and the parent span that submitted it ("" at
// the trace root). It is persisted in the journal and replicated to the
// ring successor so adopted and replayed jobs keep their identity.
type TraceInfo struct {
	TraceID      string `json:"trace_id,omitempty"`
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
}

// Context returns the propagation context for children of this job's span.
func (ti TraceInfo) Context() TraceContext {
	return TraceContext{TraceID: ti.TraceID, SpanID: ti.SpanID}
}

// NewTraceID mints a random 128-bit trace ID (32 hex chars).
func NewTraceID() string { return randomHex(16) }

// NewSpanID mints a random 64-bit span ID (16 hex chars).
func NewSpanID() string { return randomHex(8) }

func randomHex(n int) string {
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		// crypto/rand failing means the platform is broken; a zero ID keeps
		// tracing degraded-but-functional rather than panicking a job.
		return strings.Repeat("0", 2*n)
	}
	return hex.EncodeToString(buf)
}

// NewJobTrace mints a job's trace identity under a parent context: the
// trace continues (or starts, when parent is zero) and the job gets a fresh
// span ID with the parent recorded.
func NewJobTrace(parent TraceContext) TraceInfo {
	if parent.TraceID == "" {
		parent.TraceID = NewTraceID()
	}
	return TraceInfo{TraceID: parent.TraceID, SpanID: NewSpanID(), ParentSpanID: parent.SpanID}
}

// Traceparent renders the context as a W3C traceparent value
// ("00-<trace_id>-<span_id>-01"). A zero context renders "".
func (tc TraceContext) Traceparent() string {
	if tc.TraceID == "" {
		return ""
	}
	span := tc.SpanID
	if span == "" {
		span = strings.Repeat("0", 16)
	}
	return "00-" + tc.TraceID + "-" + span + "-01"
}

// ParseTraceparent parses a W3C traceparent value. Unparseable or empty
// input yields the zero context and ok=false; an all-zero span ID (a trace
// with no parent span yet) parses with SpanID "".
func ParseTraceparent(s string) (TraceContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 4 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return TraceContext{}, false
	}
	if !isHex(parts[1]) || !isHex(parts[2]) {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: parts[1], SpanID: parts[2]}
	if tc.SpanID == strings.Repeat("0", 16) {
		tc.SpanID = ""
	}
	if tc.TraceID == strings.Repeat("0", 32) {
		return TraceContext{}, false
	}
	return tc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// traceCtxKey carries a TraceContext in a context.Context (see trace.go for
// the companion tracer/span keys).
type traceCtxKey struct{}

// nodePid maps a node name onto a stable trace-event pid, so each node's
// spans render as their own process group (track-per-node) when per-node
// files are merged into one Perfetto timeline. "" keeps the classic pid 1.
func nodePid(node string) int {
	if node == "" {
		return 1
	}
	h := fnv.New32a()
	h.Write([]byte(node)) //nolint:errcheck // fnv never errors
	return int(h.Sum32()%1_000_000) + 2
}

// StaticSpan is one pre-timed span for WriteStaticTrace: the service uses
// it to flush a trace for jobs that reached a terminal state without a
// local execution (executed by a thief after a steal), where no live Tracer
// ever existed.
type StaticSpan struct {
	Cat, Name    string
	Start, End   time.Time
	SpanID       string
	ParentSpanID string
	Args         map[string]string
}

// WriteStaticTrace writes a complete, valid Chrome trace-event JSON array
// holding the given spans, node-tagged and stamped with the trace identity,
// without running a Tracer. Spans get one track each; timestamps are
// relative to the earliest span start, and the wall-clock epoch is recorded
// in a trace_start metadata event so MergeTraces can align files.
func WriteStaticTrace(w io.Writer, node, traceID string, spans []StaticSpan) error {
	if len(spans) == 0 {
		_, err := w.Write([]byte("[\n]\n"))
		return err
	}
	epoch := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	pid := nodePid(node)
	events := []event{
		{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]string{"name": processName(node)}},
		{Name: "trace_start", Ph: "M", Pid: pid,
			Args: map[string]string{"unix_us": strconv.FormatInt(epoch.UnixMicro(), 10)}},
	}
	for i, s := range spans {
		ts := float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3
		end := float64(s.End.Sub(epoch).Nanoseconds()) / 1e3
		if end <= ts {
			end = ts + 0.001 // clamp: B must precede E for validation
		}
		args := map[string]string{}
		for k, v := range s.Args {
			args[k] = v
		}
		if traceID != "" {
			args["trace_id"] = traceID
			if s.SpanID != "" {
				args["span_id"] = s.SpanID
			}
			if s.ParentSpanID != "" {
				args["parent_span_id"] = s.ParentSpanID
			}
		}
		tid := uint64(i + 1)
		events = append(events,
			event{Name: s.Name, Cat: s.Cat, Ph: "B", Ts: ts, Pid: pid, Tid: tid, Args: args},
			event{Name: s.Name, Cat: s.Cat, Ph: "E", Ts: end, Pid: pid, Tid: tid},
		)
	}
	data, err := json.MarshalIndent(events, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteStaticTraceFile is WriteStaticTrace to a freshly created file.
func WriteStaticTraceFile(path, node, traceID string, spans []StaticSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := WriteStaticTrace(f, node, traceID, spans)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("obs: static trace %s: %w", path, werr)
	}
	return nil
}

// processName renders the node's display name for process_name metadata.
func processName(node string) string {
	if node == "" {
		return "gps"
	}
	return "gpsd-" + node
}
