// Package httpapi exposes the simulation service over a JSON REST API:
//
//	POST   /v1/jobs           submit a job spec; 202 queued, 200 cached or
//	                          coalesced, 400 invalid, 429 queue full
//	                          (with Retry-After), 503 shutting down. The
//	                          job ID is the spec's canonical hash.
//	GET    /v1/jobs/{id}      poll status + progress
//	GET    /v1/jobs/{id}/result  fetch the report of a done job; 202 while
//	                          queued/running, 409 canceled, 500 failed
//	DELETE /v1/jobs/{id}      cancel a queued or running job
//	GET    /v1/healthz        liveness: status (ok | draining), node
//	                          identity, cluster role, peer liveness summary,
//	                          uptime, build info, worker/queue snapshot; 503
//	                          with the same JSON body while draining
//	GET    /v1/metrics        queue depth, worker utilization, cache
//	                          hit/miss, wall-clock accounting (JSON)
//	GET    /metrics           the same counters plus latency histograms in
//	                          Prometheus text exposition format (only wired
//	                          when a registry is configured)
//
// With a cluster configured (gpsd -node-id/-peers) the handler also routes
// by the ring owner of the canonical hash (cluster.Owner): a submit is
// forwarded to its owner, and a status/result/cancel request is proxied to
// the owner of the job ID, answered here only when the owner does not hold
// the job (or, for reads, cannot be reached) — both guarded against
// forwarding loops by the X-GPS-Forwarded-From header. A dead
// owner's hashes route to its ring successor, the node that takes its
// replicated jobs over, so reads keep working across a node death. Three
// internal endpoints carry the node-to-node traffic:
//
//	GET    /v1/peer/results/{hash}       wait on a hash: 200 report, 202
//	                                     queued or running here (held
//	                                     briefly), 500 failed, 409
//	                                     canceled by a client, 404
//	                                     nothing to wait for here
//	POST   /v1/peer/steal?thief={node}   hand one queued job to the thief
//	                                     (work steal)
//	POST   /v1/peer/journal              ingest a peer's replicated journal
//	                                     records (self-healing stream)
//
// The result endpoint emits the same report schema as gpsbench -json
// (internal/report), so CLI and service output are byte-compatible.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"gps/internal/client"
	"gps/internal/cluster"
	"gps/internal/obs"
	"gps/internal/service"
)

// Handler serves the REST API for one service.Server.
type Handler struct {
	svc     *service.Server
	cluster *cluster.Cluster // nil on a single-node daemon
	mux     *http.ServeMux
	handler http.Handler // mux, possibly wrapped in access logging
}

// Option customizes a Handler.
type Option func(*options)

type options struct {
	logger   *slog.Logger
	registry *obs.Registry
	cluster  *cluster.Cluster
}

// WithLogger wraps every request in access logging (method, path, status,
// bytes, latency) on l at Info level.
func WithLogger(l *slog.Logger) Option {
	return func(o *options) { o.logger = l }
}

// WithRegistry serves reg in Prometheus text format at GET /metrics and
// records per-request latency/status counters into it.
func WithRegistry(reg *obs.Registry) Option {
	return func(o *options) { o.registry = reg }
}

// WithCluster enables cluster routing: consistent-hash ownership of submits
// and job reads, and the internal /v1/peer/* endpoints.
func WithCluster(c *cluster.Cluster) Option {
	return func(o *options) { o.cluster = c }
}

// New wires the routes.
func New(svc *service.Server, opts ...Option) *Handler {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	h := &Handler{svc: svc, cluster: o.cluster, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/jobs", h.submit)
	h.mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	h.mux.HandleFunc("GET /v1/jobs/{id}/result", h.result)
	h.mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	h.mux.HandleFunc("GET /v1/healthz", h.healthz)
	h.mux.HandleFunc("GET /v1/metrics", h.metrics)
	h.mux.HandleFunc("GET /v1/cluster/metrics", h.clusterMetrics)
	if o.cluster != nil {
		h.mux.HandleFunc("GET /v1/peer/results/{hash}", h.peerResult)
		h.mux.HandleFunc("POST /v1/peer/steal", h.peerSteal)
		h.mux.HandleFunc("POST /v1/peer/journal", h.peerJournal)
	}
	if o.registry != nil {
		h.mux.Handle("GET /metrics", o.registry.Handler())
	}
	h.handler = h.mux
	if o.logger != nil || o.registry != nil {
		h.handler = obs.AccessLog(o.logger, o.registry, h.mux)
	}
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.handler.ServeHTTP(w, r) }

// writeJSON emits a JSON body with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeRaw passes a proxied response through byte-for-byte, so a report
// served via another node is identical to one served by the owner.
func writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body) //nolint:errcheck // client gone; nothing to do
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// maxSpecBytes caps the request body on submit. Specs are small (a matrix of
// a few dozen cells is under a kilobyte); anything bigger is a client bug or
// an attempt to balloon the daemon's memory.
const maxSpecBytes = 1 << 20

// submitResponse decorates the job snapshot with what Submit did, so
// clients can tell a fresh execution from a coalesced or cached one.
type submitResponse struct {
	service.Status
	Outcome string `json:"outcome"` // accepted | coalesced | cached
}

func (h *Handler) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("spec exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad spec: " + err.Error()})
		return
	}
	var spec service.Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad spec: " + err.Error()})
		return
	}

	// Cluster routing: the canonical hash names the owner node. A request
	// that already crossed a node boundary (the loop-guard header) is
	// always handled locally, so inconsistent ring views cannot loop; an
	// unreachable owner degrades to local handling — this node is the
	// hash's live-set successor once the probe marks the owner dead.
	if h.cluster != nil && r.Header.Get(cluster.ForwardHeader) == "" {
		if canon, cerr := spec.Canonicalize(); cerr == nil {
			if owner := h.cluster.Owner(canon.Hash()); owner != h.cluster.Self() {
				code, resp, ferr := h.cluster.ForwardSubmit(r.Context(), owner, body,
					r.Header.Get(obs.TraceparentHeader))
				if ferr == nil {
					writeRaw(w, code, resp)
					return
				}
				// fall through: serve locally as the fallback owner
			}
		}
		// Canonicalization errors fall through too: the local Submit
		// produces the proper 400.
	}

	// The incoming traceparent (from the client, or stamped by the node
	// that forwarded here) becomes the job's trace parent; without one a
	// fresh trace is minted at admission.
	parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	st, outcome, err := h.svc.SubmitTraced(spec, parent)
	switch {
	case errors.Is(err, service.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(h.svc.RetryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, service.ErrShuttingDown):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case errors.Is(err, service.ErrInvalidSpec):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	case err != nil:
		// Admission failed for a non-client reason (e.g. the journal append
		// could not be committed): the daemon's fault, not the spec's.
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	if st.Trace != nil {
		// Echo the job's trace position so callers can correlate follow-up
		// requests (and their own spans) with the job's distributed trace.
		w.Header().Set(obs.TraceparentHeader, st.Trace.Context().Traceparent())
	}
	resp := submitResponse{Status: st}
	code := http.StatusAccepted
	switch outcome {
	case service.OutcomeAccepted:
		resp.Outcome = "accepted"
	case service.OutcomeCoalesced:
		resp.Outcome = "coalesced"
		code = http.StatusOK
	case service.OutcomeCached:
		resp.Outcome = "cached"
		code = http.StatusOK
	}
	writeJSON(w, code, resp)
}

// proxied relays a job read/cancel to the ring owner of the job ID (a spec
// hash) and reports true when it handled the request. The owner is asked
// first even when this node holds a job under the hash: a thief's copy of a
// stolen job lives here under the same ID while the owner's job is the one
// clients submitted, so a cancel must stop the owner's job, and reads must
// show it. Only when the owner answers 404 — the job lives off-owner, e.g. a
// forced-local submit — is a local job answered instead; a read also falls
// back to it when the owner is unreachable. Requests already carrying the
// loop-guard header are always handled locally.
func (h *Handler) proxied(w http.ResponseWriter, r *http.Request, id, suffix string) bool {
	if h.cluster == nil || r.Header.Get(cluster.ForwardHeader) != "" {
		return false
	}
	owner := h.cluster.Owner(id)
	if owner == h.cluster.Self() {
		return false
	}
	code, body, err := h.cluster.ProxyJob(r.Context(), owner, r.Method, "/v1/jobs/"+id+suffix,
		r.Header.Get(obs.TraceparentHeader))
	if err == nil && code != http.StatusNotFound {
		writeRaw(w, code, body)
		return true
	}
	if _, lerr := h.svc.Job(id); lerr == nil && (err == nil || r.Method == http.MethodGet) {
		return false
	}
	if err != nil {
		writeJSON(w, http.StatusBadGateway,
			errorBody{Error: fmt.Sprintf("node %s unreachable: %v", owner, err)})
		return true
	}
	writeRaw(w, code, body)
	return true
}

func (h *Handler) status(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if h.proxied(w, r, id, "") {
		return
	}
	st, err := h.svc.Job(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *Handler) result(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if h.proxied(w, r, id, "/result") {
		return
	}
	st, res, err := h.svc.Result(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	switch st.State {
	case service.StateDone:
		// The report schema shared with gpsbench -json, byte for byte.
		writeJSON(w, http.StatusOK, res)
	case service.StateFailed:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: st.Error})
	case service.StateCanceled:
		writeJSON(w, http.StatusConflict, errorBody{Error: "job canceled"})
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (h *Handler) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if h.proxied(w, r, id, "") {
		return
	}
	st, err := h.svc.Cancel(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	m := h.svc.Metrics()
	status, code := "ok", http.StatusOK
	if h.svc.Draining() {
		// Load balancers reading the status code stop routing here while
		// in-flight jobs finish; the body stays the full JSON health
		// snapshot so operators can still see identity and progress.
		status, code = "draining", http.StatusServiceUnavailable
	}
	bi := obs.ReadBuildInfo()
	hz := client.Health{
		Status:        status,
		NodeID:        h.svc.NodeID(),
		Role:          "single",
		UptimeSeconds: m.UptimeSeconds,
		Workers:       m.Workers,
		BusyWorkers:   m.BusyWorkers,
		QueueDepth:    m.QueueDepth,
		QueueCapacity: m.QueueCapacity,
	}
	hz.Build.GoVersion = bi.GoVersion
	hz.Build.Revision = bi.Revision
	hz.Build.VCSTime = bi.Time
	hz.Build.Modified = bi.Modified
	if h.cluster != nil {
		hz.Role = "cluster"
		hz.NodeID = h.cluster.Self()
		peers, alive := h.cluster.PeersHealth()
		hz.Peers, hz.PeersAlive, hz.PeersTotal = peers, alive, len(peers)
		stats := h.cluster.Stats()
		hz.Cluster = &stats
		hz.Ring = h.cluster.RingSample(ringSamplePoints)
	}
	writeJSON(w, code, hz)
}

// peerResultHold is how long the peer result endpoint holds a request open
// for a hash still executing here before answering 202, so a waiting peer
// learns the outcome as it lands instead of on its next poll.
const peerResultHold = time.Second

// peerResult answers a peer waiting on a canonical spec hash (see
// service.Server.PeerResult): 200 with the report, 500 with the error of a
// failed execution, 202 while it is queued or running here, and 404 when
// there is nothing to wait for here.
func (h *Handler) peerResult(w http.ResponseWriter, r *http.Request) {
	state, res, errMsg := h.svc.PeerResult(r.Context(), r.PathValue("hash"), peerResultHold)
	switch state {
	case service.StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		res.Encode(w) //nolint:errcheck // client gone; nothing to do
	case service.StateFailed:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: errMsg})
	case service.StateCanceled:
		writeJSON(w, http.StatusConflict, errorBody{Error: "job canceled"})
	case service.StateQueued, service.StateRunning:
		writeJSON(w, http.StatusAccepted, map[string]service.State{"state": state})
	default:
		writeJSON(w, http.StatusNotFound, errorBody{Error: "nothing to wait for on this node"})
	}
}

// peerSteal hands one queued job to the requesting thief node (see
// cluster.ServeSteal). The victim only gives work away while genuinely
// overloaded (all workers busy and a non-empty queue); otherwise 204.
func (h *Handler) peerSteal(w http.ResponseWriter, r *http.Request) {
	thief := r.URL.Query().Get("thief")
	if thief == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "missing thief parameter"})
		return
	}
	m := h.svc.Metrics()
	if bin := (cluster.Bin{Capacity: m.Workers, Busy: m.BusyWorkers, Queued: m.QueueDepth}); !bin.Overloaded() {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	stolen, ok := h.cluster.ServeSteal(r.Context(), thief)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, stolen)
}

// ringSamplePoints is how many synthetic keys healthz routes through the
// ring to show ownership spread (gpsctl cluster renders them).
const ringSamplePoints = 8

// maxJournalBytes caps one replicated journal batch. Specs are tiny; even a
// full-snapshot Reset batch for thousands of pending jobs fits comfortably.
const maxJournalBytes = 8 << 20

// peerJournal ingests one peer's replicated journal records — the receive
// side of the self-healing stream. The records land in this node's replica
// store; they turn into real jobs only if the origin dies and this node is
// its ring successor at that moment.
func (h *Handler) peerJournal(w http.ResponseWriter, r *http.Request) {
	var batch cluster.ReplBatch
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJournalBytes)).Decode(&batch); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad journal batch: " + err.Error()})
		return
	}
	if err := h.cluster.ApplyReplicaBatch(batch); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.svc.Metrics())
}

// clusterMetrics serves the federated metrics view: this node plus every
// peer's /v1/metrics snapshot. A single-node daemon answers with a
// one-entry list, so gpsctl top works against any deployment.
func (h *Handler) clusterMetrics(w http.ResponseWriter, r *http.Request) {
	if h.cluster == nil {
		m := h.svc.Metrics()
		writeJSON(w, http.StatusOK, client.ClusterMetricsResp{
			Nodes: []client.NodeMetrics{{Node: h.svc.NodeID(), Alive: true, Metrics: &m}},
		})
		return
	}
	writeJSON(w, http.StatusOK, h.cluster.FederatedMetrics(r.Context()))
}
