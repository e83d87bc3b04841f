package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"gps/internal/service"
)

// Work stealing, thief side. The placement decision follows the
// FineServe capacity-bin shape: each node is a bin with a capacity (its
// worker pool), a used share (busy workers + queued jobs), and an overload
// threshold; CanPlace answers whether this bin can absorb one more job, and
// Place reserves the slot before the work actually arrives so concurrent
// steal rounds cannot over-commit the bin.

// Bin is one node's capacity accounting for steal/placement decisions.
type Bin struct {
	Node     string
	Capacity int // worker pool size
	Busy     int // workers mid-job
	Queued   int // jobs waiting for a worker
}

// binFromMetrics snapshots a node's bin from its service metrics.
func binFromMetrics(node string, m service.Metrics) Bin {
	return Bin{Node: node, Capacity: m.Workers, Busy: m.BusyWorkers, Queued: m.QueueDepth}
}

// Load is the bin's occupancy relative to capacity; queued work counts, so
// a saturated queue reads as load > 1.
func (b Bin) Load() float64 {
	if b.Capacity <= 0 {
		return 1
	}
	return float64(b.Busy+b.Queued) / float64(b.Capacity)
}

// CanPlace reports whether this bin can absorb one more job without
// queueing it: a strictly idle worker must exist. A thief only pulls work
// it can start immediately — stealing into a queue would just move the
// wait to a different node.
func (b Bin) CanPlace() bool {
	return b.Busy+b.Queued < b.Capacity
}

// Place reserves one slot, committing the decision before the stolen job
// lands so repeated CanPlace calls in one sweep stay truthful.
func (b *Bin) Place() { b.Busy++ }

// Overloaded reports whether the bin is worth stealing from: every worker
// busy and at least one job waiting. Stealing from a merely-busy node with
// an empty queue would yield nothing.
func (b Bin) Overloaded() bool {
	return b.Capacity > 0 && b.Busy >= b.Capacity && b.Queued > 0
}

// StealOnce runs one steal round: if the local bin has idle capacity, pick
// the most overloaded live peer (by bin load from the last probe sweep)
// and ask it for one queued job. The victim answers by submitting the spec
// here as an ordinary job (see ServeSteal), so by the time the request
// returns the work is already in the local queue; admission, coalescing,
// and caching all apply. It reports whether a job was stolen.
func (c *Cluster) StealOnce(ctx context.Context) bool {
	if c.local == nil {
		return false
	}
	self := binFromMetrics(c.self, c.local.Metrics())
	if !self.CanPlace() {
		return false
	}

	// Victim selection: the live peer with the heaviest bin, overloaded.
	var victim *Peer
	var victimBin Bin
	for _, p := range c.Peers() {
		if !p.Alive() {
			continue
		}
		h := p.lastHealth()
		b := Bin{Node: p.ID, Capacity: h.Workers, Busy: h.BusyWorkers, Queued: h.QueueDepth}
		if !b.Overloaded() {
			continue
		}
		if victim == nil || b.Load() > victimBin.Load() {
			victim, victimBin = p, b
		}
	}
	if victim == nil {
		return false
	}
	self.Place()

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	start := time.Now()
	code, body, err := victim.client.Do(sctx, http.MethodPost, "/v1/peer/steal?thief="+c.self, nil, nil)
	cancel()
	if err != nil {
		c.stealErrs.Add(1)
		victim.alive.Store(false)
		return false
	}
	if code != http.StatusOK {
		return false // 204: victim had nothing to give by the time we asked
	}
	var stolen service.StolenJob
	if err := json.Unmarshal(body, &stolen); err != nil {
		c.stealErrs.Add(1)
		c.log.Warn("steal response undecodable", "victim", victim.ID, "err", err)
		return false
	}
	c.hopSteal.Observe(time.Since(start).Seconds())
	c.stealsThief.Add(1)
	c.log.Info("stole job", "victim", victim.ID, "job_id", stolen.ID)
	return true
}

// ServeSteal is the victim side of a steal — the handler of POST
// /v1/peer/steal. It checks one queued job out of the local service and
// submits its spec on the thief as an ordinary job (loop-guarded, so the
// thief keeps it) under the victim job's trace position. A refused submit
// puts the job straight back; an accepted one is watched by hash on the
// thief until its outcome lands here. A client cancel on the thief cancels
// the job here too; a thief that answers it no longer holds the job, or
// stops answering, gets the job reclaimed to run locally. It reports the
// job handed out, if any.
func (c *Cluster) ServeSteal(ctx context.Context, thief string) (service.StolenJob, bool) {
	p, ok := c.Peer(thief)
	if !ok || c.local == nil {
		return service.StolenJob{}, false
	}
	stolen, ok := c.local.Steal(thief)
	if !ok {
		return service.StolenJob{}, false
	}
	body, err := json.Marshal(stolen.Spec)
	if err != nil {
		c.local.ReclaimStolen(stolen.ID) //nolint:errcheck // the job was just checked out
		return service.StolenJob{}, false
	}
	code, _, err := p.client.Do(ctx, http.MethodPost, "/v1/jobs", body, traceHeader(stolen.Trace.Traceparent()))
	if err != nil || code/100 != 2 {
		c.stealErrs.Add(1)
		c.log.Warn("steal handoff refused", "thief", thief, "job_id", stolen.ID, "code", code, "err", err)
		c.local.ReclaimStolen(stolen.ID) //nolint:errcheck // the job was just checked out
		return service.StolenJob{}, false
	}
	go func() {
		switch state, rep, errMsg := c.awaitPeer(context.Background(), p, stolen.ID, true); state {
		case "":
			c.log.Warn("stolen job reclaimed from thief", "thief", thief, "job_id", stolen.ID)
			c.local.ReclaimStolen(stolen.ID) //nolint:errcheck // dropped if canceled meanwhile
		case service.StateCanceled:
			c.log.Info("stolen job canceled on thief", "thief", thief, "job_id", stolen.ID)
			c.local.Cancel(stolen.ID) //nolint:errcheck // the job was checked out here
		default:
			c.local.CompleteStolen(stolen.ID, rep, errMsg) //nolint:errcheck // dropped if canceled meanwhile
		}
	}()
	return stolen, true
}
