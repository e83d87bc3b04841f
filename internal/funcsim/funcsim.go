// Package funcsim is the functional (value-accurate) companion to the
// timing simulator: a multi-GPU memory with real data in it, implementing
// GPS semantics operationally — per-subscriber replicas, local loads,
// stores coalesced per cache line in each GPU's core.WriteQueue (the same
// queue the GPS timing model drains), in-order delivery to every
// subscriber, and full drains at barriers (the implicit sys-scoped release
// at the end of every grid).
//
// Its purpose is end-to-end validation of the paper's correctness argument
// (Sections 3.2-3.3): a data-parallel program that synchronizes its
// cross-GPU sharing with barriers computes bit-identical results under GPS
// replication as it does on a single coherent memory — while between
// barriers, remote replicas are legitimately stale (the relaxed behavior
// GPS exploits for coalescing). The tests run a real Jacobi solver both
// ways and compare every word.
package funcsim

import (
	"fmt"
	"math/bits"
	"sort"

	"gps/internal/core"
	"gps/internal/gpuconf"
	"gps/internal/memsys"
)

// Word is the access granularity: 8-byte aligned float64 values.
const wordBytes = 8

// Machine is an n-GPU memory with GPS publish-subscribe semantics. Each GPU
// publishes through a core.WriteQueue, the queue behind every figure; the
// machine keeps only the word values of each queued line.
type Machine struct {
	n    int
	geom memsys.Geometry

	replicas []map[uint64]float64            // per GPU: word address -> value
	queues   []*core.WriteQueue              // per GPU
	pending  []map[uint64]map[uint64]float64 // per GPU: queued line -> word address -> value
	subs     map[uint64]uint64               // page -> subscriber bitmask
	defSubs  uint64                          // default: all GPUs

	// Delivered[src][dst] counts lines src published to dst's replica.
	Delivered [][]uint64
	// Forwarded counts non-subscriber loads that found their line in the
	// loader's own write queue (Section 5.1).
	Forwarded uint64
}

// NewMachine builds a machine with all GPUs subscribed to every page.
func NewMachine(n int, pageBytes, lineBytes uint64) (*Machine, error) {
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("funcsim: %d GPUs out of range", n)
	}
	geom, err := memsys.NewGeometry(pageBytes, lineBytes, 64, 64)
	if err != nil {
		return nil, fmt.Errorf("funcsim: %w", err)
	}
	m := &Machine{
		n:       n,
		geom:    geom,
		subs:    map[uint64]uint64{},
		defSubs: allMask(n),
	}
	// The paper's queue capacity (Table 1), draining at capacity-1 like the
	// GPS timing model's queue.
	entries := gpuconf.DefaultGPS().WriteQueueEntries
	for g := 0; g < n; g++ {
		m.replicas = append(m.replicas, map[uint64]float64{})
		m.pending = append(m.pending, map[uint64]map[uint64]float64{})
		m.queues = append(m.queues, core.NewWriteQueue(g, geom, entries, entries-1, m.deliver))
		m.Delivered = append(m.Delivered, make([]uint64, n))
	}
	return m, nil
}

func allMask(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return 1<<n - 1
}

// SetSubscribers pins the subscriber set for every page overlapping
// [base, base+size). Subscriptions change at barriers (Section 3.2), so no
// queue may hold lines; each newly added subscriber's replica is populated
// from an existing subscriber.
func (m *Machine) SetSubscribers(base, size uint64, gpus ...int) error {
	if len(gpus) == 0 {
		return fmt.Errorf("funcsim: empty subscriber set")
	}
	var mask uint64
	for _, g := range gpus {
		if g < 0 || g >= m.n {
			return fmt.Errorf("funcsim: GPU %d out of range", g)
		}
		mask |= 1 << g
	}
	for g, q := range m.queues {
		if q.Len() > 0 {
			return fmt.Errorf("funcsim: GPU %d still queues %d lines; subscriptions change at barriers", g, q.Len())
		}
	}
	pb := m.geom.PageBytes
	for p := base / pb; p <= (base+size-1)/pb; p++ {
		old := m.subscribers(p * pb)
		m.subs[p] = mask
		added := mask &^ old
		if added == 0 {
			continue
		}
		host := m.replicas[bits.TrailingZeros64(old)]
		for a := p * pb; a < (p+1)*pb; a += wordBytes {
			v, ok := host[a]
			for g := range m.replicas {
				switch {
				case added&(1<<g) == 0:
				case ok:
					m.replicas[g][a] = v
				default:
					delete(m.replicas[g], a)
				}
			}
		}
	}
	return nil
}

func (m *Machine) subscribers(addr uint64) uint64 {
	if mask, ok := m.subs[addr/m.geom.PageBytes]; ok {
		return mask
	}
	return m.defSubs
}

func (m *Machine) subscribed(gpu int, addr uint64) bool {
	return m.subscribers(addr)&(1<<gpu) != 0
}

func checkAligned(addr uint64) {
	if addr%wordBytes != 0 {
		panic(fmt.Sprintf("funcsim: unaligned word address %#x", addr))
	}
}

// Queue returns gpu's remote write queue, for drains at chosen moments
// (DrainOldest) and sys-scoped fences (Flush).
func (m *Machine) Queue(gpu int) *core.WriteQueue { return m.queues[gpu] }

// Store performs a weak store by gpu: the local replica (if subscribed)
// updates immediately — a GPU always reads its own writes — and the line
// enters the write queue for eventual replication to remote subscribers.
func (m *Machine) Store(gpu int, addr uint64, v float64) {
	checkAligned(addr)
	if m.subscribed(gpu, addr) {
		m.replicas[gpu][addr] = v
	}
	line := uint64(m.geom.LineBase(memsys.VAddr(addr)))
	words := m.pending[gpu][line]
	if words == nil {
		words = map[uint64]float64{}
		m.pending[gpu][line] = words
	}
	words[addr] = v
	m.queues[gpu].PushStore(memsys.VAddr(addr))
}

// Load performs a load by gpu: from the local replica when subscribed,
// otherwise from the block pending in gpu's own write queue when it holds
// the word (Section 5.1), otherwise remotely from the lowest-numbered
// subscriber (Section 3.2: a non-subscriber load does not fault, it issues
// remotely).
func (m *Machine) Load(gpu int, addr uint64) float64 {
	checkAligned(addr)
	if m.subscribed(gpu, addr) {
		return m.replicas[gpu][addr]
	}
	if m.queues[gpu].Contains(memsys.VAddr(addr)) {
		m.Forwarded++
		if v, ok := m.pending[gpu][uint64(m.geom.LineBase(memsys.VAddr(addr)))][addr]; ok {
			return v
		}
	}
	return m.replicas[bits.TrailingZeros64(m.subscribers(addr))][addr]
}

// Barrier is the global synchronization ending a phase: every GPU's queue
// flushes and delivers (the implicit sys-scoped release at the end of every
// grid plus the inter-GPU barrier).
func (m *Machine) Barrier() {
	for _, q := range m.queues {
		q.Flush()
	}
}

// deliver is every queue's drain sink: it moves the drained line's words to
// each remote subscriber's replica.
func (m *Machine) deliver(d core.Drained) {
	src, line := d.SrcGPU, uint64(d.LineVA)
	words := m.pending[src][line]
	delete(m.pending[src], line)
	mask := m.subscribers(line)
	for dst := 0; dst < m.n; dst++ {
		if dst == src || mask&(1<<dst) == 0 {
			continue
		}
		for a, v := range words {
			m.replicas[dst][a] = v
		}
		m.Delivered[src][dst]++
	}
}

// ReplicasConsistent reports whether, for every address any GPU holds, all
// subscribers of that address agree on it: the same value, or all lacking
// it. Only meaningful at barriers (between them, staleness is allowed by the
// memory model).
func (m *Machine) ReplicasConsistent() error {
	addrs := map[uint64]bool{}
	for g := 0; g < m.n; g++ {
		for a := range m.replicas[g] {
			addrs[a] = true
		}
	}
	sorted := make([]uint64, 0, len(addrs))
	for a := range addrs {
		sorted = append(sorted, a)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, a := range sorted {
		mask := m.subscribers(a)
		ref := bits.TrailingZeros64(mask)
		refV, refOK := m.replicas[ref][a]
		for g := ref + 1; g < m.n; g++ {
			if mask&(1<<g) == 0 {
				continue
			}
			if v, ok := m.replicas[g][a]; ok != refOK || v != refV {
				return fmt.Errorf("funcsim: replicas diverge at %#x: GPU %d has %v (held %t), GPU %d has %v (held %t)",
					a, ref, refV, refOK, g, v, ok)
			}
		}
	}
	return nil
}
