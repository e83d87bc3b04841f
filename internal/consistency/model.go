// Package consistency provides an executable operational model of the
// scoped NVIDIA-style GPU memory model that GPS relies on (Section 2.3 and
// 3.3 of the paper), together with an exhaustive-interleaving explorer for
// litmus tests.
//
// The model captures exactly the mechanisms GPS exploits:
//
//   - Weak stores update the issuing GPU's local replica immediately (read
//     your own writes through the local L2 ordering point) and enter the
//     GPU's remote write queue, where stores to the same cache line
//     coalesce. The queue is core.WriteQueue, the one behind every figure;
//     the explorer keeps only the word values of each queued line.
//   - Queue entries drain at nondeterministic times; each drained line
//     fans out as one message per remote replica over per-(src,dst) FIFO
//     channels (point-to-point ordering).
//   - Weak atomics never coalesce: each passes through the queue at once,
//     after the queue drains any older block for the same line.
//   - A sys-scoped fence flushes the queue and completes only after all of
//     the GPU's in-flight messages deliver, making prior writes globally
//     visible.
//   - Sys-scoped stores are performed at a single point of coherence: they
//     first act as a fence, then update every replica atomically.
//
// The explorer enumerates all interleavings of thread steps, queue drains
// and message deliveries for small programs, producing the complete set of
// observable load-value vectors. Litmus tests assert that outcomes the
// memory model forbids never appear and that relaxed outcomes the model
// allows do appear.
package consistency

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"gps/internal/core"
	"gps/internal/memsys"
)

// lineBytes maps toy lines onto the write queue's geometry. The queue sees
// only lines; word offsets stay in the explorer's pending values.
const lineBytes = 128

var lineGeom = memsys.MustGeometry(64<<10, lineBytes, 49, 47)

func vaddr(a Addr) memsys.VAddr { return memsys.VAddr(a.Line * lineBytes) }

// Addr is a memory address in the litmus program's toy address space. Two
// addresses share a cache line iff they have the same Line value.
type Addr struct {
	Line int // cache line
	Off  int // word within the line
}

// OpKind enumerates litmus operation kinds.
type OpKind uint8

// Litmus operation kinds.
const (
	OpStoreWeak OpKind = iota // weak store: local update + queue
	OpStoreSys                // sys-scoped store: fence + global update
	OpLoad                    // load from the local replica, records result
	OpFenceSys                // sys-scoped fence: flush + await delivery
	// OpAtomicAdd is a weak-scoped atomic RMW: it reads and updates the
	// local replica atomically, then replicates like a store — but the GPS
	// write queue never coalesces it: it passes straight through, behind
	// any older queued store to its line. Concurrent weak atomics from
	// different GPUs to one address are racy.
	OpAtomicAdd
)

// Op is one operation of a litmus thread.
type Op struct {
	Kind OpKind
	Addr Addr
	Val  int // for stores
}

// Thread is a straight-line sequence of operations on one GPU.
type Thread struct {
	GPU int
	Ops []Op
}

// Outcome is the vector of values returned by loads, in (thread, program
// order) position. Key formats as "t0:r0=1 t1:r0=0".
type Outcome string

// msg is one cache line's worth of replicated data, queued or in flight.
type msg struct {
	line int
	vals map[int]int // off -> value; shared between states, never mutated
}

// state is one configuration of the exploration.
type state struct {
	pcs      []int                 // per-thread program counter
	replicas []map[Addr]int        // per-GPU memory
	queues   []*core.WriteQueue    // per-GPU remote write queue
	pending  []map[int]map[int]int // per GPU: queued line -> off -> value
	atomic   map[int]int           // words of the atomic passing through
	chans    map[[2]int][]msg      // (src,dst) -> FIFO in flight
	loads    [][]int               // per-thread load results so far
}

// Explorer enumerates all behaviors of a litmus program.
type Explorer struct {
	numGPUs  int
	threads  []Thread
	capacity int // write queue size: above the op count, so only the explorer drains
	seen     map[string]bool
	results  map[Outcome]bool
}

// NewExplorer builds an explorer over the given threads for a system of
// numGPUs replicas (every GPU subscribes to every line: the worst case for
// ordering).
func NewExplorer(numGPUs int, threads []Thread) *Explorer {
	for _, th := range threads {
		if th.GPU < 0 || th.GPU >= numGPUs {
			panic(fmt.Sprintf("consistency: thread on GPU %d outside system of %d", th.GPU, numGPUs))
		}
	}
	capacity := 1
	for _, th := range threads {
		capacity += len(th.Ops)
	}
	return &Explorer{numGPUs: numGPUs, threads: threads, capacity: capacity}
}

// Explore runs the exhaustive search and returns every observable outcome.
func (e *Explorer) Explore() map[Outcome]bool {
	e.seen = map[string]bool{}
	e.results = map[Outcome]bool{}
	init := &state{
		pcs:      make([]int, len(e.threads)),
		replicas: make([]map[Addr]int, e.numGPUs),
		queues:   make([]*core.WriteQueue, e.numGPUs),
		pending:  make([]map[int]map[int]int, e.numGPUs),
		chans:    map[[2]int][]msg{},
		loads:    make([][]int, len(e.threads)),
	}
	for g := 0; g < e.numGPUs; g++ {
		init.replicas[g] = map[Addr]int{}
		init.pending[g] = map[int]map[int]int{}
		init.queues[g] = core.NewWriteQueue(g, lineGeom, e.capacity, e.capacity, init.drained)
	}
	e.walk(init)
	return e.results
}

func (e *Explorer) walk(s *state) {
	key := s.key()
	if e.seen[key] {
		return
	}
	e.seen[key] = true

	// Thread steps (threads blocked on a fence make progress via the drain
	// and delivery branches below).
	for ti := range e.threads {
		if s.pcs[ti] < len(e.threads[ti].Ops) {
			if ns, ok := e.stepThread(s, ti); ok {
				e.walk(ns)
			}
		}
	}
	// Queue drains (nondeterministic watermark/idle drain of the oldest entry).
	for g, q := range s.queues {
		if q.Len() > 0 {
			ns := s.clone()
			ns.queues[g].DrainOldest()
			e.walk(ns)
		}
	}
	// Message deliveries (FIFO per channel).
	for ch, fifo := range s.chans {
		if len(fifo) > 0 {
			e.walk(e.deliverOne(s, ch))
		}
	}

	if !e.anyRunnable(s) && e.systemQuiescent(s) {
		e.results[s.outcome(e.threads)] = true
	}
}

func (e *Explorer) anyRunnable(s *state) bool {
	for ti := range e.threads {
		if s.pcs[ti] < len(e.threads[ti].Ops) {
			return true
		}
	}
	return false
}

func (e *Explorer) systemQuiescent(s *state) bool {
	for _, q := range s.queues {
		if q.Len() > 0 {
			return false
		}
	}
	for _, fifo := range s.chans {
		if len(fifo) > 0 {
			return false
		}
	}
	return true
}

// stepThread attempts to execute the next op of thread ti; ok=false when the
// thread is blocked on a fence that cannot yet complete.
func (e *Explorer) stepThread(s *state, ti int) (*state, bool) {
	th := e.threads[ti]
	op := th.Ops[s.pcs[ti]]
	g := th.GPU
	switch op.Kind {
	case OpStoreWeak:
		ns := s.clone()
		ns.replicas[g][op.Addr] = op.Val // local replica updated on the store path
		ns.stage(g, op.Addr, op.Val)
		ns.pcs[ti]++
		return ns, true
	case OpLoad:
		ns := s.clone()
		v := ns.replicas[g][op.Addr]
		ns.loads[ti] = append(ns.loads[ti], v)
		ns.pcs[ti]++
		return ns, true
	case OpFenceSys:
		if !s.fenceComplete(g) {
			// Cannot complete yet: queue or channels still hold our writes.
			// Drains/deliveries will unblock us in sibling branches.
			return s, false
		}
		ns := s.clone()
		ns.pcs[ti]++
		return ns, true
	case OpStoreSys:
		if !s.fenceComplete(g) {
			return s, false
		}
		ns := s.clone()
		for dst := 0; dst < e.numGPUs; dst++ {
			ns.replicas[dst][op.Addr] = op.Val // single point of coherence
		}
		ns.pcs[ti]++
		return ns, true
	case OpAtomicAdd:
		ns := s.clone()
		nv := ns.replicas[g][op.Addr] + op.Val
		ns.replicas[g][op.Addr] = nv
		ns.atomic = map[int]int{op.Addr.Off: nv}
		ns.queues[g].PushAtomic(vaddr(op.Addr))
		ns.atomic = nil
		ns.pcs[ti]++
		return ns, true
	}
	panic("consistency: unknown op")
}

// fenceComplete reports whether GPU g has no pending writes in its queue or
// any outgoing channel.
func (s *state) fenceComplete(g int) bool {
	if s.queues[g].Len() > 0 {
		return false
	}
	for ch, fifo := range s.chans {
		if ch[0] == g && len(fifo) > 0 {
			return false
		}
	}
	return true
}

// stage records a weak store's word for its line and offers the store to
// GPU g's write queue, which decides whether it coalesces. Word maps are
// copied on write, so cloned states can share them.
func (s *state) stage(g int, a Addr, v int) {
	words := maps.Clone(s.pending[g][a.Line])
	if words == nil {
		words = map[int]int{}
	}
	words[a.Off] = v
	s.pending[g][a.Line] = words
	s.queues[g].PushStore(vaddr(a))
}

// drained is the write queues' sink: it fans a drained line, or an atomic
// passing through, out to every remote replica's channel.
func (s *state) drained(d core.Drained) {
	line := int(d.LineVA / lineBytes)
	vals := s.atomic
	if !d.Atomic {
		vals = s.pending[d.SrcGPU][line]
		delete(s.pending[d.SrcGPU], line)
	}
	for dst := range s.replicas {
		if dst != d.SrcGPU {
			ch := [2]int{d.SrcGPU, dst}
			s.chans[ch] = append(s.chans[ch], msg{line: line, vals: vals})
		}
	}
}

// deliverOne applies the head message of a channel to the destination
// replica.
func (e *Explorer) deliverOne(s *state, ch [2]int) *state {
	ns := s.clone()
	fifo := ns.chans[ch]
	m := fifo[0]
	ns.chans[ch] = fifo[1:]
	for off, v := range m.vals {
		ns.replicas[ch[1]][Addr{Line: m.line, Off: off}] = v
	}
	return ns
}

func (s *state) clone() *state {
	ns := &state{
		pcs:      append([]int{}, s.pcs...),
		replicas: make([]map[Addr]int, len(s.replicas)),
		queues:   make([]*core.WriteQueue, len(s.queues)),
		pending:  make([]map[int]map[int]int, len(s.pending)),
		chans:    map[[2]int][]msg{},
		loads:    make([][]int, len(s.loads)),
	}
	for g, r := range s.replicas {
		ns.replicas[g] = maps.Clone(r)
		ns.queues[g] = s.queues[g].Clone(ns.drained)
		ns.pending[g] = maps.Clone(s.pending[g])
	}
	for ch, fifo := range s.chans {
		ns.chans[ch] = append([]msg{}, fifo...)
	}
	for ti, l := range s.loads {
		ns.loads[ti] = append([]int{}, l...)
	}
	return ns
}

func (s *state) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pc%v|", s.pcs)
	for g, r := range s.replicas {
		keys := make([]Addr, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Line != keys[j].Line {
				return keys[i].Line < keys[j].Line
			}
			return keys[i].Off < keys[j].Off
		})
		fmt.Fprintf(&b, "r%d{", g)
		for _, k := range keys {
			fmt.Fprintf(&b, "%d.%d=%d,", k.Line, k.Off, r[k])
		}
		b.WriteString("}")
	}
	for g, q := range s.queues {
		fmt.Fprintf(&b, "q%d[", g)
		q.Resident(func(va memsys.VAddr) {
			line := int(va / lineBytes)
			b.WriteString(fmtMsg(msg{line: line, vals: s.pending[g][line]}))
		})
		b.WriteString("]")
	}
	chKeys := make([][2]int, 0, len(s.chans))
	for ch := range s.chans {
		chKeys = append(chKeys, ch)
	}
	sort.Slice(chKeys, func(i, j int) bool {
		if chKeys[i][0] != chKeys[j][0] {
			return chKeys[i][0] < chKeys[j][0]
		}
		return chKeys[i][1] < chKeys[j][1]
	})
	for _, ch := range chKeys {
		if len(s.chans[ch]) == 0 {
			continue
		}
		fmt.Fprintf(&b, "c%d-%d[", ch[0], ch[1])
		for _, m := range s.chans[ch] {
			b.WriteString(fmtMsg(m))
		}
		b.WriteString("]")
	}
	fmt.Fprintf(&b, "|ld%v", s.loads)
	return b.String()
}

func fmtMsg(m msg) string {
	offs := make([]int, 0, len(m.vals))
	for o := range m.vals {
		offs = append(offs, o)
	}
	sort.Ints(offs)
	var b strings.Builder
	fmt.Fprintf(&b, "(%d:", m.line)
	for _, o := range offs {
		fmt.Fprintf(&b, "%d=%d,", o, m.vals[o])
	}
	b.WriteString(")")
	return b.String()
}

func (s *state) outcome(threads []Thread) Outcome {
	var parts []string
	for ti := range threads {
		for ri, v := range s.loads[ti] {
			parts = append(parts, fmt.Sprintf("t%d:r%d=%d", ti, ri, v))
		}
	}
	return Outcome(strings.Join(parts, " "))
}

// Contains reports whether outcomes includes an outcome satisfying pred over
// the parsed load map ("t0:r1" -> value).
func Contains(outcomes map[Outcome]bool, pred func(loads map[string]int) bool) bool {
	for o := range outcomes {
		if pred(parseOutcome(o)) {
			return true
		}
	}
	return false
}

func parseOutcome(o Outcome) map[string]int {
	m := map[string]int{}
	if o == "" {
		return m
	}
	for _, part := range strings.Split(string(o), " ") {
		var t, r, v int
		if _, err := fmt.Sscanf(part, "t%d:r%d=%d", &t, &r, &v); err != nil {
			panic(fmt.Sprintf("consistency: bad outcome part %q", part))
		}
		m[fmt.Sprintf("t%d:r%d", t, r)] = v
	}
	return m
}
