package engine

import (
	"math"
	"math/bits"
)

// Activity gating: run Algorithm 1 only over the hot frontier.
//
// The paper's additivity property (Definition 3) makes imbalance
// propagation strictly local: the continuous flow over an edge depends
// only on the endpoints' continuous loads x, the edge's diffusion
// parameter α and its accumulators f^A/f^D. The gate exploits that by
// keeping a hot set of edges and letting the rest of the graph sleep.
//
// Hot-set invariants (what makes sleeping provably safe):
//
//  1. An edge may go cold only after a round that PROCESSED it observed a
//     bitwise fixed point: no task crossed the edge (no send), the f^A
//     accumulator's bits did not change (the round's continuous flow was
//     zero or fully absorbed), and both endpoints' x bits did not change.
//     In that state the ungated engine would recompute the identical
//     flow, the identical (sub-threshold) residual gap and the identical
//     absorbed x update every following round — a bitwise no-op — until
//     one of the edge's inputs changes.
//  2. Every input change wakes the affected neighbourhood before the next
//     round runs: a send or f^A change re-wakes the edge itself; an x
//     change (balancing round or arrival/completion/leave redistribution)
//     wakes every edge incident to the node; a topology change wakes
//     every edge whose α was recomputed (refreshAlphas). wmax only ever
//     grows, and a growing send threshold keeps sleeping edges validly
//     asleep.
//  3. A node is hot iff it is an endpoint of a hot edge (plus the node an
//     event just touched), so the round's per-node phases cover the hot
//     frontier and its one-hop boundary: both endpoints of every hot
//     edge run their send/deliver phases even when only one side caused
//     the wake.
//  4. Over-waking is always semantics-preserving — a woken edge at a
//     fixed point is processed once, found cold, and put back to sleep —
//     so every reconstruction path (NewFromState, Restore, WithGate(true))
//     simply wakes everything. Gate state is never persisted and never
//     trusted from disk; EncodeState deliberately excludes it, which is
//     what makes a gated engine hash-identical to an ungated one.
//
// One round serves every posture. gateBegin picks the round's worklist —
// every slot as a dense range, or the hot set drained from the pending
// bitmaps — and whether the round maintains the gate; runRound's four
// phases and its node bodies are the same code either way:
//
//   - GateOff: every slot, no maintenance.
//   - Gate on, at least gateHotNum/gateHotDen of the edge slots pending:
//     every slot followed by a blanket re-wake (the fallback), except that
//     every gateProbeEvery-th fallback round maintains instead (the probe).
//   - Gate on otherwise: the hot worklist, maintained.
//
// Maintenance decides who stays hot and is folded into the serial edge
// phases: phase 1 re-wakes an edge whose f^A bits moved, phase 4 one that
// carried a batch, and gateEnd re-wakes the neighbourhood of every worklist
// node whose x bits moved. Everything else goes cold.
//
// The node bodies visit every arc of a worklist node, cold arcs included,
// without consulting the hot set:
//
//   - Deciding on a cold arc sends nothing, exactly as the ungated round
//     would: its stored gap is bitwise what phase 1 would recompute
//     (invariant 1), and the round that put it to sleep sent nothing on it,
//     so the gap is below wmax−ε in both directions — core.Forward sends at
//     least one task whenever the residual reaches the threshold. wmax only
//     grows, and clearEdge zeroes the gap of a fresh or freed slot.
//   - Delivering reads only batches of this round: a batch is written only
//     on a worklist edge, and phase 4 empties its outbox slot right after
//     maintenance reads the send, so every slot is empty when a round
//     starts and a cold arc never holds a stale batch.
//
// Storage is allocation-free in steady state: two-level pending bitmaps
// (one bit per edge/node slot plus a summary bit per 64-bit word) and
// reused worklist slices, in the spirit of the dist.SendState pool reuse.
// The summary level makes every sweep — draining, clearing, occupancy —
// cost O(|hot| + slots/4096) instead of O(slots/64), which is what keeps a
// mostly-idle million-node round at microseconds instead of a bitmap scan.
// Draining in word order gives the serial phases the ascending edge-slot
// order they need for bit-identical float accumulation.
const (
	// gateHotNum/gateHotDen: above this hot-edge fraction a hot worklist
	// would cover nearly everything anyway, so the round runs over every
	// slot as a dense range and re-wakes the whole graph, skipping the
	// per-edge bookkeeping that would select nearly everything.
	gateHotNum = 3
	gateHotDen = 4
	// gateProbeEvery: while in the fully-hot fallback, every this many
	// rounds one probe round maintains the gate exactly, so a graph that
	// quiesced under the fallback is detected and put to sleep; without
	// the probe, the blanket re-wake would be self-sustaining. The interval
	// trades a small amortized steady-hot overhead against the cool-down
	// latency after quiescing (≤ interval dense rounds — exactly what an
	// ungated engine would spend anyway).
	gateProbeEvery = 64
)

// GateMode selects the engine's activity-gate posture (Config.Gate).
type GateMode int

const (
	// GateOn — the zero value, the default — runs balancing rounds over
	// the hot frontier only.
	GateOn GateMode = iota
	// GateOff forces every round over all nodes and edges (lbserve
	// -gate=false).
	GateOff
)

// hotSet is a two-level membership bitmap over slots: bit i of l1 marks
// slot i hot, bit w of l2 marks "word w of l1 may be non-zero". l2 is an
// over-approximation (clearing is done whole-word), so a set l2 bit over
// a zeroed l1 word costs one wasted probe, never a correctness error.
// Bits beyond the valid slot range n are never set — drained positions
// index engine arrays directly.
type hotSet struct {
	l1, l2 []uint64
	n      int
}

func newHotSet(n int) hotSet {
	w := (n + 63) / 64
	return hotSet{l1: make([]uint64, w), l2: make([]uint64, (w+63)/64), n: n}
}

//lb:hotpath
func (h *hotSet) set(i int) {
	w := i >> 6
	h.l1[w] |= 1 << (uint(i) & 63)
	h.l2[w>>6] |= 1 << (uint(w) & 63)
}

// grow extends the valid slot range to n (append-only, zero-filled).
func (h *hotSet) grow(n int) {
	if n > h.n {
		h.n = n
	}
	for len(h.l1) < (h.n+63)/64 {
		h.l1 = append(h.l1, 0)
	}
	for len(h.l2) < (len(h.l1)+63)/64 {
		h.l2 = append(h.l2, 0)
	}
}

// clear empties the set in O(|hot| + len(l2)) words.
//
//lb:hotpath
func (h *hotSet) clear() {
	for w2i, w2 := range h.l2 {
		for w2 != 0 {
			wi := w2i<<6 | bits.TrailingZeros64(w2)
			w2 &= w2 - 1
			h.l1[wi] = 0
		}
		h.l2[w2i] = 0
	}
}

// count returns the number of members in O(|hot| + len(l2)) words.
//
//lb:hotpath
func (h *hotSet) count() int {
	n := 0
	for w2i, w2 := range h.l2 {
		for w2 != 0 {
			wi := w2i<<6 | bits.TrailingZeros64(w2)
			w2 &= w2 - 1
			n += bits.OnesCount64(h.l1[wi])
		}
	}
	return n
}

// fill sets every one of the n valid slots, masking the tail words.
//
//lb:hotpath
func (h *hotSet) fill() {
	for i := range h.l1 {
		h.l1[i] = ^uint64(0)
	}
	if rem := h.n & 63; rem != 0 && len(h.l1) > 0 {
		h.l1[len(h.l1)-1] = 1<<rem - 1
	}
	for i := range h.l2 {
		h.l2[i] = ^uint64(0)
	}
	if rem := len(h.l1) & 63; rem != 0 && len(h.l2) > 0 {
		h.l2[len(h.l2)-1] = 1<<rem - 1
	}
}

// drain appends every member to dst in ascending slot order and empties
// the set, in O(|hot| + len(l2)) words.
//
//lb:hotpath
func (h *hotSet) drain(dst []int32) []int32 {
	for w2i, w2 := range h.l2 {
		for w2 != 0 {
			wi := w2i<<6 | bits.TrailingZeros64(w2)
			w2 &= w2 - 1
			word := h.l1[wi]
			h.l1[wi] = 0
			base := wi << 6
			for word != 0 {
				dst = append(dst, int32(base|bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		h.l2[w2i] = 0
	}
	return dst
}

// worklist is the slot list a round runs over: the listed slots, in
// ascending order, or every slot in [0, n) when list is nil.
type worklist struct {
	list []int32
	n    int
}

// at returns the k-th slot of the worklist.
//
//lb:hotpath
func (w *worklist) at(k int) int {
	if w.list == nil {
		return k
	}
	return int(w.list[k])
}

// gate is the engine's activity-gate state. The pending sets accumulate
// wakes (gate maintenance plus applied events) for the next round;
// gateBegin turns them into the worklists of the round in flight.
type gate struct {
	on bool

	edgePending, nodePending hotSet

	// edges and nodes are the worklists of the round in flight; maintain
	// says whether the round maintains the gate exactly. edgeBuf and
	// nodeBuf back the hot worklists, reused across rounds.
	edges, nodes     worklist
	maintain         bool
	edgeBuf, nodeBuf []int32

	// x0 holds the pre-round x of a maintained round's worklist nodes
	// (decideNode writes it, gateEnd reads it). Maintenance compares
	// bits, not values: EncodeState hashes raw float bits, so "unchanged"
	// must mean bitwise-unchanged (-0.0 vs +0.0 included).
	x0 []float64

	// hotEdges/hotNodes is the occupancy of the last executed round (the
	// full active counts when the round ran over every slot).
	hotEdges, hotNodes int

	// fullStreak counts consecutive rounds at or above the fallback
	// threshold; it schedules the periodic probe round.
	fullStreak int
}

// gateWakeAll marks every node and edge slot pending-hot (freed slots
// included — the round skips them in O(1) and cools them right back).
func (e *Engine) gateWakeAll() {
	e.gate.edgePending.fill()
	e.gate.nodePending.fill()
}

// gateWakeNode wakes node i's whole neighbourhood: the node itself, every
// incident edge, and each edge's far endpoint (hot edges need both
// endpoints in the node worklist — invariant 3).
//
//lb:hotpath
func (e *Engine) gateWakeNode(i int) {
	g := &e.gate
	if !g.on {
		return
	}
	for _, a := range e.topo.Neighbors(i) {
		g.edgePending.set(a.Edge)
		g.nodePending.set(a.To)
	}
	g.nodePending.set(i)
}

// gateWakeEdge wakes one edge and both its endpoints.
//
//lb:hotpath
func (e *Engine) gateWakeEdge(id, u, v int) {
	g := &e.gate
	if !g.on {
		return
	}
	g.edgePending.set(id)
	g.nodePending.set(u)
	g.nodePending.set(v)
}

// WithGate toggles activity gating at runtime and returns the engine.
// Enabling wakes the whole graph — gate state is always reconstructed,
// never assumed — so the next rounds are bit-identical to an engine that
// had the gate on from the start. Disabling makes every round run over
// every slot. lbserve exposes this as -gate.
func (e *Engine) WithGate(on bool) *Engine {
	g := &e.gate
	if on && !g.on {
		g.on = true
		g.fullStreak = 0
		e.gateWakeAll()
	} else if !on {
		g.on = false
	}
	return e
}

// GateEnabled reports whether activity gating is on.
func (e *Engine) GateEnabled() bool { return e.gate.on }

// HotNodes returns the hot-set node occupancy of the last executed round
// (every active node when the gate is off or the round ran over every
// slot).
func (e *Engine) HotNodes() int {
	if !e.gate.on {
		return e.topo.NumNodes()
	}
	return e.gate.hotNodes
}

// HotEdges returns the hot-set edge occupancy of the last executed round
// (every active edge when the gate is off or the round ran over every
// slot).
func (e *Engine) HotEdges() int {
	if !e.gate.on {
		return e.topo.NumEdges()
	}
	return e.gate.hotEdges
}

// PendingHotEdges returns the number of edges already woken for the next
// round. Zero with an empty event queue means the next Step is a no-op
// round — lbserve's auto-step loop uses this to idle without scanning.
func (e *Engine) PendingHotEdges() int {
	if !e.gate.on {
		return e.topo.NumEdges()
	}
	return e.gate.edgePending.count()
}

// gateBegin picks the worklists of the round about to run and whether it
// maintains the gate (see the policy above). A maintained round starts
// from empty pending sets: maintenance and the events of the next Step
// refill them.
//
//lb:hotpath
func (e *Engine) gateBegin() {
	g := &e.gate
	edgeSlots := e.topo.EdgeSlots()
	g.edges = worklist{n: edgeSlots}
	g.nodes = worklist{n: e.topo.NodeSlots()}
	g.hotEdges, g.hotNodes = e.topo.NumEdges(), e.topo.NumNodes()
	g.maintain = false
	if !g.on {
		return
	}
	if hot := g.edgePending.count(); edgeSlots > 0 && gateHotDen*hot >= gateHotNum*edgeSlots {
		g.maintain = g.fullStreak%gateProbeEvery == 0
		g.fullStreak++
		if g.maintain {
			g.edgePending.clear()
			g.nodePending.clear()
		}
		return
	}
	g.fullStreak = 0
	g.maintain = true
	g.edgeBuf = g.edgePending.drain(g.edgeBuf[:0])
	g.nodeBuf = g.nodePending.drain(g.nodeBuf[:0])
	g.edges = worklist{list: g.edgeBuf, n: len(g.edgeBuf)}
	g.nodes = worklist{list: g.nodeBuf, n: len(g.nodeBuf)}
	g.hotEdges, g.hotNodes = len(g.edgeBuf), len(g.nodeBuf)
}

// gateEnd finishes the round's gate work: a maintained round re-wakes the
// neighbourhood of every worklist node whose x bits moved (the edge-level
// wakes happened in phases 1 and 4); a fallback round re-wakes everything.
//
//lb:hotpath
func (e *Engine) gateEnd() {
	g := &e.gate
	if !g.maintain {
		if g.on {
			e.gateWakeAll()
		}
		return
	}
	for k := 0; k < g.nodes.n; k++ {
		i := g.nodes.at(k)
		if e.topo.Active(i) && math.Float64bits(e.x[i]) != math.Float64bits(g.x0[i]) {
			e.gateWakeNode(i)
		}
	}
}
