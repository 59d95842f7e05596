package engine

import (
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/load"
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
// Storage is allocation-free in steady state: two-level membership
// bitmaps (one bit per edge/node slot plus a summary bit per 64-bit
// word, double-buffered current/pending) and a compact reused hot-node
// slice, in the spirit of the dist.SendState pool reuse. The summary
// level makes every sweep — iteration, clearing, occupancy — cost
// O(|hot| + slots/4096) instead of O(slots/64), which is what keeps a
// mostly-idle million-node round at microseconds instead of a bitmap
// scan. Word order gives the serial phases the ascending edge-slot
// iteration they need for bit-identical float accumulation, and gate
// maintenance is O(|hot|).
const (
	// gateHotNum/gateHotDen: above this hot-edge fraction the gated round
	// would touch nearly everything anyway, so the engine falls back to
	// the unconditional full scan and re-wakes the whole graph (skipping
	// per-edge bookkeeping entirely keeps the fully-hot regime within the
	// ungated round's cost).
	gateHotNum = 3
	gateHotDen = 4
	// gateProbeEvery: while in the fully-hot fallback, every this many
	// rounds one probe round runs full maintenance so a graph that
	// quiesced under the fallback is detected and put to sleep; without
	// the probe, the all-hot wake would be self-sustaining. The probe is
	// a dense full round plus linear-scan maintenance (runRoundFullProbe,
	// ~1.3× the plain full scan — no bitmap iteration), so the interval
	// trades a small amortized steady-hot overhead against the cool-down
	// latency after quiescing (≤ interval full rounds — exactly what an
	// ungated engine would spend anyway).
	gateProbeEvery = 64
)

// GateMode selects the engine's activity-gate posture (Config.Gate).
type GateMode int

const (
	// GateOn — the zero value, the default — runs balancing rounds over
	// the hot frontier only.
	GateOn GateMode = iota
	// GateOff forces every round to the ungated full scan over all nodes
	// and edges (lbserve -gate=false).
	GateOff
)

// hotSet is a two-level membership bitmap over slots: bit i of l1 marks
// slot i hot, bit w of l2 marks "word w of l1 may be non-zero". l2 is an
// over-approximation (clearing is done whole-word), so a set l2 bit over
// a zeroed l1 word costs one wasted probe, never a correctness error.
// Bits beyond the valid slot range n are never set — scans index engine
// arrays directly with decoded positions.
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

//lb:hotpath
func (h *hotSet) has(i int) bool { return h.l1[i>>6]&(1<<(uint(i)&63)) != 0 }

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

// forEach calls fn for every member in ascending slot order.
//
//lb:hotpath
func (h *hotSet) forEach(fn func(i int)) {
	for w2i, w2 := range h.l2 {
		for w2 != 0 {
			wi := w2i<<6 | bits.TrailingZeros64(w2)
			w2 &= w2 - 1
			word := h.l1[wi]
			base := wi << 6
			for word != 0 {
				fn(base | bits.TrailingZeros64(word))
				word &= word - 1
			}
		}
	}
}

// gate is the engine's activity-gate state. The cur/pending pairs are
// double-buffered membership sets: cur is the worklist of the round in
// flight, pending accumulates wakes (gate maintenance plus applied
// events) for the next round and is swapped in when the round starts.
type gate struct {
	on bool

	edgeCur, edgePending hotSet
	nodeCur, nodePending hotSet

	// curNodes is the compact hot-node worklist of the current round,
	// rebuilt from nodeCur at swap time into a reused slice.
	curNodes []int32

	// fA0 holds the pre-round f^A bit patterns of the hot edges; x0 the
	// pre-round x of the hot nodes. Gate maintenance compares bits, not
	// values: EncodeState hashes raw float bits, so "unchanged" must mean
	// bitwise-unchanged (-0.0 vs +0.0 included).
	fA0 []uint64
	x0  []float64

	// hotEdges/hotNodes is the occupancy of the last executed round (the
	// full active counts when the round was an ungated full scan).
	hotEdges, hotNodes int

	// fullStreak counts consecutive rounds at or above the fallback
	// threshold; it schedules the periodic probe round.
	fullStreak int
}

// initGate sizes the gate storage for the current slot ranges and, when
// gating is enabled, wakes the whole graph — the conservative
// reconstruction every entry path (New, NewFromState, WithGate) uses.
func (e *Engine) initGate(on bool) {
	// Bind the per-phase shard callbacks once; the round phases reuse
	// these func values so the hot path allocates no closures (enforced by
	// lblint's hotalloc gate).
	e.decideFullFn = e.decideFullNode
	e.deliverFullFn = e.deliverFullNode
	e.decideGatedFn = e.decideGatedNode
	e.deliverGatedFn = e.deliverGatedNode
	g := &e.gate
	ns, es := e.topo.NodeSlots(), e.topo.EdgeSlots()
	g.edgeCur, g.edgePending = newHotSet(es), newHotSet(es)
	g.nodeCur, g.nodePending = newHotSet(ns), newHotSet(ns)
	g.fA0 = make([]uint64, es)
	g.x0 = make([]float64, ns)
	g.on = on
	if on {
		e.gateWakeAll()
	}
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

// growGateNode extends the per-node gate storage alongside growNode.
func (e *Engine) growGateNode(slot int) {
	g := &e.gate
	g.x0 = append(g.x0, 0)
	g.nodeCur.grow(slot + 1)
	g.nodePending.grow(slot + 1)
}

// growGateEdge extends the per-edge gate storage alongside growEdge.
func (e *Engine) growGateEdge(id int) {
	g := &e.gate
	g.fA0 = append(g.fA0, 0)
	g.edgeCur.grow(id + 1)
	g.edgePending.grow(id + 1)
}

// WithGate toggles activity gating at runtime and returns the engine.
// Enabling wakes the whole graph — gate state is always reconstructed,
// never assumed — so the next rounds are bit-identical to an engine that
// had the gate on from the start. Disabling makes every round a full
// scan. lbserve exposes this as -gate.
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
// (every active node when the gate is off or the round fell back to a
// full scan).
func (e *Engine) HotNodes() int {
	if !e.gate.on {
		return e.topo.NumNodes()
	}
	return e.gate.hotNodes
}

// HotEdges returns the hot-set edge occupancy of the last executed round
// (every active edge when the gate is off or the round fell back to a
// full scan).
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

// runRound executes one synchronous balancing round, dispatching between
// the gated hot-frontier path and the ungated full scan. With the gate on,
// a mostly-hot graph (≥ gateHotNum/gateHotDen of the edge slots pending)
// falls back to the full scan plus a blanket re-wake — cheaper than
// per-edge bookkeeping that would select nearly everything — with a
// periodic probe round so a quiescing graph still gets put to sleep.
func (e *Engine) runRound() {
	g := &e.gate
	if !g.on {
		e.runRoundFull()
		return
	}
	hot := g.edgePending.count()
	slots := e.topo.EdgeSlots()
	if slots > 0 && gateHotDen*hot >= gateHotNum*slots {
		probe := g.fullStreak%gateProbeEvery == 0
		g.fullStreak++
		if probe {
			e.runRoundFullProbe()
			return
		}
		e.runRoundFull()
		tMaint := nowMetric()
		e.gateWakeAll()
		g.hotEdges = e.topo.NumEdges()
		g.hotNodes = e.topo.NumNodes()
		e.instr.stage[stageGateMaintain].ObserveDuration(sinceMetric(tMaint))
		return
	}
	g.fullStreak = 0
	e.runRoundGated(hot)
}

// runRoundFullProbe is the fallback path's periodic probe: a dense full
// round bracketed by linear-scan gate maintenance, so a graph that
// quiesced while fully hot is detected and put to sleep. It is
// equivalent to a gated round whose worklist is everything — the same
// wake rule over every edge and node — but costs only ~1.3× the plain
// full scan, because the snapshots and wake checks are straight array
// sweeps with no bitmap iteration. The blanket pending wakes left by the
// fallback rounds before it are discarded and replaced by the exact wake
// set the maintenance rule computes.
//
//lb:hotpath
func (e *Engine) runRoundFullProbe() {
	g := &e.gate

	tSnap := nowMetric()
	g.edgePending.clear()
	g.nodePending.clear()
	edgeSlots := e.topo.EdgeSlots()
	for id := 0; id < edgeSlots; id++ {
		g.fA0[id] = math.Float64bits(e.fA[id])
	}
	copy(g.x0, e.x)
	g.hotEdges = e.topo.NumEdges()
	g.hotNodes = e.topo.NumNodes()
	snapDur := sinceMetric(tSnap)

	e.runRoundFull()

	tMaint := nowMetric()
	for id := 0; id < edgeSlots; id++ {
		u, v := e.topo.EdgeEndpoints(id)
		if u < 0 {
			continue
		}
		if e.outbox[id].tasks != nil || math.Float64bits(e.fA[id]) != g.fA0[id] {
			g.edgePending.set(id)
			g.nodePending.set(u)
			g.nodePending.set(v)
		}
	}
	nodeSlots := e.topo.NodeSlots()
	for i := 0; i < nodeSlots; i++ {
		if !e.topo.Active(i) {
			continue
		}
		if math.Float64bits(e.x[i]) != math.Float64bits(g.x0[i]) {
			e.gateWakeNode(i)
		}
	}
	e.instr.stage[stageGateMaintain].ObserveDuration(snapDur + sinceMetric(tMaint))
}

// runRoundGated is the hot-frontier round: the same four phases as
// runRoundFull, in the same per-edge and per-node order, restricted to
// the hot worklists, followed by gate maintenance. Bitmap word order
// makes the serial edge phases iterate in ascending slot order, so every
// float accumulation happens in exactly the ungated sequence and the
// result is bit-identical.
//
//lb:hotpath
func (e *Engine) runRoundGated(hotEdges int) {
	g := &e.gate

	// Swap in the pending wakes and rebuild the compact node worklist.
	tSwap := nowMetric()
	g.edgeCur, g.edgePending = g.edgePending, g.edgeCur
	g.nodeCur, g.nodePending = g.nodePending, g.nodeCur
	g.edgePending.clear()
	g.nodePending.clear()
	g.curNodes = g.curNodes[:0]
	g.nodeCur.forEach(func(i int) { g.curNodes = append(g.curNodes, int32(i)) })
	g.hotEdges = hotEdges
	g.hotNodes = len(g.curNodes)
	swapDur := sinceMetric(tSwap)

	// Phase 1: continuous flows, cumulative f^A and the residual-gap
	// snapshot over the hot edges (serial, ascending slot order). The
	// pre-round f^A bits are captured for maintenance.
	tFlows := nowMetric()
	g.edgeCur.forEach(func(id int) {
		e.outbox[id].tasks = nil
		g.fA0[id] = math.Float64bits(e.fA[id])
		u, v := e.topo.EdgeEndpoints(id)
		if u < 0 {
			e.net[id] = 0
			return
		}
		yuv := e.alpha[id] / float64(e.s[u]) * e.x[u]
		yvu := e.alpha[id] / float64(e.s[v]) * e.x[v]
		n := yuv - yvu
		e.net[id] = n
		e.fA[id] += n
		e.gap[id] = e.fA[id] - float64(e.fD[id])
	})

	// Phase 2: send decisions over the hot nodes, arcs filtered to hot
	// edges (a cold edge's residual is provably sub-threshold — invariant
	// 1 — so skipping it is the decision the full scan would make).
	// BeginRound runs lazily before the node's first hot arc; cold arcs
	// never Take, so the deferred reset is unobservable. Each hot node
	// also snapshots its own x for maintenance — phase 4 only moves x at
	// endpoints of hot edges, all of which are in the worklist.
	tDecide := nowMetric()
	e.roundWmaxF = float64(e.wmax) - core.RoundingEps
	e.pool.forEach(len(g.curNodes), e.decideGatedFn)
	if d := e.roundDummies.Swap(0); d != 0 {
		e.ledTotal += d
		e.ledCreated += d
	}

	// Phase 3: deliveries over the hot nodes. Arcs are filtered to hot
	// edges because only hot outbox slots were reset this round — a cold
	// edge may hold a stale batch from the round it last sent on.
	tDeliver := nowMetric()
	e.pool.forEach(len(g.curNodes), e.deliverGatedFn)

	// Phase 4: advance the continuous replica over the hot edges, in the
	// same ascending slot order as the full scan (x updates are float
	// additions; order is part of the bit-identity contract).
	tUpdate := nowMetric()
	g.edgeCur.forEach(func(id int) {
		if n := e.net[id]; n != 0 {
			u, v := e.topo.EdgeEndpoints(id)
			e.x[u] -= n
			e.x[v] += n
		}
	})

	// Gate maintenance: decide who stays hot. An edge that sent or whose
	// f^A bits moved re-wakes itself; a node whose x bits moved re-wakes
	// its whole neighbourhood. Everything else goes cold.
	tMaint := nowMetric()
	g.edgeCur.forEach(func(id int) {
		u, v := e.topo.EdgeEndpoints(id)
		if u < 0 {
			return
		}
		if e.outbox[id].tasks != nil || math.Float64bits(e.fA[id]) != g.fA0[id] {
			g.edgePending.set(id)
			g.nodePending.set(u)
			g.nodePending.set(v)
		}
	})
	for _, s32 := range g.curNodes {
		i := int(s32)
		if !e.topo.Active(i) {
			continue
		}
		if math.Float64bits(e.x[i]) != math.Float64bits(g.x0[i]) {
			e.gateWakeNode(i)
		}
	}

	e.round++
	now := nowMetric()
	e.instr.stage[stageRoundFlows].ObserveDuration(tDecide.Sub(tFlows))
	e.instr.stage[stageRoundDecide].ObserveDuration(tDeliver.Sub(tDecide))
	e.instr.stage[stageRoundDeliver].ObserveDuration(tUpdate.Sub(tDeliver))
	e.instr.stage[stageRoundUpdate].ObserveDuration(tMaint.Sub(tUpdate))
	e.instr.stage[stageGateMaintain].ObserveDuration(swapDur + now.Sub(tMaint))
	e.instr.roundsTotal.Inc()
}

// decideGatedNode is runRoundGated's phase-2 body for one hot-worklist
// index: node i's send decisions with arcs filtered to hot edges (a cold
// edge's residual is provably sub-threshold — invariant 1 — so skipping
// it is the decision the full scan would make). BeginRound runs lazily
// before the node's first hot arc; cold arcs never Take, so the deferred
// reset is unobservable. The node also snapshots its own x for
// maintenance — phase 4 only moves x at endpoints of hot edges, all in
// the worklist. Bound once as e.decideGatedFn (initGate) so the fan-out
// allocates no closure per round.
//
//lb:hotpath
func (e *Engine) decideGatedNode(k int) {
	g := &e.gate
	i := int(g.curNodes[k])
	if !e.topo.Active(i) {
		return
	}
	g.x0[i] = e.x[i]
	st := e.st[i]
	began := false
	var dummies0 int64
	for _, a := range e.topo.Neighbors(i) {
		if !g.edgeCur.has(a.Edge) {
			continue
		}
		if !began {
			st.BeginRound()
			dummies0 = st.Dummies()
			began = true
		}
		gp := e.gap[a.Edge]
		if a.Out < 0 {
			gp = -gp
		}
		if gp < e.roundWmaxF {
			continue
		}
		var batch []load.Task
		sent := core.Forward(gp, e.wmax, st.Take, func(q load.Task) { batch = append(batch, q) })
		e.fD[a.Edge] += int64(a.Out) * sent
		e.outbox[a.Edge] = outMsg{to: a.To, tasks: batch}
	}
	if began {
		if d := st.Dummies() - dummies0; d != 0 {
			e.roundDummies.Add(d)
		}
	}
}

// deliverGatedNode is runRoundGated's phase-3 body for one hot-worklist
// index: consume the batches addressed to node i, arcs filtered to hot
// edges because only hot outbox slots were reset this round — a cold edge
// may hold a stale batch from the round it last sent on. Bound once as
// e.deliverGatedFn.
//
//lb:hotpath
func (e *Engine) deliverGatedNode(k int) {
	g := &e.gate
	i := int(g.curNodes[k])
	if !e.topo.Active(i) {
		return
	}
	for _, a := range e.topo.Neighbors(i) {
		if !g.edgeCur.has(a.Edge) {
			continue
		}
		m := &e.outbox[a.Edge]
		if m.tasks != nil && m.to == i {
			e.st[i].AddTasks(m.tasks)
		}
	}
}
