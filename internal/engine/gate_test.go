package engine

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/wal"
	"repro/internal/workload"
)

// gatedPair builds two engines on the same torus with the same seeded
// load, one gated and one not. It uses New directly — not mustEngine — so
// the ENGINE_GATE matrix override cannot collapse the pair onto one side
// and make the comparison vacuous.
func gatedPair(t *testing.T, rows, cols int, seed int64) (gated, full *Engine) {
	t.Helper()
	build := func(mode GateMode) *Engine {
		g, err := graph.Torus(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		speeds := make(load.Speeds, g.N())
		for i := range speeds {
			speeds[i] = 1 + int64(i%3)
		}
		rng := rand.New(rand.NewSource(seed))
		tasks, err := load.NewTokens(workload.UniformRandom(g.N(), int64(40*g.N()), rng))
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Graph: g, Speeds: speeds, Tasks: tasks, Workers: 4, Gate: mode})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	return build(GateOn), build(GateOff)
}

// TestGateBitIdentityUnderChurn is the gate's core property: on random
// churn streams (arrivals, completions, joins/leaves, edge-change storms)
// the gated engine is bit-identical to the ungated one round by round —
// same state hash, same ledger totals, same dummy draws — and the final
// encodings are byte-equal.
func TestGateBitIdentityUnderChurn(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		gated, full := gatedPair(t, 8, 8, seed)
		if !gated.GateEnabled() || full.GateEnabled() {
			t.Fatalf("pair misconfigured: gate %v/%v", gated.GateEnabled(), full.GateEnabled())
		}

		nodes := make([]int, 64)
		for i := range nodes {
			nodes[i] = i
		}
		scn, err := workload.NewScenario("churn-storm")
		if err != nil {
			t.Fatal(err)
		}
		if err := scn.Init(workload.ScenarioParams{
			Nodes: nodes, Seed: seed, Tokens: 3, Wmax: 4, ChurnEvery: 5,
		}); err != nil {
			t.Fatal(err)
		}

		for r := 0; r < 30; r++ {
			scheduleScenario(t, scn, 3, gated, full)
			errG, errF := gated.Step(), full.Step()
			if (errG == nil) != (errF == nil) {
				t.Fatalf("seed %d round %d: gating changed execution: %v vs %v", seed, r, errG, errF)
			}
			if gated.StateHash() != full.StateHash() {
				t.Fatalf("seed %d round %d: gated state diverged from ungated", seed, r)
			}
			if gated.DummiesCreated() != full.DummiesCreated() {
				t.Fatalf("seed %d round %d: dummy draws diverged: %d vs %d",
					seed, r, gated.DummiesCreated(), full.DummiesCreated())
			}
			if gated.RealTotal() != full.RealTotal() {
				t.Fatalf("seed %d round %d: ledger diverged: %d vs %d",
					seed, r, gated.RealTotal(), full.RealTotal())
			}
		}
		if !bytes.Equal(gated.EncodeState(), full.EncodeState()) {
			t.Fatalf("seed %d: final encodings differ", seed)
		}
		if err := gated.AuditFull(); err != nil {
			t.Fatalf("seed %d: gated engine fails conservation: %v", seed, err)
		}
	}
}

// TestGateToggleMidRun: flipping the gate on and off mid-run must never
// change behaviour — WithGate(true) reconstructs the hot set by waking
// everything, so every toggle point is a valid resume.
func TestGateToggleMidRun(t *testing.T) {
	toggled, full := gatedPair(t, 6, 6, 7)
	scn := scenarioFor(t, 36)
	for r := 0; r < 24; r++ {
		if r%5 == 0 {
			toggled.WithGate(r%2 == 0)
		}
		scheduleScenario(t, scn, 2, toggled, full)
		if err := toggled.Step(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if err := full.Step(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if toggled.StateHash() != full.StateHash() {
			t.Fatalf("round %d: toggling the gate changed the state", r)
		}
	}
}

// quiescedEngine builds an exactly-uniform torus engine (equal speeds,
// identical loads) and steps it until the hot set drains — the first round
// processes the construction-time blanket wake, finds the bitwise fixed
// point everywhere, and puts the whole graph to sleep.
func quiescedEngine(t *testing.T, rows, cols int) *Engine {
	t.Helper()
	g, err := graph.Torus(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]int64, g.N())
	for i := range vec {
		vec[i] = 8
	}
	tasks, err := load.NewTokens(vec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), Tasks: tasks, Workers: 2, Gate: GateOn})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	for r := 0; r < 4; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.HotEdges() == 0 {
			return e
		}
	}
	t.Fatalf("uniform engine did not quiesce: %d hot edges after 4 rounds", e.HotEdges())
	return nil
}

// TestGateWakeLocality pins the wake rule: a single event into a fully
// quiesced graph marks exactly the touched node's one-hop neighbourhood
// hot, the imbalance ball grows by at most one hop per round, and a
// load-neutral perturbation cools back to zero.
func TestGateWakeLocality(t *testing.T) {
	t.Run("paired-arrival-completion", func(t *testing.T) {
		e := quiescedEngine(t, 8, 8)
		const node = 27
		deg := len(e.Topology().Neighbors(node))
		if err := e.Schedule(Arrival(e.Round(), node, 4)); err != nil {
			t.Fatal(err)
		}
		if err := e.Schedule(Completion(e.Round(), node, 4)); err != nil {
			t.Fatal(err)
		}
		// The wake round processes exactly the touched neighbourhood.
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.HotEdges() != deg || e.HotNodes() != deg+1 {
			t.Fatalf("wake round hot set = %d edges / %d nodes, want %d / %d",
				e.HotEdges(), e.HotNodes(), deg, deg+1)
		}
		// The perturbation was load-neutral (x returns to its exact bits),
		// so the neighbourhood must go right back to sleep.
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.HotEdges() != 0 || e.HotNodes() != 0 {
			t.Fatalf("load-neutral perturbation left %d edges / %d nodes hot",
				e.HotEdges(), e.HotNodes())
		}
	})

	t.Run("single-arrival-ball", func(t *testing.T) {
		e := quiescedEngine(t, 8, 8)
		const node = 27
		if err := e.Schedule(Arrival(e.Round(), node, 3)); err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		deg := len(e.Topology().Neighbors(node))
		if e.HotEdges() != deg || e.HotNodes() != deg+1 {
			t.Fatalf("wake round hot set = %d edges / %d nodes, want only the 1-hop neighbourhood %d / %d",
				e.HotEdges(), e.HotNodes(), deg, deg+1)
		}
		// Imbalance propagates at most one hop per round: after k further
		// rounds the hot set fits inside the radius-(k+1) ball around the
		// arrival. (It stays non-empty: 3 extra tokens keep x off its old
		// fixed point.)
		for k := 1; k <= 3; k++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			nodes, edges := ballSize(e, node, k+1)
			if e.HotNodes() > nodes || e.HotEdges() > edges {
				t.Fatalf("round +%d: hot set %d nodes / %d edges exceeds radius-%d ball %d / %d",
					k, e.HotNodes(), e.HotEdges(), k+1, nodes, edges)
			}
			if e.HotEdges() == 0 {
				t.Fatalf("round +%d: imbalanced region went to sleep", k)
			}
		}
	})
}

// TestGateProbeSleepsQuiescedFallback pins the fallback → probe → sleep
// transition. State-neutral arrival/completion pairs at every node keep a
// uniform torus fully hot for more than gateProbeEvery rounds, so it runs
// the blanket re-wake fallback across at least one probe. Once the events
// stop, the state sits at its bitwise fixed point: the next probe must
// empty the pending set within gateProbeEvery rounds, and the round after
// it must run over an empty worklist. The gated engine stays
// hash-identical to a GateOff twin throughout.
func TestGateProbeSleepsQuiescedFallback(t *testing.T) {
	build := func(mode GateMode) *Engine {
		g, err := graph.Torus(6, 6)
		if err != nil {
			t.Fatal(err)
		}
		vec := make([]int64, g.N())
		for i := range vec {
			vec[i] = 8
		}
		tasks, err := load.NewTokens(vec)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Graph: g, Speeds: load.UniformSpeeds(g.N()), Tasks: tasks, Workers: 2, Gate: mode})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	gated, full := build(GateOn), build(GateOff)
	step := func(phase string, r int) {
		t.Helper()
		if err := gated.Step(); err != nil {
			t.Fatalf("%s round %d: %v", phase, r, err)
		}
		if err := full.Step(); err != nil {
			t.Fatalf("%s round %d: %v", phase, r, err)
		}
		if gated.StateHash() != full.StateHash() {
			t.Fatalf("%s round %d: gated state diverged from ungated", phase, r)
		}
	}

	for r := 0; r < gateProbeEvery+10; r++ {
		for _, e := range []*Engine{gated, full} {
			for i := 0; i < e.NumNodes(); i++ {
				if err := e.Schedule(Arrival(e.Round(), i, 4)); err != nil {
					t.Fatal(err)
				}
				if err := e.Schedule(Completion(e.Round(), i, 4)); err != nil {
					t.Fatal(err)
				}
			}
		}
		step("hot", r)
		if gated.HotEdges() != gated.NumEdges() {
			t.Fatalf("hot round %d: %d of %d edges hot, want the fully-hot fallback",
				r, gated.HotEdges(), gated.NumEdges())
		}
	}

	slept := 0
	for r := 1; r <= gateProbeEvery && slept == 0; r++ {
		step("quiet", r)
		if gated.PendingHotEdges() == 0 {
			slept = r
		} else if gated.HotEdges() != gated.NumEdges() {
			t.Fatalf("quiet round %d: fallback ran over %d of %d edges", r, gated.HotEdges(), gated.NumEdges())
		}
	}
	if slept == 0 {
		t.Fatalf("no probe put the quiesced graph to sleep within %d rounds: %d edges still pending",
			gateProbeEvery, gated.PendingHotEdges())
	}
	step("asleep", slept+1)
	if gated.HotEdges() != 0 || gated.HotNodes() != 0 {
		t.Fatalf("round after the probe ran over %d edges / %d nodes, want none", gated.HotEdges(), gated.HotNodes())
	}
}

// ballSize returns the node count of the radius-r BFS ball around start
// and the number of edges with both endpoints inside it.
func ballSize(e *Engine, start, r int) (nodes, edges int) {
	depth := map[int]int{start: 0}
	frontier := []int{start}
	for d := 0; d < r; d++ {
		var next []int
		for _, i := range frontier {
			for _, a := range e.Topology().Neighbors(i) {
				if _, ok := depth[a.To]; !ok {
					depth[a.To] = d + 1
					next = append(next, a.To)
				}
			}
		}
		frontier = next
	}
	seen := map[int]bool{}
	for i := range depth {
		for _, a := range e.Topology().Neighbors(i) {
			if _, ok := depth[a.To]; ok && !seen[a.Edge] {
				seen[a.Edge] = true
			}
		}
	}
	return len(depth), len(seen)
}

// TestRecoveryIdentityGatedCuts extends the recovery property to the gate:
// cut-and-recover runs of a gated engine land on the same hash as the
// uninterrupted gated AND ungated runs at every committed batch boundary,
// whether the restored engine itself gates or not — gate state is
// reconstructed at restore, never read from disk.
func TestRecoveryIdentityGatedCuts(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{Dir: dir, Sync: wal.SyncNever, SegmentBytes: 2048, RetainSnapshots: 1000}
	w, rec, err := wal.Open(opts)
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	if rec.HasState() {
		t.Fatalf("fresh dir already holds a log")
	}

	build := func(mode GateMode, sink WALSink) *Engine {
		g, err := graph.Torus(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		speeds := make(load.Speeds, g.N())
		for i := range speeds {
			speeds[i] = 1 + int64(i%2)
		}
		tasks, err := load.NewTokens([]int64{30, 0, 12, 5, 0, 9, 0, 0, 21, 3, 0, 7, 0, 16, 2, 0})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Graph: g, Speeds: speeds, Tasks: tasks, Workers: 2, Gate: mode, SnapshotEvery: 7, WAL: sink}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	logged := build(GateOn, w) // the gated run that writes the log
	bareGated := build(GateOn, nil)
	bareFull := build(GateOff, nil)

	hashes := map[int64][sha256.Size]byte{logged.Round(): logged.StateHash()}
	scn := scenarioFor(t, 16)
	for r := 0; r < 30; r++ {
		scheduleScenario(t, scn, 3, logged, bareGated, bareFull)
		errL, errG, errF := logged.Step(), bareGated.Step(), bareFull.Step()
		if (errL == nil) != (errG == nil) || (errL == nil) != (errF == nil) {
			t.Fatalf("round %d: executions disagree: %v / %v / %v", r, errL, errG, errF)
		}
		if logged.StateHash() != bareGated.StateHash() {
			t.Fatalf("round %d: logging perturbed the gated engine", r)
		}
		if logged.StateHash() != bareFull.StateHash() {
			t.Fatalf("round %d: gated run diverged from ungated", r)
		}
		hashes[logged.Round()] = logged.StateHash()
	}
	finalRound := logged.Round()
	logged.Close()
	bareGated.Close()
	bareFull.Close()
	if err := w.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	recov, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if recov.LastRound != finalRound {
		t.Fatalf("log tip at round %d, engine finished at %d", recov.LastRound, finalRound)
	}
	for _, mode := range []struct {
		name string
		gate GateMode
	}{{"restore-gated", GateOn}, {"restore-ungated", GateOff}} {
		t.Run(mode.name, func(t *testing.T) {
			for cut := 0; cut <= len(recov.Batches); cut++ {
				sub := *recov
				sub.Batches = recov.Batches[:cut]
				e, err := Restore(&sub, Config{Workers: 1, Gate: mode.gate})
				if err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				want, ok := hashes[e.Round()]
				if !ok {
					t.Fatalf("cut %d: recovered to round %d the live run never visited", cut, e.Round())
				}
				if e.StateHash() != want {
					t.Fatalf("cut %d (round %d): recovered state differs from the uninterrupted runs", cut, e.Round())
				}
				e.Close()
			}
		})
	}
}
