package engine

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/wal"
	"repro/internal/wire"
)

var allKinds = []Kind{KindTaskArrival, KindTaskCompletion, KindNodeJoin, KindNodeLeave, KindEdgeChange}

// refQueue is the reference order the event queue must reproduce: a
// stable sort by (At, kindRank) over events kept in insertion order.
type refQueue []Event

func (r *refQueue) push(ev Event) {
	*r = append(*r, ev)
	sort.SliceStable(*r, func(i, j int) bool {
		a, b := (*r)[i], (*r)[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return kindRank(a.Kind) < kindRank(b.Kind)
	})
}

func (r *refQueue) popDue(round int64) (Event, bool) {
	if len(*r) == 0 || (*r)[0].At > round {
		return Event{}, false
	}
	ev := (*r)[0]
	*r = (*r)[1:]
	return ev, true
}

// TestEventQueueOrder drives the queue and the reference with random
// mixes of all five kinds due in the past (clamped, as Schedule does),
// the current round and future rounds, interleaved with partial drains
// that stop mid-batch the way a rejected event stops Step.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		var q eventQueue
		var ref refQueue
		round, id := int64(0), 0
		for op := 0; op < 200; op++ {
			if rng.Intn(3) > 0 {
				at := max(round+rng.Int63n(9)-4, round)
				ev := Event{At: at, Kind: allKinds[rng.Intn(len(allKinds))], Node: id}
				id++
				q.push(ev)
				ref.push(ev)
			} else {
				stopAfter := rng.Intn(12) // a rejection after this many pops
				drained := true
				for k := 0; ; k++ {
					want, wok := ref.popDue(round)
					got, gok := q.popDue(round)
					if gok != wok || got.Node != want.Node {
						t.Fatalf("trial %d op %d: pop %v/%+v, reference %v/%+v", trial, op, gok, got, wok, want)
					}
					if !gok {
						break
					}
					if k == stopAfter {
						drained = false
						break
					}
				}
				if drained {
					round++
				}
			}
			if q.len() != len(ref) {
				t.Fatalf("trial %d op %d: %d pending, reference %d", trial, op, q.len(), len(ref))
			}
		}
	}
}

// eventLog is a WALSink that records the applied events in apply order.
type eventLog struct{ events []wire.Event }

func (l *eventLog) AppendEvent(ev *wire.Event) error {
	c := *ev
	c.Weights = append([]int64(nil), ev.Weights...)
	l.events = append(l.events, c)
	return nil
}
func (l *eventLog) AppendRound(wal.RoundMark) error               { return nil }
func (l *eventLog) WriteSnapshot(round int64, state []byte) error { return nil }

// TestEngineEventOrderWithRejections schedules random mixes of all five
// kinds into an engine, some of them invalid so that Step rejects them
// mid-batch, and checks the applied order (as logged to the WAL) and
// PendingEvents against the reference queue: a rejected event is popped
// and dropped, and the rest of its batch runs on the next Step.
func TestEngineEventOrderWithRejections(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 0, 14 and 28 may leave (once each; no two are adjacent);
	// every other event targets only the remaining nodes, so a valid
	// event stays valid in any order.
	leavers := []int{0, 14, 28}
	var stay []int
	for v := 0; v < g.N(); v++ {
		if !slices.Contains(leavers, v) {
			stay = append(stay, v)
		}
	}
	var stayEdges [][2]int
	for _, uv := range g.Edges() {
		if !slices.Contains(leavers, uv[0]) && !slices.Contains(leavers, uv[1]) {
			stayEdges = append(stayEdges, uv)
		}
	}
	const dead = 1 << 20 // never an active node

	rng := rand.New(rand.NewSource(9))
	eng := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N())})
	log := &eventLog{}
	if err := eng.AttachWAL(log, 1<<20); err != nil {
		t.Fatal(err)
	}
	var ref refQueue
	var want []wire.Event
	isBad := func(ev Event) bool {
		switch ev.Kind {
		case KindNodeJoin:
			return ev.Peers[0] == dead
		case KindEdgeChange:
			return ev.AddEdges[0][0] == dead
		default:
			return ev.Node == dead
		}
	}
	count := 0
	for op := 0; op < 600; op++ {
		if rng.Intn(4) > 0 {
			at := max(eng.Round()+rng.Int63n(5)-2, eng.Round())
			count++
			node := stay[rng.Intn(len(stay))]
			var ev Event
			switch kind := allKinds[rng.Intn(len(allKinds))]; kind {
			case KindTaskArrival:
				ev = Arrival(at, node, 1+count%5)
			case KindTaskCompletion:
				ev = Completion(at, node, 1+count%4)
			case KindNodeJoin:
				p := rng.Perm(len(stay))
				ev = Join(at, int64(1+count%3), stay[p[0]], stay[p[1]])
			case KindNodeLeave:
				if len(leavers) == 0 || rng.Intn(2) == 0 {
					ev = Leave(at, dead)
					break
				}
				ev = Leave(at, leavers[0])
				leavers = leavers[1:]
			case KindEdgeChange:
				uv := stayEdges[rng.Intn(len(stayEdges))]
				ev = EdgeChange(at, [][2]int{uv}, [][2]int{uv})
			}
			if rng.Intn(8) == 0 {
				switch ev.Kind {
				case KindNodeJoin:
					ev.Peers[0] = dead
				case KindEdgeChange:
					ev.AddEdges = [][2]int{{dead, node}}
					ev.RemoveEdges = nil
				default:
					ev.Node = dead
				}
			}
			if err := eng.Schedule(ev); err != nil {
				t.Fatal(err)
			}
			ref.push(ev)
		} else {
			wantErr := false
			for {
				ev, ok := ref.popDue(eng.Round())
				if !ok {
					break
				}
				if isBad(ev) {
					wantErr = true
					break
				}
				var w wire.Event
				if err := toWireInto(ev, &w); err != nil {
					t.Fatal(err)
				}
				want = append(want, w)
			}
			if err := eng.Step(); (err != nil) != wantErr {
				t.Fatalf("op %d: Step error %v, want error %v", op, err, wantErr)
			}
		}
		if eng.PendingEvents() != len(ref) {
			t.Fatalf("op %d: %d pending, reference %d", op, eng.PendingEvents(), len(ref))
		}
	}
	if !reflect.DeepEqual(log.events, want) {
		t.Fatalf("applied %d events, reference %d; orders differ", len(log.events), len(want))
	}
	if len(want) < 200 {
		t.Fatalf("only %d events applied; the mix is too sparse to pin the order", len(want))
	}
	if err := eng.AuditFull(); err != nil {
		t.Fatal(err)
	}
}

// TestEventQueueSteadyStateAllocs pins the warm queue to zero
// allocations: once a round's bucket has grown, scheduling the next
// round's batch and popping it reuses the retired bucket.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	g, err := graph.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N())})
	batch := make([]Event, 0, 64)
	for k := 0; k < 64; k++ {
		batch = append(batch, Completion(0, k%16, 1), Leave(0, k%16))
	}
	round := int64(0)
	cycle := func() {
		for _, ev := range batch {
			ev.At = round
			if err := eng.Schedule(ev); err != nil {
				t.Fatal(err)
			}
		}
		for {
			if _, ok := eng.queue.popDue(round); !ok {
				break
			}
		}
		round++
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warm Schedule + due-pop allocated %v times per round, want 0", allocs)
	}
}
