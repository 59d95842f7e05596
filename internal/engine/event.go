package engine

import (
	"fmt"

	"repro/internal/load"
)

// Kind enumerates the event types the runtime consumes.
type Kind int

const (
	// KindTaskArrival injects tasks at a node (Definition 3 additivity: new
	// load simply starts balancing on top of the moving load).
	KindTaskArrival Kind = iota + 1
	// KindTaskCompletion removes up to Count finished (non-dummy) tasks
	// from a node, newest first.
	KindTaskCompletion
	// KindNodeJoin activates a new node with the given Speed and attaches
	// it to the Peers.
	KindNodeJoin
	// KindNodeLeave deactivates a node; its tasks are redistributed
	// round-robin to its neighbours (load conservation) and its continuous
	// mass follows.
	KindNodeLeave
	// KindEdgeChange removes the RemoveEdges and then adds the AddEdges.
	KindEdgeChange
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTaskArrival:
		return "arrival"
	case KindTaskCompletion:
		return "completion"
	case KindNodeJoin:
		return "join"
	case KindNodeLeave:
		return "leave"
	case KindEdgeChange:
		return "edge-change"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one unit of the runtime's input stream. At is the round index
// at which the event fires: all events with At <= Round() are applied, in
// (At, kind, insertion) order, before the next balancing round executes.
type Event struct {
	At   int64
	Kind Kind

	// Node is the target of arrivals, completions and leaves.
	Node int
	// Tasks are the arriving tasks (arrivals only; dummies are rejected).
	Tasks []load.Task
	// Count is the number of tasks to complete (completions only).
	Count int
	// Speed is the joining node's speed (joins only; 0 means 1).
	Speed int64
	// Peers are the joining node's initial neighbours (joins only).
	Peers []int
	// AddEdges and RemoveEdges are applied by edge-change events;
	// removals run first.
	AddEdges    [][2]int
	RemoveEdges [][2]int
}

// Arrival builds a TaskArrival of count unit-weight tokens.
func Arrival(at int64, node int, count int) Event {
	tasks := make([]load.Task, count)
	for i := range tasks {
		tasks[i] = load.Task{Weight: 1}
	}
	return Event{At: at, Kind: KindTaskArrival, Node: node, Tasks: tasks}
}

// ArrivalTasks builds a TaskArrival of explicit tasks.
func ArrivalTasks(at int64, node int, tasks []load.Task) Event {
	return Event{At: at, Kind: KindTaskArrival, Node: node, Tasks: tasks}
}

// Completion builds a TaskCompletion of count tasks.
func Completion(at int64, node int, count int) Event {
	return Event{At: at, Kind: KindTaskCompletion, Node: node, Count: count}
}

// Join builds a NodeJoin attaching to peers with the given speed.
func Join(at int64, speed int64, peers ...int) Event {
	return Event{At: at, Kind: KindNodeJoin, Speed: speed, Peers: peers}
}

// Leave builds a NodeLeave.
func Leave(at int64, node int) Event {
	return Event{At: at, Kind: KindNodeLeave, Node: node}
}

// EdgeChange builds an edge mutation; remove runs before add.
func EdgeChange(at int64, add, remove [][2]int) Event {
	return Event{At: at, Kind: KindEdgeChange, AddEdges: add, RemoveEdges: remove}
}

// kindRank orders events that fire in the same round: topology growth
// first (so same-round arrivals can target just-joined nodes), then work
// stream changes, then departures.
func kindRank(k Kind) int {
	switch k {
	case KindNodeJoin:
		return 0
	case KindEdgeChange:
		return 1
	case KindTaskArrival:
		return 2
	case KindTaskCompletion:
		return 3
	case KindNodeLeave:
		return 4
	default:
		return 5
	}
}

// numRanks is the number of kindRank values a schedulable event can have.
const numRanks = 5

// roundBucket holds the pending events due at one round: one FIFO per
// kindRank, each consumed from its head. lo is the lowest rank that may
// still hold an event, n the number of events not yet popped.
type roundBucket struct {
	at   int64
	fifo [numRanks][]Event
	head [numRanks]int
	lo   int
	n    int
}

// eventQueue orders pending events by (At, kindRank, insertion) without
// comparing events: each distinct At gets a bucket of per-rank FIFOs, and
// a min-heap over the buckets' rounds holds only the distinct pending
// rounds. Popping drains the smallest round's FIFOs in rank order, each
// in insertion order. A drained bucket is retired and kept as the spare
// for the next new round, so in steady state (one round filled, then
// drained) the queue allocates nothing and retains one round's storage.
type eventQueue struct {
	rounds []*roundBucket // min-heap by at
	byAt   map[int64]*roundBucket
	spare  *roundBucket
	n      int
}

// len returns the number of pending events.
func (q *eventQueue) len() int { return q.n }

// push enqueues ev behind every pending event with the same At and rank.
// The kind must be schedulable (kindRank < numRanks).
//
//lb:hotpath
func (q *eventQueue) push(ev Event) {
	b := q.bucket(ev.At)
	r := kindRank(ev.Kind)
	b.fifo[r] = append(b.fifo[r], ev)
	if r < b.lo {
		b.lo = r
	}
	b.n++
	q.n++
}

// popDue removes and returns the first pending event in (At, kindRank,
// insertion) order, provided it is due at round (At <= round).
//
//lb:hotpath
func (q *eventQueue) popDue(round int64) (Event, bool) {
	if len(q.rounds) == 0 || q.rounds[0].at > round {
		return Event{}, false
	}
	b := q.rounds[0]
	r := b.lo
	for b.head[r] == len(b.fifo[r]) {
		r++
	}
	b.lo = r
	ev := b.fifo[r][b.head[r]]
	b.head[r]++
	b.n--
	q.n--
	if b.n == 0 {
		q.retire()
	}
	return ev, true
}

// bucket returns the bucket of round at, opening one (the spare, when
// there is one) if the round has no pending events.
func (q *eventQueue) bucket(at int64) *roundBucket {
	if b, ok := q.byAt[at]; ok {
		return b
	}
	if q.byAt == nil {
		q.byAt = make(map[int64]*roundBucket)
	}
	b := q.spare
	q.spare = nil
	if b == nil {
		b = new(roundBucket)
	}
	b.at, b.lo = at, numRanks
	q.byAt[at] = b
	q.rounds = append(q.rounds, b)
	for i := len(q.rounds) - 1; i > 0; {
		p := (i - 1) / 2
		if q.rounds[p].at <= at {
			break
		}
		q.rounds[i], q.rounds[p] = q.rounds[p], q.rounds[i]
		i = p
	}
	return b
}

// retire removes the drained smallest-round bucket from the heap and
// resets it as the spare; its FIFOs are cleared so the popped events'
// task slices are not kept alive.
func (q *eventQueue) retire() {
	b := q.rounds[0]
	last := len(q.rounds) - 1
	q.rounds[0] = q.rounds[last]
	q.rounds[last] = nil
	q.rounds = q.rounds[:last]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < last && q.rounds[l].at < q.rounds[m].at {
			m = l
		}
		if r < last && q.rounds[r].at < q.rounds[m].at {
			m = r
		}
		if m == i {
			break
		}
		q.rounds[i], q.rounds[m] = q.rounds[m], q.rounds[i]
		i = m
	}
	delete(q.byAt, b.at)
	if q.spare == nil {
		for r := range b.fifo {
			clear(b.fifo[r])
			b.fifo[r] = b.fifo[r][:0]
			b.head[r] = 0
		}
		q.spare = b
	}
}
