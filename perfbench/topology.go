package main

import (
	"repro/internal/graph"
	"repro/internal/wire"
)

// topology mirrors the server's graph from the events the generator
// emits. Theorem 3 bounds the discrepancy of a connected graph only, and
// churn-storm's uniformly random leaves cut a 10k torus into pieces
// within a few hundred thousand events, after which max-avg never
// re-enters the bound. The generator therefore skips any leave that
// would disconnect the mirror. Joined nodes get mirror ids of their own;
// the generator never targets them, so they need not match server slots.
type topology struct {
	adj   [][]int
	mark  []uint32
	epoch uint32
	queue []int
}

func newTorusTopology(side int) (*topology, error) {
	g, err := graph.Torus(side, side)
	if err != nil {
		return nil, err
	}
	t := &topology{adj: make([][]int, g.N()), mark: make([]uint32, g.N())}
	for i := range t.adj {
		for _, a := range g.Neighbors(i) {
			t.adj[i] = append(t.adj[i], a.To)
		}
	}
	return t, nil
}

// admit applies ev to the mirror and reports whether the generator may
// emit it.
func (t *topology) admit(ev *wire.Event) bool {
	switch ev.Kind {
	case "join":
		id := len(t.adj)
		t.adj = append(t.adj, append([]int(nil), ev.Peers...))
		t.mark = append(t.mark, 0)
		for _, p := range ev.Peers {
			t.adj[p] = append(t.adj[p], id)
		}
	case "leave":
		if !t.connectedWithout(ev.Node) {
			return false
		}
		for _, u := range t.adj[ev.Node] {
			nb := t.adj[u]
			for k, w := range nb {
				if w == ev.Node {
					nb[k] = nb[len(nb)-1]
					t.adj[u] = nb[:len(nb)-1]
					break
				}
			}
		}
		t.adj[ev.Node] = nil
	}
	return true
}

// connectedWithout reports whether v's neighbours still reach each other
// once v is gone — then the rest of the graph stays connected. The
// breadth-first search from one neighbour stops as soon as it has found
// all the others, which on a torus takes a few hops.
func (t *topology) connectedWithout(v int) bool {
	nb := t.adj[v]
	if len(nb) == 0 {
		return false
	}
	t.epoch++
	t.mark[v] = t.epoch
	want := 0
	for _, u := range nb {
		if t.mark[u] != t.epoch {
			t.mark[u] = t.epoch
			want++
		}
	}
	// Neighbours not yet reached carry mark epoch; reached nodes carry
	// epoch+1.
	seen := t.epoch + 1
	t.epoch = seen
	t.queue = append(t.queue[:0], nb[0])
	t.mark[nb[0]] = seen
	found := 1
	for head := 0; head < len(t.queue) && found < want; head++ {
		u := t.queue[head]
		for _, w := range t.adj[u] {
			switch t.mark[w] {
			case seen:
			case seen - 1:
				if w == v {
					continue
				}
				found++
				t.mark[w] = seen
				t.queue = append(t.queue, w)
			default:
				t.mark[w] = seen
				t.queue = append(t.queue, w)
			}
		}
	}
	return found >= want
}
