package dist

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/load"
)

// removeNewestRealRef is the original RemoveNewestReal: a drop mask over
// the pool plus a second, order-preserving pass. It is the reference the
// in-place version is pinned to.
func removeNewestRealRef(st *SendState, max int) []load.Task {
	if max <= 0 {
		return nil
	}
	var removed []load.Task
	drop := make([]bool, len(st.tasks))
	for i := len(st.tasks) - 1; i >= 0 && len(removed) < max; i-- {
		if st.tasks[i].Dummy {
			continue
		}
		drop[i] = true
		removed = append(removed, st.tasks[i])
		st.wTotal -= st.tasks[i].Weight
		st.wReal -= st.tasks[i].Weight
	}
	if len(removed) == 0 {
		return nil
	}
	kept := st.tasks[:0]
	for i, q := range st.tasks {
		if !drop[i] {
			kept = append(kept, q)
		}
	}
	st.tasks = kept
	st.avail = 0
	return removed
}

// randomPool builds a pool of up to 12 tasks, dummies mixed in, with a
// random avail prefix and dummy counter.
func randomPool(rng *rand.Rand) *SendState {
	tasks := make([]load.Task, rng.Intn(13))
	for i := range tasks {
		tasks[i] = load.Task{Weight: 1 + rng.Int63n(5), Dummy: rng.Intn(3) == 0}
	}
	st := RestoreSendState(tasks, rng.Int63n(4))
	st.avail = rng.Intn(len(tasks) + 1)
	return st
}

func TestRemoveNewestRealMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5000; trial++ {
		got := randomPool(rng)
		want := RestoreSendState(got.tasks, got.dummies)
		want.avail = got.avail
		max := rng.Intn(15) - 2

		var wantW int64
		for _, q := range removeNewestRealRef(want, max) {
			wantW += q.Weight
		}
		if w := got.RemoveNewestReal(max); w != wantW {
			t.Fatalf("trial %d: removed weight %d, reference %d", trial, w, wantW)
		}
		if len(got.tasks) == 0 && len(want.tasks) == 0 {
			got.tasks, want.tasks = nil, nil // an emptied pool's capacity is not state
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (max %d):\n got  %+v\n want %+v", trial, max, got, want)
		}
	}
}

func TestRemoveNewestRealAllocs(t *testing.T) {
	pool := make([]load.Task, 64)
	for i := range pool {
		pool[i] = load.Task{Weight: 1, Dummy: i%5 == 0}
	}
	st := NewSendState(pool, 0)
	allocs := testing.AllocsPerRun(100, func() {
		st.RemoveNewestReal(3)
		st.AddTasks(pool[1:4])
	})
	if allocs != 0 {
		t.Fatalf("RemoveNewestReal+AddTasks allocated %v times per run, want 0", allocs)
	}
}
