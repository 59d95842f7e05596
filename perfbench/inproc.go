package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/workload"
)

// newTorusEngine builds an engine on the torusSide×torusSide torus with
// tokensNode tokens per node thrown uniformly at random from the seed,
// through the public constructor the way a user of the library does. The
// placement matches lbserve -graph torus:<side> -tokens <tokens> -seed
// <seed>. window is the metrics ring capacity; 0 keeps the library default.
func newTorusEngine(seed int64, window int, reg *obs.Registry) (*engine.Engine, error) {
	g, err := graph.Torus(torusSide, torusSide)
	if err != nil {
		return nil, err
	}
	n := g.N()
	counts := workload.UniformRandom(n, tokensNode*int64(n), rand.New(rand.NewSource(seed)))
	tasks, err := load.NewTokens(counts)
	if err != nil {
		return nil, err
	}
	return engine.New(engine.Config{
		Graph: g, Speeds: load.UniformSpeeds(n), Tasks: tasks,
		MetricsWindow: window, Registry: reg,
	})
}

// checkEngine runs the correctness checks on an in-process engine after
// its measured phase: the queue drains, every scheduled event was applied
// and none rejected, no full recount ran and the recount agrees with the
// ledger, and max-avg re-enters the Theorem 3 bound within budget rounds.
func checkEngine(r *run, eng *engine.Engine, reg *obs.Registry, scheduled int64, budget int) {
	if eng.PendingEvents() > 0 {
		r.op(eng.Step())
	}
	r.check(eng.PendingEvents() == 0, "%d events still queued after the drain", eng.PendingEvents())
	r.check(eng.EventsApplied() == scheduled, "events applied %d != events sent %d", eng.EventsApplied(), scheduled)
	series, err := scrape(reg)
	r.op(err)
	r.check(series["engine_events_rejected_total"] == 0, "engine rejected %v events", series["engine_events_rejected_total"])
	r.check(eng.FullAudits() == 0, "%d full conservation recounts ran", eng.FullAudits())
	r.op(eng.AuditFull())
	rounds, ok, err := eng.RunUntilBound(budget)
	r.op(err)
	r.check(ok, "max-avg %.3f did not re-enter the Theorem 3 bound %.0f within %d rounds", eng.MaxAvg(), eng.Bound(), rounds)
}

// lane holds the layer times of one replay goroutine.
type lane struct {
	decode, lockWait, schedule, step time.Duration
	idle                             time.Duration // pacing waits, not work
	wall                             time.Duration
	decoded, scheduled               int64
	waits                            []time.Duration
	scratch                          []engine.Event
}

func (l *lane) timed() time.Duration { return l.decode + l.lockWait + l.schedule + l.step }

// tracer replays an event stream in-process through the calls the HTTP
// handler makes — line scan, engine.ParseEventLine, then Server.Do with
// Engine.Schedule and, at the pending bound, Engine.Step — timing each
// call from outside. The probe fields are written only under the server
// lock.
type tracer struct {
	sv        *engine.Server
	reg       *obs.Registry
	base      map[string]float64 // registry series before the replay
	stepAt    int                // step once this many events are pending
	steps     int64
	stepTimes []time.Duration
	hot       float64
	errs      []error
}

func newTracer(eng *engine.Engine, reg *obs.Registry, stepAt int) (*tracer, error) {
	base, err := scrape(reg)
	if err != nil {
		return nil, err
	}
	return &tracer{sv: engine.NewServer(eng), reg: reg, base: base, stepAt: stepAt}, nil
}

// stepLocked runs one timed Step; the caller holds the server lock.
func (t *tracer) stepLocked(l *lane, e *engine.Engine) {
	t0 := time.Now()
	err := e.Step()
	took := time.Since(t0)
	l.step += took
	t.stepTimes = append(t.stepTimes, took)
	t.steps++
	if m := e.NumEdges(); m > 0 {
		t.hot += float64(e.HotEdges()) / float64(m)
	}
	if err != nil {
		t.errs = append(t.errs, err)
	}
}

// deliver replays one NDJSON request body.
func (t *tracer) deliver(l *lane, body []byte) {
	evs := l.scratch[:0]
	t0 := time.Now()
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		ev, err := engine.ParseEventLine(line)
		if err != nil {
			t.sv.Do(func(*engine.Engine) error { t.errs = append(t.errs, err); return nil })
			continue
		}
		evs = append(evs, ev)
	}
	l.decode += time.Since(t0)
	l.decoded += int64(len(evs))
	l.scratch = evs
	t1 := time.Now()
	_ = t.sv.Do(func(e *engine.Engine) error {
		w := time.Since(t1)
		l.lockWait += w
		l.waits = append(l.waits, w)
		ts := time.Now()
		for _, ev := range evs {
			if err := e.Schedule(ev); err != nil {
				t.errs = append(t.errs, err)
			}
		}
		l.schedule += time.Since(ts)
		l.scheduled += int64(len(evs))
		if e.PendingEvents() >= t.stepAt {
			t.stepLocked(l, e)
		}
		return nil
	})
}

// tick is one clocked round the way lbserve -rate runs it: skipped when
// nothing is queued and no edge is awake.
func (t *tracer) tick(l *lane) {
	t1 := time.Now()
	_ = t.sv.Do(func(e *engine.Engine) error {
		w := time.Since(t1)
		l.lockWait += w
		l.waits = append(l.waits, w)
		if e.PendingEvents() == 0 && e.PendingHotEdges() == 0 {
			return nil
		}
		t.stepLocked(l, e)
		return nil
	})
}

// replayClosed delivers bodies[0:n] from `conns` goroutines as fast as
// they go, like the closed HTTP loop's connections.
func (t *tracer) replayClosed(bodies [][]byte, n, conns int) []*lane {
	lanes := make([]*lane, conns)
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for c := range lanes {
		l := &lane{}
		lanes[c] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= n {
					break
				}
				t.deliver(l, bodies[k%len(bodies)])
			}
			l.wall = time.Since(t0)
		}()
	}
	wg.Wait()
	return lanes
}

// replayPaced delivers every body at its due time from one goroutine
// while a second one steps the engine at `rate` rounds per second.
func (t *tracer) replayPaced(bodies [][]byte, interval time.Duration, rate float64) []*lane {
	feed, clock := &lane{}, &lane{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer tk.Stop()
		t0 := time.Now()
		for {
			w0 := time.Now()
			select {
			case <-stop:
				clock.idle += time.Since(w0)
				clock.wall = time.Since(t0)
				return
			case <-tk.C:
				clock.idle += time.Since(w0)
				t.tick(clock)
			}
		}
	}()
	start := time.Now()
	for k, body := range bodies {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			w0 := time.Now()
			time.Sleep(d)
			feed.idle += time.Since(w0)
		}
		t.deliver(feed, body)
	}
	feed.wall = time.Since(start)
	close(stop)
	wg.Wait()
	return []*lane{feed, clock}
}

// drain steps once more if events are still queued.
func (t *tracer) drain() {
	l := &lane{}
	_ = t.sv.Do(func(e *engine.Engine) error {
		if e.PendingEvents() > 0 {
			t.stepLocked(l, e)
		}
		return nil
	})
}

// layerMetrics turns a finished replay into the per-layer metrics the
// replay itself measures: decode, schedule, lock wait, the Step stages
// from the engine's own engine_step_stage_seconds, the gate's hot share
// and the trace coverage.
func layerMetrics(out map[string]float64, lanes []*lane, t *tracer) error {
	series, err := scrape(t.reg)
	if err != nil {
		return err
	}
	for k, v := range t.base {
		series[k] -= v
	}
	var decode, schedule, timed, busy time.Duration
	var decoded, scheduled int64
	var waits []time.Duration
	for _, l := range lanes {
		decode += l.decode
		schedule += l.schedule
		decoded += l.decoded
		scheduled += l.scheduled
		timed += l.timed()
		busy += l.wall - l.idle
		waits = append(waits, l.waits...)
	}
	rounds := float64(max(t.steps, 1))
	applied := series[`engine_events_applied_total{kind="arrival"}`] +
		series[`engine_events_applied_total{kind="completion"}`] + topologyEvents(series)
	out["stream.decode_ns_per_event"] = float64(decode.Nanoseconds()) / float64(max(decoded, 1))
	out["queue.schedule_ns_per_event"] = float64(schedule.Nanoseconds()) / float64(max(scheduled, 1))
	out["server.lock_wait_p99_us"] = us(quantile(waits, 0.99))
	out["stage.event_apply_ns_per_event"] = stageSeconds(series, "event_apply") * 1e9 / max(applied, 1)
	for _, st := range []string{"ledger", "round_flows", "round_decide", "round_deliver", "round_update", "gate_maintain", "sample"} {
		out["stage."+st+"_us_per_round"] = stageSeconds(series, st) * 1e6 / rounds
	}
	out["gate.hot_edge_share"] = t.hot / rounds
	out["trace.coverage"] = timed.Seconds() / busy.Seconds()
	return nil
}

// poolRounds times the same balancing rounds at Workers: 1 and at the
// default worker count and sets pool.speedup to their ratio. Both engines
// are restored from one state and warmed up identically, so they execute
// bit-identical rounds; the check that their state hashes agree
// afterwards is part of the run's correctness tally. The default-worker
// loop calls nothing but Step, so runtime.ReadMemStats (which flushes
// every P's allocation cache first) read around it gives
// step.allocs_per_round and step.bytes_per_round.
func poolRounds(r *run, state []byte, budget time.Duration, out map[string]float64) error {
	const warm = 4
	timeRounds := func(workers, rounds int) (time.Duration, int, [32]byte, error) {
		e, err := engine.NewFromState(state, engine.Config{Workers: workers})
		if err != nil {
			return 0, 0, [32]byte{}, err
		}
		defer e.Close()
		if err := e.Run(warm); err != nil {
			return 0, 0, [32]byte{}, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		n := 0
		for ; rounds > 0 && n < rounds || rounds == 0 && time.Since(t0) < budget; n++ {
			if err := e.Step(); err != nil {
				return 0, 0, [32]byte{}, err
			}
		}
		took := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if workers == 0 {
			out["step.allocs_per_round"] = float64(m1.Mallocs-m0.Mallocs) / float64(max(n, 1))
			out["step.bytes_per_round"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(max(n, 1))
		}
		return took, n, e.StateHash(), nil
	}
	dN, n, hN, err := timeRounds(0, 0)
	if err != nil {
		return fmt.Errorf("pool rounds: %w", err)
	}
	releaseMemory()
	d1, _, h1, err := timeRounds(1, n)
	if err != nil {
		return fmt.Errorf("pool rounds: %w", err)
	}
	releaseMemory()
	r.check(h1 == hN, "state hash differs between 1 worker and the default pool after %d rounds", n)
	out["pool.speedup"] = d1.Seconds() / dN.Seconds()
	return nil
}
