package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/workload"
)

// round-hot drives engine.Engine in-process on the 10k torus with every
// edge slot hot: each round schedules hotEvents generated hotspot events
// and calls Step, in a closed loop.
const (
	hotEvents = 64    // events scheduled per round
	hotRounds = 1024  // distinct per-round batches the run cycles through
	hotSetups = 31    // engine builds per end-to-end run; setup_s is their median
	hotWarmup = 4     // untimed rounds stepped after set-up
	hotBudget = 20000 // rounds allowed for the Theorem 3 re-entry after the run
)

// hotEventRounds generates the per-round hotspot event batches from the seed.
func hotEventRounds(seed int64, nodes int) ([][]wire.Event, error) {
	scn, err := workload.NewScenario("hotspot")
	if err != nil {
		return nil, err
	}
	if err := scn.Init(workload.ScenarioParams{Nodes: nodeIDs(nodes), Seed: seed}); err != nil {
		return nil, err
	}
	rounds := make([][]wire.Event, hotRounds)
	for k := range rounds {
		rounds[k] = make([]wire.Event, hotEvents)
		for i := range rounds[k] {
			rounds[k][i] = scn.Next()
		}
	}
	return rounds, nil
}

// hotSetUp builds the engine `times` times and keeps the last one; it
// returns the median time of graph + engine.New. Earlier engines are
// closed and their memory released before the next is built. The kept
// engine then steps hotWarmup rounds outside the timing.
func hotSetUp(seed int64, times int, reg func() *obs.Registry) (*engine.Engine, float64, error) {
	var eng *engine.Engine
	took := make([]float64, 0, times)
	for i := 0; i < times; i++ {
		if eng != nil {
			eng.Close()
			eng = nil
			releaseMemory()
		}
		t0 := time.Now()
		e, err := newTorusEngine(seed, 0, reg())
		if err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
		eng = e
	}
	if err := eng.Run(hotWarmup); err != nil {
		eng.Close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return eng, median(took), nil
}

func nodeIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func roundHotE2E(r *run) (map[string]float64, error) {
	var reg *obs.Registry
	eng, setup, err := hotSetUp(r.seed, hotSetups, func() *obs.Registry { reg = obs.NewRegistry(); return reg })
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	rounds, err := hotEventRounds(r.seed, eng.NumNodes())
	if err != nil {
		return nil, err
	}
	lat := make([]time.Duration, 0, 1<<14)  // Step
	iter := make([]time.Duration, 0, 1<<14) // Schedule of the round's events + Step
	var scheduled int64
	applied0, round0 := eng.EventsApplied(), eng.Round()
	start := time.Now()
	for k := 0; time.Since(start) < r.seconds; k++ {
		t := time.Now()
		var err error
		for i := range rounds[k%len(rounds)] {
			ev, ferr := engine.FromWire(&rounds[k%len(rounds)][i])
			if ferr == nil {
				ferr = eng.Schedule(ev)
			}
			if ferr != nil && err == nil {
				err = ferr
			}
			if ferr == nil {
				scheduled++
			}
		}
		t0 := time.Now()
		if serr := eng.Step(); serr != nil && err == nil {
			err = serr
		}
		lat = append(lat, time.Since(t0))
		iter = append(iter, time.Since(t))
		r.op(err)
	}
	// The rates are taken at the median round time: a slow spell of the
	// host stretches some rounds of a run (a stalled pool worker holds up
	// the round's barrier), and the median leaves them out where the
	// loop's total time would not.
	span := medianSpan(iter).Seconds()
	applied, steps := eng.EventsApplied()-applied0, eng.Round()-round0
	checkEngine(r, eng, reg, applied0+scheduled, hotBudget)
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"events_per_s":   float64(applied) / span,
		"rounds_per_s":   float64(steps) / span,
		"latency_p50_ms": ms(quantile(lat, 0.50)),
		"setup_s":        setup,
		"rss_mb":         rss,
	}, nil
}

// encodeRounds turns per-round wire events into NDJSON bodies, one body
// per round, for the traced replay's decode layer.
func encodeRounds(rounds [][]wire.Event) ([][]byte, error) {
	bodies := make([][]byte, len(rounds))
	for k, evs := range rounds {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for i := range evs {
			if err := enc.Encode(&evs[i]); err != nil {
				return nil, err
			}
		}
		bodies[k] = b.Bytes()
	}
	return bodies, nil
}

func roundHotTraced(r *run) (map[string]float64, error) {
	reg := obs.NewRegistry()
	eng, _, err := hotSetUp(r.seed, 1, func() *obs.Registry { return reg })
	if err != nil {
		return nil, err
	}
	rounds, err := hotEventRounds(r.seed, eng.NumNodes())
	if err != nil {
		eng.Close()
		return nil, err
	}
	bodies, err := encodeRounds(rounds)
	if err != nil {
		eng.Close()
		return nil, err
	}
	applied0, round0 := eng.EventsApplied(), eng.Round()
	t, err := newTracer(eng, reg, 1)
	if err != nil {
		eng.Close()
		return nil, err
	}
	l := &lane{}
	cpu0 := selfCPU()
	start := time.Now()
	for k := 0; time.Since(start) < r.seconds; k++ {
		t.deliver(l, bodies[k%len(bodies)])
	}
	l.wall = time.Since(start)
	cpu := selfCPU() - cpu0
	t.drain()
	out := map[string]float64{}
	var state []byte
	err = t.sv.Do(func(e *engine.Engine) error {
		for _, err := range t.errs {
			r.op(err)
		}
		out["engine.rounds"] = float64(e.Round() - round0)
		out["engine.events_applied"] = float64(e.EventsApplied() - applied0)
		if err := layerMetrics(out, []*lane{l}, t); err != nil {
			return err
		}
		checkEngine(r, e, reg, applied0+l.scheduled, hotBudget)
		series, err := scrape(reg)
		if err != nil {
			return err
		}
		out["engine.topology_events"] = topologyEvents(series) - topologyEvents(t.base)
		state = e.EncodeState()
		e.Close()
		return nil
	})
	if err != nil {
		return nil, err
	}
	releaseMemory()
	if err := poolRounds(r, state, r.seconds/20, out); err != nil {
		return nil, err
	}
	out["latency_mean_ms"] = ms(mean(t.stepTimes))
	out["latency_p99_ms"] = ms(quantile(t.stepTimes, 0.99))
	out["server.cpu_us_per_event"] = us(cpu) / max(out["engine.events_applied"], 1)
	out["driver.cpu_s"] = cpu.Seconds()
	// No HTTP layer, no write-ahead log, no open-loop generator and no
	// inline ingest rounds in this workload: those layers did no work.
	for _, k := range []string{"http.residual_share", "driver.late_p99_ms", "wal.append_ns_per_event",
		"wal.round_p99_us", "wal.bytes_per_event", "engine.inline_rounds"} {
		out[k] = 0
	}
	return out, nil
}
