// Command perfbench is the repository benchmark: three seeded workloads
// that drive the online engine from HTTP ingest down to the in-process
// balancing round, and print one JSON result line.
//
// run.sh builds lbserve, lbreplay and this program from the checkout and
// then runs it:
//
//	bash perfbench/run.sh --workload ingest-max --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with nothing but
// perfbench's own clocks. With --trace 1 it is the separate traced run:
// it replays the workload's event stream in-process through the public
// entry point of each layer, times every call, and prints the per-layer
// metrics. README.md lists the workloads, the metrics and the layer each
// metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer fix the metric names and units a run prints; a
// run that produced a different set is a bug in perfbench and fails.
var endToEnd = map[string]string{
	"events_per_s":   "1/s",
	"rounds_per_s":   "1/s",
	"latency_p50_ms": "ms",
	"setup_s":        "s",
	"rss_mb":         "MB",
}

var perLayer = map[string]string{
	"stream.decode_ns_per_event":       "ns/event",
	"queue.schedule_ns_per_event":      "ns/event",
	"server.lock_wait_p99_us":          "us",
	"server.cpu_us_per_event":          "us/event",
	"stage.event_apply_ns_per_event":   "ns/event",
	"stage.ledger_us_per_round":        "us/round",
	"stage.round_flows_us_per_round":   "us/round",
	"stage.round_decide_us_per_round":  "us/round",
	"stage.round_deliver_us_per_round": "us/round",
	"stage.round_update_us_per_round":  "us/round",
	"stage.gate_maintain_us_per_round": "us/round",
	"stage.sample_us_per_round":        "us/round",
	"step.allocs_per_round":            "count/round",
	"step.bytes_per_round":             "B/round",
	"gate.hot_edge_share":              "ratio",
	"wal.append_ns_per_event":          "ns/event",
	"wal.round_p99_us":                 "us",
	"wal.bytes_per_event":              "B/event",
	"pool.speedup":                     "x",
	"driver.late_p99_ms":               "ms",
	"driver.cpu_s":                     "s",
	"engine.rounds":                    "count",
	"engine.events_applied":            "count",
	"engine.inline_rounds":             "count",
	"engine.topology_events":           "count",
	"trace.coverage":                   "ratio",
	"http.residual_share":              "ratio",
	"error_rate":                       "ratio",
	"latency_mean_ms":                  "ms",
	"latency_p99_ms":                   "ms",
}

// run carries one invocation's settings and its correctness tally.
type run struct {
	seed    int64
	seconds time.Duration
	bin     string // directory holding the lbserve and lbreplay binaries
	work    string // scratch directory for write-ahead logs

	attempted int64
	failed    int64
}

// op counts one attempted operation and whether it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// check counts one correctness check; a false ok is a failed operation.
func (r *run) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("check failed: "+format, args...)
	}
	r.op(err)
}

// benchWorkload is one entry of the benchmark: e2e measures the end-to-end
// metrics, traced the per-layer ones.
type benchWorkload struct {
	e2e    func(r *run) (map[string]float64, error)
	traced func(r *run) (map[string]float64, error)
}

var workloads = map[string]benchWorkload{
	"ingest-max":  {e2e: ingestMax.e2e, traced: ingestMax.traced},
	"serve-paced": {e2e: servePaced.e2e, traced: servePaced.traced},
	"round-hot":   {e2e: roundHotE2E, traced: roundHotTraced},
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "", "workload to run ("+strings.Join(workloadNames(), "|")+")")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the lbserve and lbreplay binaries")
		work    = flag.String("work", ".bench_build/run", "scratch directory for write-ahead logs")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (%s)", *name, strings.Join(workloadNames(), "|"))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be >= 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	// Each run gets its own scratch directory, removed when it ends.
	dir := filepath.Join(*work, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// The host fingerprint records the value the run actually used.
	fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
	r := &run{seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin, work: dir}
	measure, want := w.e2e, endToEnd
	if *trace == 1 {
		measure, want = w.traced, perLayer
	}
	values, err := measure(r)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if *trace == 1 {
		values["error_rate"] = float64(r.failed) / float64(max(r.attempted, 1))
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for k, v := range values {
		unit, ok := want[k]
		if !ok {
			return fmt.Errorf("%s: metric %q is not in the benchmark's metric list", *name, k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %q is %v", *name, k, v)
		}
		res.Metrics[k] = metric{Value: v, Unit: unit}
	}
	for k := range want {
		if _, ok := values[k]; !ok {
			return fmt.Errorf("%s: metric %q was not measured", *name, k)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", *name, r.failed, r.attempted)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
