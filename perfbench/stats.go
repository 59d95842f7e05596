package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile of raw samples by the nearest-rank rule.
// Samples are kept raw, never bucketed, so the result is exact.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// medianSpan returns how long the operations would have taken had each
// one taken the median time of its kind; each argument holds the samples
// of one kind.
func medianSpan(kinds ...[]time.Duration) time.Duration {
	var span time.Duration
	for _, ds := range kinds {
		span += time.Duration(len(ds)) * quantile(ds, 0.5)
	}
	return span
}

// mean returns the arithmetic mean of raw samples.
func mean(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(max(len(ds), 1))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median returns the median of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// vmHWM reads the peak resident set size of a process in MB.
func vmHWM(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// procCPU reads the user+system CPU time of another process from
// /proc/<pid>/stat (clock-tick resolution).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; the fields
	// after the closing parenthesis start at field 3 (state).
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat times", pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(utime+stime) * time.Second / clkTck, nil
}

// selfCPU is perfbench's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// releaseMemory collects garbage and returns freed pages to the OS, so a
// discarded engine does not inflate the peak RSS of the next one.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// scrape parses a Prometheus exposition into its series map.
func scrape(reg *obs.Registry) (map[string]float64, error) {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return obs.SampleMap(b.Bytes())
}

// stageSeconds returns the summed engine_step_stage_seconds of one stage.
func stageSeconds(series map[string]float64, stage string) float64 {
	return series[`engine_step_stage_seconds_sum{stage="`+stage+`"}`]
}

// topologyEvents counts applied join, leave and edge-change events.
func topologyEvents(series map[string]float64) float64 {
	var n float64
	for _, k := range []string{"join", "leave", "edge-change"} {
		n += series[`engine_events_applied_total{kind="`+k+`"}`]
	}
	return n
}
