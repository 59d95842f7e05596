package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// httpWorkload drives a real lbserve child process over
// POST /events/stream?step=auto with pre-encoded NDJSON batches.
type httpWorkload struct {
	scenario string
	batch    int     // events per request body
	rate     float64 // open-loop offered events/s; 0 runs a closed loop
	clock    float64 // lbserve -rate rounds/s; 0 steps only inline at the pending bound
	wal      bool    // run lbserve with a write-ahead log (default fsync policy)
	pool     int     // closed loop: batches generated and cycled through
	conns    int     // HTTP connections, one sending goroutine each
}

const (
	torusSide  = 100   // lbserve -graph torus:100
	tokensNode = 8     // lbserve -tokens 8
	pendingCap = 16384 // lbserve's default -stream-pending
	starts     = 21    // server starts per end-to-end run; setup_s is their median
	budget     = 5000  // rounds allowed for the Theorem 3 re-entry after a run
)

// ingestMax: closed loop, 1 connection, 512-event steady batches against
// lbserve with its defaults. With 2 connections both of the host's 2 CPUs
// are busy and a request's latency includes its wait behind the other
// connection's request, so a slow spell of the host moved the run's rate
// and latency further; 1 connection keeps a CPU free for the garbage
// collector and the driver.
var ingestMax = httpWorkload{scenario: "steady", batch: 512, pool: 1024, conns: 1}

// servePaced: open loop at a fixed 20000 events/s of churn-storm against
// lbserve -rate 20 with a write-ahead log, 2 connections so one slow
// request does not hold back the next one's send.
var servePaced = httpWorkload{scenario: "churn-storm", batch: 256, rate: 20000, clock: 20, wal: true, conns: 2}

// interval is the open loop's gap between two batches' due times.
func (w httpWorkload) interval() time.Duration {
	return time.Duration(float64(w.batch) / w.rate * float64(time.Second))
}

// inputs generates the workload's NDJSON bodies from the seed before any
// timing starts, skipping leaves that would disconnect the topology. An open loop gets exactly the batches its duration
// needs; a closed loop gets a pool it cycles through.
func (w httpWorkload) inputs(seed int64, dur time.Duration) ([][]byte, error) {
	n := w.pool
	if w.rate > 0 {
		n = int(dur / w.interval())
	}
	scn, err := workload.NewScenario(w.scenario)
	if err != nil {
		return nil, err
	}
	if err := scn.Init(workload.ScenarioParams{Nodes: nodeIDs(torusSide * torusSide), Seed: seed}); err != nil {
		return nil, err
	}
	topo, err := newTorusTopology(torusSide)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, n)
	for k := range bodies {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for i := 0; i < w.batch; {
			ev := scn.Next()
			if !topo.admit(&ev) {
				continue
			}
			if err := enc.Encode(&ev); err != nil {
				return nil, err
			}
			i++
		}
		bodies[k] = b.Bytes()
	}
	return bodies, nil
}

// child is one running lbserve process.
type child struct {
	cmd    *exec.Cmd
	base   string
	walDir string
	log    bytes.Buffer // stderr, read only after exit
	done   chan struct{}
	err    error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts lbserve and waits until /healthz answers.
func (w httpWorkload) launch(r *run, walDir string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr, "-graph", "torus:" + strconv.Itoa(torusSide),
		"-tokens", strconv.Itoa(tokensNode), "-seed", strconv.FormatInt(r.seed, 10)}
	if w.clock > 0 {
		args = append(args, "-rate", strconv.FormatFloat(w.clock, 'g', -1, 64))
	}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir)
	}
	c := &child{base: "http://" + addr, walDir: walDir, done: make(chan struct{})}
	c.cmd = exec.Command(filepath.Join(r.bin, "lbserve"), args...)
	c.cmd.Stderr = &c.log
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-c.done:
			return nil, fmt.Errorf("lbserve exited during start-up: %v: %s", c.err, tail(c.log.Bytes()))
		default:
		}
		resp, err := probe.Get(c.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("lbserve did not answer /healthz within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts lbserve down with SIGTERM, as an operator would, and waits
// for it to exit; a process that ignores it is killed after 20s.
func (c *child) stop() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(20 * time.Second):
		c.kill()
		return fmt.Errorf("lbserve ignored SIGTERM for 20s")
	}
	if c.err != nil {
		return fmt.Errorf("lbserve exited with %v: %s", c.err, tail(c.log.Bytes()))
	}
	return nil
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// close kills lbserve if it is still running, so no error path leaves
// it behind.
func (c *child) close() {
	select {
	case <-c.done:
	default:
		c.kill()
	}
}

func tail(b []byte) []byte {
	if len(b) > 2048 {
		return b[len(b)-2048:]
	}
	return b
}

// serverSnapshot is the part of GET /snapshot the checks read.
type serverSnapshot struct {
	Round      int64   `json:"round"`
	Pending    int     `json:"pending_events"`
	Events     int64   `json:"events_applied"`
	FullAudits int64   `json:"full_audits"`
	RealTotal  int64   `json:"real_total"`
	MaxAvg     float64 `json:"max_avg"`
	Bound      float64 `json:"bound"`
}

func (c *child) call(cl *http.Client, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func (c *child) snapshot(cl *http.Client) (serverSnapshot, error) {
	var s serverSnapshot
	raw, err := c.call(cl, http.MethodGet, "/snapshot", nil)
	if err == nil {
		err = json.Unmarshal(raw, &s)
	}
	return s, err
}

func (c *child) prom(cl *http.Client) (map[string]float64, error) {
	raw, err := c.call(cl, http.MethodGet, "/metrics/prom", nil)
	if err != nil {
		return nil, err
	}
	return obs.SampleMap(raw)
}

// post sends one stream body and returns how many events the server
// scheduled from it and how many rounds it ran inline.
func (c *child) post(cl *http.Client, body []byte) (events, rounds int64, err error) {
	raw, err := c.call(cl, http.MethodPost, "/events/stream?step=auto", body)
	if err != nil {
		return 0, 0, err
	}
	var reply struct {
		Events int64 `json:"events"`
		Rounds int64 `json:"rounds"`
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return 0, 0, fmt.Errorf("decode stream reply: %w", err)
	}
	return reply.Events, reply.Rounds, nil
}

// phase is the outcome of one measured HTTP phase.
type phase struct {
	lat       []time.Duration // closed loop: request latency; open loop: lag from the due time
	plainLat  []time.Duration // closed loop: latency of the requests that ran no round
	roundLat  []time.Duration // closed loop: latency of the requests that ran an inline round
	drain     time.Duration   // the final POST /step
	late      []time.Duration // open loop: how late the generator released each batch
	errs      []error
	batches   int           // bodies sent: the prefix of the input the phase used
	sent      int64         // events the server scheduled
	rounds    int64         // rounds completed during the measured window
	wall      time.Duration // first send until every sent event was applied
	window    time.Duration // first send until the last reply
	serverCPU time.Duration
	driverCPU time.Duration
	final     serverSnapshot
	series    map[string]float64
}

// measure runs the measured phase: the loop, then one POST /step that
// applies every event still queued, so events_per_s counts events
// applied, not merely accepted.
func (w httpWorkload) measure(c *child, cl *http.Client, bodies [][]byte, dur time.Duration) (*phase, error) {
	pid := c.cmd.Process.Pid
	s0, err := c.snapshot(cl)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	dcpu0 := selfCPU()
	p := &phase{}
	start := time.Now()
	if w.rate > 0 {
		w.openLoop(p, c, cl, bodies, start)
	} else {
		w.closedLoop(p, c, cl, bodies, start.Add(dur))
	}
	p.window = time.Since(start)
	s1, err := c.snapshot(cl)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := c.call(cl, http.MethodPost, "/step", nil); err != nil {
		return nil, err
	}
	p.drain = time.Since(t0)
	p.wall = time.Since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	p.driverCPU = selfCPU() - dcpu0
	p.serverCPU = cpu1 - cpu0
	p.rounds = s1.Round - s0.Round
	if p.final, err = c.snapshot(cl); err != nil {
		return nil, err
	}
	if p.series, err = c.prom(cl); err != nil {
		return nil, err
	}
	return p, nil
}

// closedLoop sends the next batch on each connection as soon as the
// previous reply arrived, until the deadline.
func (w httpWorkload) closedLoop(p *phase, c *child, cl *http.Client, bodies [][]byte, deadline time.Time) {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for range w.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var plain, inline []time.Duration
			var errs []error
			var sent int64
			for time.Now().Before(deadline) {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				t0 := time.Now()
				n, rounds, err := c.post(cl, bodies[k%len(bodies)])
				if d := time.Since(t0); rounds > 0 {
					inline = append(inline, d)
				} else {
					plain = append(plain, d)
				}
				sent += n
				if err != nil {
					errs = append(errs, err)
				}
			}
			mu.Lock()
			p.lat = append(append(p.lat, plain...), inline...)
			p.plainLat = append(p.plainLat, plain...)
			p.roundLat = append(p.roundLat, inline...)
			p.errs = append(p.errs, errs...)
			p.sent += sent
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.batches = next
}

// openLoop releases batch k at start + k·interval whether or not earlier
// requests finished; each request's lag is measured from its due time, so
// a stall shows in every request it delays.
func (w httpWorkload) openLoop(p *phase, c *child, cl *http.Client, bodies [][]byte, start time.Time) {
	type job struct {
		body []byte
		due  time.Time
	}
	queue := make(chan job, len(bodies)) // sized to the number of sends: the generator never blocks
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range w.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				n, _, err := c.post(cl, j.body)
				lag := time.Since(j.due)
				mu.Lock()
				p.lat = append(p.lat, lag)
				p.sent += n
				if err != nil {
					p.errs = append(p.errs, err)
				}
				mu.Unlock()
			}
		}()
	}
	iv := w.interval()
	p.late = make([]time.Duration, 0, len(bodies))
	for k, b := range bodies {
		due := start.Add(time.Duration(k) * iv)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.late = append(p.late, time.Since(due))
		queue <- job{body: b, due: due}
	}
	close(queue)
	wg.Wait()
	p.batches = len(bodies)
}

// checkServer runs the correctness checks against the live server after
// a phase: every sent event was applied, none was rejected, no full
// recount ran, and max-avg re-enters the Theorem 3 bound within the
// round budget.
func (w httpWorkload) checkServer(r *run, c *child, cl *http.Client, p *phase) {
	for _, err := range p.errs {
		r.op(err)
	}
	r.attempted += int64(p.batches - len(p.errs))
	s := p.final
	r.check(s.Pending == 0, "%d events still queued after the drain", s.Pending)
	r.check(s.Events == p.sent, "events applied %d != events sent %d", s.Events, p.sent)
	r.check(p.series["engine_events_rejected_total"] == 0, "server rejected %v events", p.series["engine_events_rejected_total"])
	r.check(s.FullAudits == 0, "%d full conservation recounts ran", s.FullAudits)
	const chunk = 50
	stepped := 0
	for s.MaxAvg > s.Bound && stepped < budget {
		if _, err := c.call(cl, http.MethodPost, "/step?rounds="+strconv.Itoa(chunk), nil); err != nil {
			r.op(err)
			return
		}
		stepped += chunk
		var err error
		if s, err = c.snapshot(cl); err != nil {
			r.op(err)
			return
		}
	}
	r.check(s.MaxAvg <= s.Bound, "max-avg %.3f did not re-enter the Theorem 3 bound %.0f within %d rounds", s.MaxAvg, s.Bound, stepped)
}

// checkLog replays the stopped server's write-ahead log with lbreplay
// from its oldest snapshot; it must verify every round marker and land on
// the server's final load.
func checkLog(r *run, c *child, p *phase) {
	out, err := exec.Command(filepath.Join(r.bin, "lbreplay"), "-wal-dir", c.walDir, "-from", "oldest").Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("lbreplay: %v: %s", err, tail(ee.Stderr))
		}
		r.op(err)
		return
	}
	var sum struct {
		SnapshotRound   int64 `json:"snapshot_round"`
		CommittedEvents int   `json:"committed_events"`
		RealTotal       int64 `json:"real_total"`
	}
	if err := json.Unmarshal(out, &sum); err != nil {
		r.op(fmt.Errorf("decode lbreplay summary: %w", err))
		return
	}
	r.check(sum.RealTotal == p.final.RealTotal, "lbreplay real total %d != server %d", sum.RealTotal, p.final.RealTotal)
	if sum.SnapshotRound == 0 {
		r.check(int64(sum.CommittedEvents) == p.sent, "lbreplay committed events %d != events sent %d", sum.CommittedEvents, p.sent)
	}
}

func newClient(conns int) *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

// setUp starts lbserve `times` times, each on a fresh log directory, and
// keeps the last one; it returns the median time from exec until
// /healthz answers.
func (w httpWorkload) setUp(r *run, times int) (*child, float64, error) {
	var c *child
	took := make([]float64, 0, times)
	for i := 0; i < times; i++ {
		if c != nil {
			if err := c.stop(); err != nil {
				return nil, 0, err
			}
			c = nil
		}
		dir := ""
		if w.wal {
			dir = filepath.Join(r.work, "wal-"+strconv.Itoa(i))
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		nc, err := w.launch(r, dir)
		if err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
		c = nc
	}
	return c, median(took), nil
}

func (w httpWorkload) e2e(r *run) (map[string]float64, error) {
	bodies, err := w.inputs(r.seed, r.seconds)
	if err != nil {
		return nil, err
	}
	c, setup, err := w.setUp(r, starts)
	if err != nil {
		return nil, err
	}
	defer c.close()
	cl := newClient(w.conns)
	defer cl.CloseIdleConnections()
	p, err := w.measure(c, cl, bodies, r.seconds)
	if err != nil {
		return nil, err
	}
	w.checkServer(r, c, cl, p)
	rss, err := vmHWM(c.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	r.op(c.stop())
	if w.wal {
		checkLog(r, c, p)
	}
	eventsSpan, roundsSpan := p.wall, p.window
	if w.rate == 0 {
		// A closed loop's rates are taken at the median time of each kind
		// of request, with and without an inline round: a slow spell of
		// the host stretches some requests of a run, and the median of
		// each kind leaves them out where the total time would not.
		roundsSpan = medianSpan(p.plainLat, p.roundLat)
		eventsSpan = roundsSpan + p.drain
	}
	return map[string]float64{
		"events_per_s":   float64(p.final.Events) / eventsSpan.Seconds(),
		"rounds_per_s":   float64(p.rounds) / roundsSpan.Seconds(),
		"latency_p50_ms": ms(quantile(p.lat, 0.50)),
		"setup_s":        setup,
		"rss_mb":         rss,
	}, nil
}

// timedWAL wraps the write-ahead log writer to time its appends; it is
// attached through the engine's public WALSink hook.
type timedWAL struct {
	w       *wal.Writer
	appends int64
	append  time.Duration
	rounds  []time.Duration
}

func (t *timedWAL) AppendEvent(ev *wire.Event) error {
	t0 := time.Now()
	err := t.w.AppendEvent(ev)
	t.append += time.Since(t0)
	t.appends++
	return err
}

func (t *timedWAL) AppendRound(m wal.RoundMark) error {
	t0 := time.Now()
	err := t.w.AppendRound(m)
	t.rounds = append(t.rounds, time.Since(t0))
	return err
}

func (t *timedWAL) WriteSnapshot(round int64, state []byte) error {
	return t.w.WriteSnapshot(round, state)
}

// traced runs half the duration over HTTP, then replays exactly the
// batches that phase sent in-process through the handler's calls, and
// attributes the server's cost to layers.
func (w httpWorkload) traced(r *run) (map[string]float64, error) {
	half := r.seconds / 2
	bodies, err := w.inputs(r.seed, half)
	if err != nil {
		return nil, err
	}
	c, _, err := w.setUp(r, 1)
	if err != nil {
		return nil, err
	}
	defer c.close()
	cl := newClient(w.conns)
	defer cl.CloseIdleConnections()
	p, err := w.measure(c, cl, bodies, half)
	if err != nil {
		return nil, err
	}
	w.checkServer(r, c, cl, p)
	r.op(c.stop())
	if w.wal {
		checkLog(r, c, p)
	}

	reg := obs.NewRegistry()
	eng, err := newTorusEngine(r.seed, 4096, reg)
	if err != nil {
		return nil, err
	}
	var tw *timedWAL
	if w.wal {
		ww, err := wal.Create(wal.Options{Dir: filepath.Join(r.work, "wal-replay"), Registry: reg})
		if err != nil {
			eng.Close()
			return nil, err
		}
		defer ww.Close()
		tw = &timedWAL{w: ww}
		if err := eng.AttachWAL(tw, 0); err != nil {
			eng.Close()
			return nil, err
		}
	}
	t, err := newTracer(eng, reg, pendingCap)
	if err != nil {
		eng.Close()
		return nil, err
	}
	cpu0 := selfCPU()
	var lanes []*lane
	if w.rate > 0 {
		lanes = t.replayPaced(bodies[:p.batches], w.interval(), w.clock)
	} else {
		lanes = t.replayClosed(bodies, p.batches, w.conns)
	}
	replayCPU := selfCPU() - cpu0
	t.drain()

	out := map[string]float64{}
	var state []byte
	err = t.sv.Do(func(e *engine.Engine) error {
		for _, err := range t.errs {
			r.op(err)
		}
		if err := layerMetrics(out, lanes, t); err != nil {
			return err
		}
		checkEngine(r, e, reg, p.sent, budget)
		r.check(e.Topology().Connected(), "the replayed topology is disconnected")
		state = e.EncodeState()
		e.Close()
		return nil
	})
	if err != nil {
		return nil, err
	}
	series, err := scrape(reg)
	if err != nil {
		return nil, err
	}
	releaseMemory()
	if err := poolRounds(r, state, r.seconds/20, out); err != nil {
		return nil, err
	}
	events := float64(max(p.sent, 1))
	out["latency_mean_ms"] = ms(mean(p.lat))
	out["latency_p99_ms"] = ms(quantile(p.lat, 0.99))
	out["server.cpu_us_per_event"] = us(p.serverCPU) / events
	out["http.residual_share"] = 1 - replayCPU.Seconds()/p.serverCPU.Seconds()
	out["driver.late_p99_ms"] = ms(quantile(p.late, 0.99))
	out["driver.cpu_s"] = p.driverCPU.Seconds()
	out["engine.rounds"] = p.series["engine_rounds_total"]
	out["engine.events_applied"] = float64(p.final.Events)
	out["engine.inline_rounds"] = p.series["engine_ingest_inline_rounds_total"]
	out["engine.topology_events"] = topologyEvents(p.series)
	out["wal.append_ns_per_event"], out["wal.round_p99_us"], out["wal.bytes_per_event"] = 0, 0, 0
	if tw != nil {
		out["wal.append_ns_per_event"] = float64(tw.append.Nanoseconds()) / float64(max(tw.appends, 1))
		out["wal.round_p99_us"] = us(quantile(tw.rounds, 0.99))
		out["wal.bytes_per_event"] = series["wal_bytes_total"] / float64(max(tw.appends, 1))
	}
	return out, nil
}
