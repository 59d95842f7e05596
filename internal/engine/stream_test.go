package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/wire"
)

// startStreamServer builds a live server with tight stream limits so a
// modest test stream exercises batching, inline stepping and
// backpressure the way a large production stream would.
func startStreamServer(t *testing.T, lim StreamLimits) (*httptest.Server, *Server, *Engine) {
	t.Helper()
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, Config{Graph: g, Speeds: load.UniformSpeeds(g.N())})
	sv := NewServer(eng).WithStreamLimits(lim)
	sv.drainPoll = 200 * time.Microsecond
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return ts, sv, eng
}

// ndjson renders events as one NDJSON body.
func ndjson(t *testing.T, events []wire.Event) []byte {
	t.Helper()
	buf := &bytes.Buffer{}
	enc := json.NewEncoder(buf)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func pumpEvents(n int) []wire.Event {
	events := make([]wire.Event, 0, n)
	for i := 0; len(events) < n; i++ {
		events = append(events, wire.Event{Kind: "arrival", Node: i % 36, Tokens: 4})
		if len(events) < n {
			events = append(events, wire.Event{Kind: "completion", Node: (i + 7) % 36, Count: 4})
		}
	}
	return events
}

type streamResp struct {
	Error   string `json:"error"`
	Lines   int    `json:"lines"`
	Events  int64  `json:"events"`
	Rounds  int64  `json:"rounds"`
	Pending int    `json:"pending"`
	Round   int64  `json:"round"`
}

func postStream(t *testing.T, url string, body io.Reader) (int, streamResp) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out streamResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestStreamEndToEnd pushes a stream large enough to overflow the
// pending bound many times: the handler must keep the queue bounded by
// stepping inline, and the ledger must hold without a single full
// recount.
func TestStreamEndToEnd(t *testing.T) {
	ts, sv, _ := startStreamServer(t, StreamLimits{MaxBatch: 8, MaxPending: 16})

	events := pumpEvents(1000)
	status, out := postStream(t, ts.URL+"/events/stream", bytes.NewReader(ndjson(t, events)))
	if status != http.StatusOK {
		t.Fatalf("stream status %d: %+v", status, out)
	}
	if out.Lines != 1000 || out.Events != 1000 {
		t.Fatalf("stream consumed %d lines / %d events, want 1000/1000", out.Lines, out.Events)
	}
	if out.Rounds == 0 {
		t.Fatal("step=auto never stepped despite MaxPending=16 and 1000 events")
	}
	if out.Pending > 16+8 {
		t.Fatalf("stream left %d events pending, bound is 16 (+ one batch)", out.Pending)
	}

	var audited error
	var snap Snapshot
	err := sv.Do(func(e *Engine) error {
		snap = e.Snapshot(false) // before AuditFull bumps the counter
		audited = e.AuditFull()
		return nil
	})
	if err != nil || audited != nil {
		t.Fatalf("post-stream audit: do=%v audit=%v", err, audited)
	}
	// In default (ledger) mode the stream must never need a full recount;
	// the ENGINE_DEEP_AUDIT leg forces one per event by design.
	if os.Getenv("ENGINE_DEEP_AUDIT") != "1" && snap.FullAudits != 0 {
		t.Fatalf("stream tripped %d full audits, ledger mode should need none", snap.FullAudits)
	}
	if snap.Events == 0 {
		t.Fatal("no events were applied by the inline steps")
	}
}

// TestStreamMalformedMidStream pins the partial-progress contract: a
// garbage line fails the stream with 400 naming the line, but the valid
// prefix before it is flushed, applied, and ledger-consistent.
func TestStreamMalformedMidStream(t *testing.T) {
	ts, sv, _ := startStreamServer(t, StreamLimits{MaxBatch: 4, MaxPending: 4})

	body := ndjson(t, pumpEvents(10))
	body = append(body, []byte("{\"kind\": \"arrival\", NOT JSON}\n")...)
	body = append(body, ndjson(t, pumpEvents(6))...)

	status, out := postStream(t, ts.URL+"/events/stream", bytes.NewReader(body))
	if status != http.StatusBadRequest {
		t.Fatalf("malformed stream status %d: %+v", status, out)
	}
	if !strings.Contains(out.Error, "line 11") {
		t.Fatalf("error %q does not name line 11", out.Error)
	}
	if out.Events != 10 {
		t.Fatalf("stream kept %d events, want the 10-line valid prefix", out.Events)
	}

	var applied int64
	var audited error
	if err := sv.Do(func(e *Engine) error {
		for e.PendingEvents() > 0 {
			if err := e.Step(); err != nil {
				return err
			}
		}
		applied = e.EventsApplied()
		audited = e.AuditFull()
		return nil
	}); err != nil || audited != nil {
		t.Fatalf("draining after failed stream: do=%v audit=%v", err, audited)
	}
	if applied != 10 {
		t.Fatalf("engine applied %d events, want exactly the valid prefix of 10", applied)
	}
}

// TestStreamRejectedEventMidBatch covers a line that parses but carries
// an invalid event: the decode error path and the schedule error path
// must both leave a consistent engine.
func TestStreamRejectedEventMidBatch(t *testing.T) {
	ts, sv, _ := startStreamServer(t, StreamLimits{MaxBatch: 4, MaxPending: 4})

	body := ndjson(t, pumpEvents(4))
	body = append(body, []byte(`{"kind":"arrival","node":0,"tokens":0}`+"\n")...)
	status, out := postStream(t, ts.URL+"/events/stream", bytes.NewReader(body))
	if status != http.StatusBadRequest {
		t.Fatalf("status %d: %+v", status, out)
	}
	if !strings.Contains(out.Error, "line 5") || !strings.Contains(out.Error, "tokens") {
		t.Fatalf("error %q should name line 5 and the tokens rule", out.Error)
	}
	if out.Events != 4 {
		t.Fatalf("kept %d events, want 4", out.Events)
	}
	var audited error
	if err := sv.Do(func(e *Engine) error { audited = e.AuditFull(); return nil }); err != nil || audited != nil {
		t.Fatalf("audit after rejected event: do=%v audit=%v", err, audited)
	}
}

// TestStreamOversizedLine bounds memory per line: a line beyond
// MaxLineBytes fails the stream with 400 instead of buffering it.
func TestStreamOversizedLine(t *testing.T) {
	ts, _, _ := startStreamServer(t, StreamLimits{MaxLineBytes: 128})

	big := fmt.Sprintf(`{"kind":"arrival","node":0,"tokens":1,"peers":[%s1]}`,
		strings.Repeat("1,", 200))
	body := append(ndjson(t, pumpEvents(2)), []byte(big+"\n")...)
	status, out := postStream(t, ts.URL+"/events/stream", bytes.NewReader(body))
	if status != http.StatusBadRequest {
		t.Fatalf("oversized line status %d: %+v", status, out)
	}
	if !strings.Contains(out.Error, "exceeds 128 bytes") {
		t.Fatalf("error %q should report the line limit", out.Error)
	}
	if out.Events != 2 {
		t.Fatalf("kept %d events, want the 2-line prefix", out.Events)
	}
}

// TestStreamStepOffBackpressure pins the step=off contract: the handler
// never steps the engine itself; once the queue reaches MaxPending it
// stops reading until an external driver drains, then finishes.
func TestStreamStepOffBackpressure(t *testing.T) {
	ts, sv, _ := startStreamServer(t, StreamLimits{MaxBatch: 16, MaxPending: 8})

	body := ndjson(t, pumpEvents(100))
	type result struct {
		status int
		out    streamResp
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/events/stream?step=off", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			done <- result{status: -1}
			return
		}
		defer resp.Body.Close()
		var out streamResp
		_ = json.NewDecoder(resp.Body).Decode(&out)
		done <- result{status: resp.StatusCode, out: out}
	}()

	// With nobody stepping, the stream must stall at the pending bound
	// rather than complete: the queue is the only buffer it may fill.
	select {
	case r := <-done:
		t.Fatalf("step=off stream completed without an external driver: %+v", r)
	case <-time.After(300 * time.Millisecond):
	}

	// Drain from outside, as lbserve's -rate loop would.
	deadline := time.After(10 * time.Second)
	for {
		if err := sv.Do(func(e *Engine) error { return e.Step() }); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-done:
			if r.status != http.StatusOK {
				t.Fatalf("step=off stream status %d: %+v", r.status, r.out)
			}
			if r.out.Events != 100 {
				t.Fatalf("delivered %d events, want 100", r.out.Events)
			}
			if r.out.Rounds != 0 {
				t.Fatalf("step=off handler stepped %d rounds itself", r.out.Rounds)
			}
			return
		case <-deadline:
			t.Fatal("stream did not finish while being drained externally")
		case <-time.After(time.Millisecond):
		}
	}
}

// countingLimiter records admission requests; failLimiter refuses them.
type countingLimiter struct {
	calls  atomic.Int64
	admits atomic.Int64
}

func (l *countingLimiter) Wait(ctx context.Context, n int) error {
	l.calls.Add(1)
	l.admits.Add(int64(n))
	return nil
}

type failLimiter struct{}

func (failLimiter) Wait(ctx context.Context, n int) error {
	return errors.New("admission refused")
}

func TestStreamLimiter(t *testing.T) {
	ts, sv, _ := startStreamServer(t, StreamLimits{MaxBatch: 10})
	lim := &countingLimiter{}
	sv.WithIngestLimiter(lim)

	status, out := postStream(t, ts.URL+"/events/stream", bytes.NewReader(ndjson(t, pumpEvents(95))))
	if status != http.StatusOK {
		t.Fatalf("status %d: %+v", status, out)
	}
	if got := lim.admits.Load(); got != 95 {
		t.Fatalf("limiter admitted %d events, want 95", got)
	}
	if got := lim.calls.Load(); got != 10 {
		t.Fatalf("limiter saw %d batches, want 10 (9 full + remainder)", got)
	}

	sv.WithIngestLimiter(failLimiter{})
	status, out = postStream(t, ts.URL+"/events/stream", bytes.NewReader(ndjson(t, pumpEvents(5))))
	if status != http.StatusBadRequest {
		t.Fatalf("refused stream status %d: %+v", status, out)
	}
	if !strings.Contains(out.Error, "admission refused") {
		t.Fatalf("error %q should surface the limiter failure", out.Error)
	}
}

func TestStreamRequestValidation(t *testing.T) {
	ts, _, _ := startStreamServer(t, StreamLimits{})

	resp, err := http.Get(ts.URL + "/events/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}

	status, out := postStream(t, ts.URL+"/events/stream?step=bogus", strings.NewReader(""))
	if status != http.StatusBadRequest || !strings.Contains(out.Error, "step mode") {
		t.Fatalf("bad step mode: status %d, %+v", status, out)
	}

	// An empty stream is a valid no-op.
	status, out = postStream(t, ts.URL+"/events/stream", strings.NewReader("\n\n"))
	if status != http.StatusOK || out.Events != 0 {
		t.Fatalf("blank stream: status %d, %+v", status, out)
	}
}

func TestParseEventLine(t *testing.T) {
	valid := []struct {
		name string
		line string
		kind Kind
	}{
		{"arrival", `{"kind":"arrival","node":3,"tokens":5}`, KindTaskArrival},
		{"weighted arrival", `{"kind":"arrival","node":3,"tokens":2,"weight":7}`, KindTaskArrival},
		{"completion", `{"kind":"completion","node":1,"count":4}`, KindTaskCompletion},
		{"join", `{"kind":"join","speed":2,"peers":[0,1]}`, KindNodeJoin},
		{"leave", `{"kind":"leave","node":9}`, KindNodeLeave},
		{"edge add", `{"kind":"edge-change","add":[[0,5]]}`, KindEdgeChange},
		{"edge remove", `{"kind":"edge-change","remove":[[0,1]]}`, KindEdgeChange},
		{"deferred", `{"kind":"arrival","at":40,"node":0,"tokens":1}`, KindTaskArrival},
	}
	for _, tc := range valid {
		ev, err := ParseEventLine([]byte(tc.line))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if ev.Kind != tc.kind {
			t.Errorf("%s: kind %v, want %v", tc.name, ev.Kind, tc.kind)
		}
	}
	ev, err := ParseEventLine([]byte(`{"kind":"arrival","node":3,"tokens":2,"weight":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Tasks) != 2 || ev.Tasks[0].Weight != 7 {
		t.Fatalf("weighted arrival expanded to %+v", ev.Tasks)
	}

	invalid := []struct {
		name string
		line string
	}{
		{"garbage", `{{{`},
		{"trailing data", `{"kind":"leave","node":1} {"kind":"leave","node":2}`},
		{"trailing brace", `{"kind":"leave","node":1} }`},
		{"trailing bracket", `{"kind":"leave","node":1}]`},
		{"trailing brackets", `{"kind":"leave","node":1} ]]]}`},
		{"unknown kind", `{"kind":"reboot"}`},
		{"zero tokens", `{"kind":"arrival","node":0,"tokens":0}`},
		{"negative tokens", `{"kind":"arrival","node":0,"tokens":-4}`},
		{"tokens over cap", fmt.Sprintf(`{"kind":"arrival","node":0,"tokens":%d}`, maxArrivalTokens+1)},
		{"negative weight", `{"kind":"arrival","node":0,"tokens":1,"weight":-2}`},
		{"zero count", `{"kind":"completion","node":0,"count":0}`},
		{"empty edge change", `{"kind":"edge-change"}`},
		{"no kind", `{"node":4}`},
	}
	for _, tc := range invalid {
		if _, err := ParseEventLine([]byte(tc.line)); err == nil {
			t.Errorf("%s: ParseEventLine accepted %s", tc.name, tc.line)
		}
	}
}

// FuzzParseEventLine fuzzes the NDJSON decoder: any input must either
// fail cleanly or produce a structurally valid event — no panics, no
// dummy tasks, no unbounded allocations from a short line. It is also a
// differential oracle against encoding/json: the decoded wire value, the
// accept/reject decision, the decode error and the FromWire result must
// all equal those of json.Unmarshal into a wire.Event.
func FuzzParseEventLine(f *testing.F) {
	f.Add([]byte(`{"kind":"arrival","node":3,"tokens":5}`))
	f.Add([]byte(`{"kind":"arrival","node":0,"tokens":2,"weight":9,"at":17}`))
	f.Add([]byte(`{"kind":"arrival","node":4,"weights":[3,1,2]}`))
	f.Add([]byte(`{"kind":"arrival","node":4,"tokens":2,"weights":[5,5]}`))
	f.Add([]byte(`{"kind":"completion","node":1,"count":4}`))
	f.Add([]byte(`{"kind":"join","speed":2,"peers":[0,1,2]}`))
	f.Add([]byte(`{"kind":"join","at":-3,"peers":[]}`))
	f.Add([]byte(`{"kind":"leave","node":9}`))
	f.Add([]byte(`{"kind":"edge-change","add":[[0,5]],"remove":[[1,2]]}`))
	f.Add([]byte(`{"kind":"edge-change","add":[[0,5,7]],"remove":[[1]]}`))
	f.Add([]byte(`{"weights":[]}`))
	f.Add([]byte(`{"add":[],"remove":[]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(" \t{ \"kind\" : \"leave\" ,\r\n\"node\":\t-0 } \n"))
	f.Add([]byte(`{"kind":"le\u0061ve","node":1}`))
	f.Add([]byte(`{"k\u0069nd":"leave","node":1}`))
	f.Add([]byte(`{"KIND":"leave","Node":1}`))
	f.Add([]byte(`{"kind":"leave","node":1,"node":2}`))
	f.Add([]byte(`{"kind":"arrival","node":1,"tokens":null}`))
	f.Add([]byte(`{"kind":"arrival","node":1,"tokens":2.0}`))
	f.Add([]byte(`{"kind":"arrival","node":1,"tokens":1e1}`))
	f.Add([]byte(`{"kind":"arrival","node":1,"tokens":01}`))
	f.Add([]byte(`{"kind":"arrival","node":1,"tokens":99999999999999999999}`))
	f.Add([]byte(`{"kind":"arrival","node":1,"tokens":5,"extra":{"a":[1]}}`))
	f.Add([]byte(`{"kind":"leave","node":1} ]]]}`))
	f.Add([]byte(`{"kind":"arrival","tokens":1} trailing`))
	f.Add([]byte(`null`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want wire.Event
		gotErr := decodeWire(line, &got)
		wantErr := json.Unmarshal(line, &want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("decode %q: error %v, encoding/json %v", line, gotErr, wantErr)
		}
		ev, err := ParseEventLine(line)
		if wantErr != nil {
			if err == nil {
				t.Fatalf("ParseEventLine accepted %q, encoding/json rejects it: %v", line, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %q:\n got  %#v\n want %#v", line, got, want)
		}
		wantEv, wantFromErr := FromWire(&want)
		if (err == nil) != (wantFromErr == nil) || (err != nil && err.Error() != wantFromErr.Error()) {
			t.Fatalf("ParseEventLine %q: error %v, FromWire of encoding/json's value %v", line, err, wantFromErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(ev, wantEv) {
			t.Fatalf("ParseEventLine %q:\n got  %#v\n want %#v", line, ev, wantEv)
		}
		switch ev.Kind {
		case KindTaskArrival:
			if len(ev.Tasks) < 1 || len(ev.Tasks) > maxArrivalTokens {
				t.Fatalf("arrival with %d tasks from %q", len(ev.Tasks), line)
			}
			for _, task := range ev.Tasks {
				if task.Weight < 1 {
					t.Fatalf("task weight %d from %q", task.Weight, line)
				}
				if task.Dummy {
					t.Fatalf("dummy task from the wire: %q", line)
				}
			}
		case KindTaskCompletion:
			if ev.Count < 1 {
				t.Fatalf("completion count %d from %q", ev.Count, line)
			}
		case KindNodeJoin, KindNodeLeave:
		case KindEdgeChange:
			if len(ev.AddEdges) == 0 && len(ev.RemoveEdges) == 0 {
				t.Fatalf("empty edge change accepted: %q", line)
			}
		default:
			t.Fatalf("invalid kind %v from %q", ev.Kind, line)
		}
	})
}
