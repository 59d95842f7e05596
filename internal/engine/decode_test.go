package engine

import (
	"testing"

	"repro/internal/wire"
)

// TestDecodeWireFastPath pins which lines the canonical scanner takes on
// its own and which it leaves to encoding/json. FuzzParseEventLine checks
// that both paths decode alike; this test keeps the fast path from
// silently degrading into "always fall back".
func TestDecodeWireFastPath(t *testing.T) {
	canonical := []string{
		`{"kind":"arrival","node":3,"tokens":5}`,
		`{"kind":"arrival","at":40,"node":0,"tokens":2,"weight":7}`,
		`{"kind":"arrival","node":4,"weights":[3,1,2]}`,
		`{"kind":"completion","node":1,"count":4}`,
		`{"kind":"join","speed":2,"peers":[0,1]}`,
		`{"kind":"leave","node":9}`,
		`{"kind":"edge-change","add":[[0,5]],"remove":[[1,2],[3,4]]}`,
		`{"weights":[],"peers":[],"add":[]}`,
		"\t{ \"kind\" : \"leave\" ,\r\n\"node\":-0 } \n",
		`{}`,
	}
	for _, line := range canonical {
		var req wire.Event
		s := wireScanner{b: []byte(line)}
		if !s.event(&req) {
			t.Errorf("canonical line %q left to encoding/json", line)
		}
	}
	fallback := []string{
		`{"kind":"le\u0061ve","node":1}`,
		`{"k\u0069nd":"leave","node":1}`,
		`{"Kind":"leave","node":1}`,
		`{"kind":"leave","node":1,"node":2}`,
		`{"kind":"leave","node":null}`,
		`{"kind":"arrival","node":1,"tokens":2.0}`,
		`{"kind":"arrival","node":1,"tokens":1e1}`,
		`{"kind":"arrival","node":1,"tokens":0123}`,
		`{"kind":"arrival","node":1,"tokens":1234567890123456789}`,
		`{"kind":"arrival","node":1,"tokens":5,"extra":1}`,
		`{"kind":"reboot"}`,
		`{"kind":"edge-change","add":[[0,5,6]]}`,
		`{"kind":"leave","node":1} ]]]}`,
		`{"kind":"leave","node":1}}`,
		`{"kind":"leave","node":1,}`,
		`[]`,
		``,
	}
	for _, line := range fallback {
		var req wire.Event
		s := wireScanner{b: []byte(line)}
		if s.event(&req) {
			t.Errorf("non-canonical line %q decoded without encoding/json", line)
		}
	}
}

// TestParseEventLineAllocs pins the per-line allocations of the canonical
// path: nothing for a completion, only the task slice for an arrival.
func TestParseEventLineAllocs(t *testing.T) {
	for _, tc := range []struct {
		line   string
		allocs float64
	}{
		{`{"kind":"completion","node":17,"count":4}`, 0},
		{`{"kind":"leave","at":3,"node":17}`, 0},
		{`{"kind":"arrival","node":17,"tokens":4}`, 1},
	} {
		line := []byte(tc.line)
		got := testing.AllocsPerRun(200, func() {
			if _, err := ParseEventLine(line); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.allocs {
			t.Errorf("ParseEventLine(%s): %v allocs per line, want %v", tc.line, got, tc.allocs)
		}
	}
}
