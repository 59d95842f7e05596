package engine

import (
	"encoding/json"

	"repro/internal/wire"
)

// decodeWire decodes one NDJSON line into req, which must be zero.
//
// Lines in the canonical form the repository's encoders emit are scanned
// directly: an object of lowercase, escape-free keys of wire.Event, each
// at most once, whose values are a known kind name, integer literals,
// [int,…] or [[int,int],…] arrays, separated by JSON whitespace and
// followed by nothing else. Any other line — escapes, unknown or
// case-folded keys, null, floats, duplicate keys, malformed JSON,
// trailing data — goes through one json.Unmarshal, so every accepted
// value and every error is exactly encoding/json's. The fast path
// allocates only the slices the event carries.
func decodeWire(line []byte, req *wire.Event) error {
	s := wireScanner{b: line}
	if s.event(req) {
		return nil
	}
	// A separate variable, so only this path pays for Unmarshal's escape.
	slow := new(wire.Event)
	err := json.Unmarshal(line, slow)
	*req = *slow
	return err
}

// wireScanner reads the canonical wire.Event form. Every method returns
// false on input it does not recognise; the caller then falls back to
// encoding/json.
type wireScanner struct {
	b []byte
	i int
}

// Field bits for duplicate-key detection.
const (
	fieldKind = 1 << iota
	fieldAt
	fieldNode
	fieldTokens
	fieldWeight
	fieldWeights
	fieldCount
	fieldSpeed
	fieldPeers
	fieldAdd
	fieldRemove
)

// event scans one whole line into req.
func (s *wireScanner) event(req *wire.Event) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return s.end()
	}
	var seen int
	for {
		key, ok := s.word()
		if !ok || !s.lit(':') {
			return false
		}
		var f int
		switch string(key) {
		case "kind":
			f = fieldKind
			ok = s.kind(req)
		case "at":
			f = fieldAt
			req.At, ok = s.int64()
		case "node":
			f = fieldNode
			req.Node, ok = s.int()
		case "tokens":
			f = fieldTokens
			req.Tokens, ok = s.int()
		case "weight":
			f = fieldWeight
			req.Weight, ok = s.int64()
		case "weights":
			f = fieldWeights
			req.Weights, ok = list(s, s.int64)
		case "count":
			f = fieldCount
			req.Count, ok = s.int()
		case "speed":
			f = fieldSpeed
			req.Speed, ok = s.int64()
		case "peers":
			f = fieldPeers
			req.Peers, ok = list(s, s.int)
		case "add":
			f = fieldAdd
			req.Add, ok = list(s, s.pair)
		case "remove":
			f = fieldRemove
			req.Remove, ok = list(s, s.pair)
		default:
			return false
		}
		if !ok || seen&f != 0 {
			return false
		}
		seen |= f
		if s.lit(',') {
			continue
		}
		return s.lit('}') && s.end()
	}
}

// ws skips JSON whitespace.
func (s *wireScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes the byte c after optional whitespace.
func (s *wireScanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *wireScanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// word reads a string of lowercase letters and '-' and returns its
// content, which aliases the line.
func (s *wireScanner) word() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		c := s.b[j]
		if c == '"' {
			w := s.b[s.i:j]
			s.i = j + 1
			return w, true
		}
		if (c < 'a' || c > 'z') && c != '-' {
			return nil, false
		}
	}
	return nil, false
}

// kind reads one of the event kind names; req.Kind is set to the
// constant, so the line is not retained.
func (s *wireScanner) kind(req *wire.Event) bool {
	w, ok := s.word()
	if !ok {
		return false
	}
	for k := KindTaskArrival; k <= KindEdgeChange; k++ {
		if name := k.String(); string(w) == name {
			req.Kind = name
			return true
		}
	}
	return false
}

// int64 reads an integer literal of at most 18 digits, so it cannot
// overflow; longer literals are left to encoding/json's range checks.
func (s *wireScanner) int64() (int64, bool) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	if n := s.i - start; n == 0 || n > 18 || (n > 1 && s.b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// int reads an integer literal that fits an int.
func (s *wireScanner) int() (int, bool) {
	v, ok := s.int64()
	return int(v), ok && int64(int(v)) == v
}

// list reads [v,…], each v by elem. An empty array decodes to an empty,
// non-nil slice, as encoding/json does.
func list[T any](s *wireScanner, elem func() (T, bool)) ([]T, bool) {
	if !s.lit('[') {
		return nil, false
	}
	out := make([]T, 0)
	if s.lit(']') {
		return out, true
	}
	for {
		v, ok := elem()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if !s.lit(',') {
			return out, s.lit(']')
		}
	}
}

// pair reads [int,int]. Inner arrays of any other length are left to
// encoding/json, which truncates or zero-fills them.
func (s *wireScanner) pair() ([2]int, bool) {
	var p [2]int
	var ok bool
	if !s.lit('[') {
		return p, false
	}
	if p[0], ok = s.int(); !ok || !s.lit(',') {
		return p, false
	}
	p[1], ok = s.int()
	return p, ok && s.lit(']')
}
