package server

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
)

// The two bulk bodies — a BFS distance vector and a degree distribution,
// one entry per vertex or per degree — are appended field by field in
// struct order rather than reflected over by encoding/json, so a query pays
// for its answer's bytes and not for reflection. Each appender writes
// exactly json.Marshal's bytes (FuzzAppendJSON) and reports false where
// json.Marshal fails, a NaN or ±Inf float, so that writeJSON lets
// json.Marshal produce the error body. A MarshalJSON method would not help:
// encoding/json re-scans what it returns.

func (r *BFSResponse) appendJSON(b []byte) ([]byte, bool) {
	// Distances run to a few digits: room for three bytes an entry, the
	// fields and writeJSON's newline.
	b = slices.Grow(b, 96+len(r.Graph)+len(r.Spec)+3*len(r.Dist))
	b = appendGraphSpec(b, r.Graph, r.Spec)
	b = append(b, `,"root":`...)
	b = strconv.AppendInt(b, int64(r.Root), 10)
	b = append(b, `,"reached":`...)
	b = strconv.AppendInt(b, int64(r.Reached), 10)
	b = append(b, `,"ecc":`...)
	b = strconv.AppendInt(b, int64(r.Ecc), 10)
	b = append(b, `,"dist":`...)
	if r.Dist == nil {
		b = append(b, "null"...)
	} else {
		// Each entry is written with a trailing comma; the last one is cut.
		b = append(b, '[')
		for _, d := range r.Dist {
			switch {
			case uint32(d) < 10:
				b = append(b, byte('0'+d), ',')
			case d == -1: // unreached
				b = append(b, '-', '1', ',')
			default:
				b = append(strconv.AppendInt(b, int64(d), 10), ',')
			}
		}
		if len(r.Dist) > 0 {
			b = b[:len(b)-1]
		}
		b = append(b, ']')
	}
	return append(b, '}'), true
}

func (r *DegreesResponse) appendJSON(b []byte) ([]byte, bool) {
	// Most entries are a bare 0; the rest run to 20-odd bytes.
	b = slices.Grow(b, 128+len(r.Graph)+len(r.Spec)+8*len(r.Dist))
	b = appendGraphSpec(b, r.Graph, r.Spec)
	b = append(b, `,"dist":`...)
	if r.Dist == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for _, x := range r.Dist {
			if math.Float64bits(x) == 0 { // most degrees no vertex has
				b = append(b, '0', ',')
				continue
			}
			var ok bool
			if b, ok = appendJSONFloat(b, x); !ok {
				return b, false
			}
			b = append(b, ',')
		}
		if len(r.Dist) > 0 {
			b = b[:len(b)-1]
		}
		b = append(b, ']')
	}
	b = append(b, `,"slope":`...)
	b, ok := appendJSONFloat(b, r.Slope)
	if !ok {
		return b, false
	}
	b = append(b, `,"r2":`...)
	if b, ok = appendJSONFloat(b, r.R2); !ok {
		return b, false
	}
	return append(b, '}'), true
}

// appendGraphSpec opens a body with the fields both bulk bodies start with:
// "graph", and "spec" unless it is empty (omitempty).
func appendGraphSpec(b []byte, graph, spec string) []byte {
	b = append(b, `{"graph":`...)
	b = appendJSONString(b, graph)
	if spec != "" {
		b = append(b, `,"spec":`...)
		b = appendJSONString(b, spec)
	}
	return b
}

// appendJSONString appends s as json.Marshal quotes it. A name or spec of
// plain printable ASCII needs no escape and is copied; anything else — a
// quote, a backslash, HTML's <>&, a control byte, non-ASCII — goes through
// encoding/json itself, so its escaping rules live in one place.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends x by encoding/json's rule for a float64: the
// shortest 'f' form, or 'e' when |x| < 1e-6 or |x| >= 1e21 with a
// two-digit negative exponent cut to one (e-07 → e-7). It reports false
// for NaN and ±Inf, which JSON cannot hold.
func appendJSONFloat(b []byte, x float64) ([]byte, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}
