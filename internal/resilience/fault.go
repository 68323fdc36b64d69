package resilience

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// FaultAction is what a matched fault rule does to a request.
type FaultAction int

const (
	// FaultDrop loses the exchange: the client sees a transport error (no
	// response), the server aborts the connection without replying.
	FaultDrop FaultAction = iota
	// FaultDelay holds the request for a fixed duration, then proceeds.
	FaultDelay
	// FaultStatus short-circuits with a synthetic HTTP status and a JSON
	// error body, without reaching the real handler.
	FaultStatus
	// FaultTruncate serves the real response but cuts the body in half
	// mid-stream — the torn-read case retry and decode paths must survive.
	FaultTruncate
)

func (a FaultAction) String() string {
	switch a {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultStatus:
		return "status"
	default:
		return "truncate"
	}
}

// FaultRule matches a subset of requests and applies one action to a
// deterministic subset of the matches. All matcher fields are optional
// substring matches; an empty matcher matches everything.
type FaultRule struct {
	// Path and Host substring-match the request URL; Method matches
	// exactly when non-empty.
	Path   string
	Host   string
	Method string
	// P is the firing probability over matches (default 1). The decision
	// for the n-th match is a pure function of (Seed, n), so a replayed
	// request sequence fires identically.
	P float64
	// Seed keys the probability decisions. Seed 0 is valid.
	Seed uint64
	// After skips the first After matches entirely.
	After int64
	// Times caps how many matches fire (0 = unlimited).
	Times int64

	Action FaultAction
	Status int           // FaultStatus: the synthetic code
	Delay  time.Duration // FaultDelay: how long to hold

	matched atomic.Int64
	fired   atomic.Int64
}

// Fired reports how many requests this rule has acted on.
func (r *FaultRule) Fired() int64 { return r.fired.Load() }

// decide consumes one match slot and reports whether the rule fires on it.
func (r *FaultRule) decide() bool {
	n := r.matched.Add(1) - 1 // 0-based index of this match
	if n < r.After {
		return false
	}
	p := r.P
	if p <= 0 {
		p = 1
	}
	if p < 1 {
		frac := float64(splitmix64(r.Seed^uint64(n))>>11) / float64(1<<53)
		if frac >= p {
			return false
		}
	}
	if r.Times > 0 {
		if r.fired.Add(1) > r.Times {
			r.fired.Add(-1)
			return false
		}
		return true
	}
	r.fired.Add(1)
	return true
}

func (r *FaultRule) matches(method, host, path string) bool {
	if r.Method != "" && !strings.EqualFold(r.Method, method) {
		return false
	}
	if r.Host != "" && !strings.Contains(host, r.Host) {
		return false
	}
	return r.Path == "" || strings.Contains(path, r.Path)
}

// Injector applies a list of fault rules to HTTP traffic, either as a
// client-side RoundTripper (the coordinator's view: sub-requests lost on
// the wire) or as a server-side middleware (the shard's view: requests
// mangled before the handler). The first matching rule that decides to
// fire wins; later rules never see the request.
type Injector struct {
	rules []*FaultRule
}

// NewInjector builds an injector over the given rules.
func NewInjector(rules ...*FaultRule) *Injector { return &Injector{rules: rules} }

// Rules exposes the rule list (for firing-count assertions in tests).
func (in *Injector) Rules() []*FaultRule { return in.rules }

// Fired sums the firing counts across all rules.
func (in *Injector) Fired() int64 {
	var n int64
	for _, r := range in.rules {
		n += r.Fired()
	}
	return n
}

// match returns the first rule that matches and fires, or nil.
func (in *Injector) match(method, host, path string) *FaultRule {
	if in == nil {
		return nil
	}
	for _, r := range in.rules {
		if r.matches(method, host, path) && r.decide() {
			return r
		}
	}
	return nil
}

// errDropped is the transport error a FaultDrop surfaces client-side.
type errDropped struct{ url string }

func (e *errDropped) Error() string { return "fault injection: request to " + e.url + " dropped" }

// truncatedBody yields the first half of the payload and then fails with
// io.ErrUnexpectedEOF, like a connection cut mid-body.
type truncatedBody struct {
	r    io.Reader
	body io.Closer
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (t *truncatedBody) Close() error { return t.body.Close() }

// RoundTripper wraps base (nil = http.DefaultTransport) with the
// injector's rules — the hook tests and the coordinator's chaos drills use
// to lose, delay, fail, or truncate specific sub-requests.
func (in *Injector) RoundTripper(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultTransport{in: in, base: base}
}

type faultTransport struct {
	in   *Injector
	base http.RoundTripper
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := t.in.match(req.Method, req.URL.Host, req.URL.Path)
	if r == nil {
		return t.base.RoundTrip(req)
	}
	switch r.Action {
	case FaultDrop:
		return nil, &errDropped{url: req.URL.String()}
	case FaultDelay:
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(r.Delay):
		}
		return t.base.RoundTrip(req)
	case FaultStatus:
		body := fmt.Sprintf("{\"error\":\"fault injection: status %d\"}", r.Status)
		return &http.Response{
			StatusCode:    r.Status,
			Status:        fmt.Sprintf("%d %s", r.Status, http.StatusText(r.Status)),
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	default: // FaultTruncate
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		half := resp.ContentLength / 2
		if half <= 0 {
			half = 64
		}
		resp.Body = &truncatedBody{r: io.LimitReader(resp.Body, half), body: resp.Body}
		resp.ContentLength = -1
		return resp, nil
	}
}

// Middleware wraps next with the injector's rules server-side — what
// slimgraphd -fault-inject installs. Drop and truncate abort the
// connection via http.ErrAbortHandler, so the client observes a transport
// error, not a well-formed reply.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r := in.match(req.Method, req.Host, req.URL.Path)
		if r == nil {
			next.ServeHTTP(w, req)
			return
		}
		switch r.Action {
		case FaultDrop:
			panic(http.ErrAbortHandler)
		case FaultDelay:
			select {
			case <-req.Context().Done():
				return
			case <-time.After(r.Delay):
			}
			next.ServeHTTP(w, req)
		case FaultStatus:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(r.Status)
			fmt.Fprintf(w, "{\"error\":\"fault injection: status %d\"}", r.Status)
		default: // FaultTruncate: record the real reply, send half, abort.
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, req)
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			body := rec.Body.Bytes()
			_, _ = w.Write(body[:len(body)/2])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
	})
}

// ParseFaultSpec parses the -fault-inject grammar: semicolon-separated
// rules, each a comma-separated list of fields. Matcher fields are
// path=<substr>, host=<substr>, method=<METHOD>; firing fields are
// p=<prob>, seed=<n>, after=<n>, times=<n>; exactly one action field is
// required: drop, truncate, delay=<duration>, or status=<code>.
//
//	path=/bfs,p=0.2,seed=7,status=503;path=compress,times=2,delay=250ms
//
// reads "20% of BFS requests (seeded) answer 503; the first two compress
// calls stall 250ms".
func ParseFaultSpec(spec string) (*Injector, error) {
	var rules []*FaultRule
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		r := &FaultRule{Action: -1}
		setAction := func(a FaultAction) error {
			if r.Action >= 0 {
				return fmt.Errorf("resilience: fault rule %q has more than one action", rs)
			}
			r.Action = a
			return nil
		}
		for _, f := range strings.Split(rs, ",") {
			f = strings.TrimSpace(f)
			key, val, hasVal := strings.Cut(f, "=")
			var err error
			switch key {
			case "path":
				r.Path = val
			case "host":
				r.Host = val
			case "method":
				r.Method = val
			case "p":
				if r.P, err = strconv.ParseFloat(val, 64); err != nil || r.P <= 0 || r.P > 1 {
					return nil, fmt.Errorf("resilience: fault rule %q: p must be in (0, 1], got %q", rs, val)
				}
			case "seed":
				if r.Seed, err = strconv.ParseUint(val, 10, 64); err != nil {
					return nil, fmt.Errorf("resilience: fault rule %q: bad seed %q", rs, val)
				}
			case "after":
				if r.After, err = strconv.ParseInt(val, 10, 64); err != nil || r.After < 0 {
					return nil, fmt.Errorf("resilience: fault rule %q: bad after %q", rs, val)
				}
			case "times":
				if r.Times, err = strconv.ParseInt(val, 10, 64); err != nil || r.Times < 1 {
					return nil, fmt.Errorf("resilience: fault rule %q: bad times %q", rs, val)
				}
			case "drop":
				if hasVal {
					return nil, fmt.Errorf("resilience: fault rule %q: drop takes no value", rs)
				}
				if err = setAction(FaultDrop); err != nil {
					return nil, err
				}
			case "truncate":
				if hasVal {
					return nil, fmt.Errorf("resilience: fault rule %q: truncate takes no value", rs)
				}
				if err = setAction(FaultTruncate); err != nil {
					return nil, err
				}
			case "delay":
				if err = setAction(FaultDelay); err != nil {
					return nil, err
				}
				if r.Delay, err = time.ParseDuration(val); err != nil || r.Delay <= 0 {
					return nil, fmt.Errorf("resilience: fault rule %q: bad delay %q", rs, val)
				}
			case "status":
				if err = setAction(FaultStatus); err != nil {
					return nil, err
				}
				if r.Status, err = strconv.Atoi(val); err != nil || r.Status < 400 || r.Status > 599 {
					return nil, fmt.Errorf("resilience: fault rule %q: status must be 400-599, got %q", rs, val)
				}
			default:
				return nil, fmt.Errorf("resilience: fault rule %q: unknown field %q", rs, f)
			}
		}
		if r.Action < 0 {
			return nil, fmt.Errorf("resilience: fault rule %q needs an action (drop, truncate, delay=, status=)", rs)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("resilience: empty fault spec")
	}
	return NewInjector(rules...), nil
}

// IsInjectedDrop reports whether err is the injector's synthetic transport
// loss (so tests can tell injected faults from real ones).
func IsInjectedDrop(err error) bool {
	for err != nil {
		if _, ok := err.(*errDropped); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
