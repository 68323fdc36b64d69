package resilience

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeClock steps time manually so breaker cooldowns are tested without
// sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func (c *fakeClock) opts(th int) BreakerOptions {
	return BreakerOptions{Threshold: th, Cooldown: time.Second, Now: c.now}
}

func TestBreakerLifecycle(t *testing.T) {
	clk := newFakeClock()
	var transitions []string
	o := clk.opts(3)
	o.OnChange = func(from, to BreakerState) {
		transitions = append(transitions, from.String()+"->"+to.String())
	}
	b := NewBreaker(o)

	if b.State() != BreakerClosed || !b.Routable() {
		t.Fatalf("new breaker should be closed and routable")
	}
	b.RecordFailure()
	b.RecordFailure()
	if b.State() != BreakerClosed {
		t.Fatalf("below threshold should stay closed, got %v", b.State())
	}
	b.RecordFailure()
	if b.State() != BreakerOpen {
		t.Fatalf("threshold reached should open, got %v", b.State())
	}
	if b.Routable() {
		t.Fatalf("open breaker should not be routable before cooldown")
	}

	// A failure while open re-stamps the cooldown.
	clk.advance(900 * time.Millisecond)
	b.RecordFailure()
	clk.advance(900 * time.Millisecond)
	if b.Routable() {
		t.Fatalf("re-stamped cooldown should not have elapsed")
	}
	clk.advance(200 * time.Millisecond)
	if !b.Routable() {
		t.Fatalf("cooldown elapsed should allow a probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("probe decision should transition to half-open, got %v", b.State())
	}

	// Failed probe re-opens; successful probe closes.
	b.RecordFailure()
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe should re-open, got %v", b.State())
	}
	clk.advance(2 * time.Second)
	if !b.Routable() {
		t.Fatalf("second probe window should open")
	}
	b.RecordSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe should close, got %v", b.State())
	}

	// Success resets the consecutive-failure count.
	b.RecordFailure()
	b.RecordFailure()
	b.RecordSuccess()
	b.RecordFailure()
	b.RecordFailure()
	if b.State() != BreakerClosed {
		t.Fatalf("failure count should reset on success")
	}

	want := []string{
		"closed->open", "open->half-open", "half-open->open",
		"open->half-open", "half-open->closed",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestDeadlineHeaderRoundTrip(t *testing.T) {
	d := time.Unix(1_700_000_000, 123456789)
	got, ok := ParseDeadline(FormatDeadline(d))
	if !ok || !got.Equal(d) {
		t.Fatalf("round trip failed: %v ok=%v", got, ok)
	}
	if _, ok := ParseDeadline(""); ok {
		t.Fatalf("empty header should not parse")
	}
	if _, ok := ParseDeadline("not-a-number"); ok {
		t.Fatalf("malformed header should not parse")
	}
}

func TestDeadlineMiddlewareClampsAndRejects(t *testing.T) {
	var sawDeadline time.Time
	var had bool
	h := DeadlineMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawDeadline, had = r.Context().Deadline()
		w.WriteHeader(http.StatusOK)
	}))

	// Future deadline: clamped onto the request context.
	future := time.Now().Add(time.Minute)
	req := httptest.NewRequest("GET", "/v1/graphs", nil)
	req.Header.Set(DeadlineHeader, FormatDeadline(future))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK || !had || !sawDeadline.Equal(future) {
		t.Fatalf("future deadline should clamp: code=%d had=%v saw=%v", rr.Code, had, sawDeadline)
	}

	// Expired deadline: 504 without reaching the handler.
	had = false
	req = httptest.NewRequest("GET", "/v1/graphs", nil)
	req.Header.Set(DeadlineHeader, FormatDeadline(time.Now().Add(-time.Second)))
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusGatewayTimeout || had {
		t.Fatalf("expired deadline should 504 before the handler: code=%d had=%v", rr.Code, had)
	}

	// Existing earlier context deadline wins (tighten-only).
	earlier := time.Now().Add(time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), earlier)
	defer cancel()
	req = httptest.NewRequest("GET", "/v1/graphs", nil).WithContext(ctx)
	req.Header.Set(DeadlineHeader, FormatDeadline(time.Now().Add(time.Hour)))
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK || !sawDeadline.Equal(earlier) {
		t.Fatalf("later header must not loosen an earlier deadline: saw=%v want=%v", sawDeadline, earlier)
	}
}

func TestParseFaultSpec(t *testing.T) {
	in, err := ParseFaultSpec("path=/part/bfs,p=0.2,seed=7,status=503; path=compress,times=2,delay=250ms; host=8081,drop; method=GET,after=3,truncate")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rules := in.Rules()
	if len(rules) != 4 {
		t.Fatalf("want 4 rules, got %d", len(rules))
	}
	r := rules[0]
	if r.Path != "/part/bfs" || r.P != 0.2 || r.Seed != 7 || r.Action != FaultStatus || r.Status != 503 {
		t.Fatalf("rule 0 mis-parsed: %+v", r)
	}
	if rules[1].Times != 2 || rules[1].Action != FaultDelay || rules[1].Delay != 250*time.Millisecond {
		t.Fatalf("rule 1 mis-parsed: %+v", rules[1])
	}
	if rules[2].Host != "8081" || rules[2].Action != FaultDrop {
		t.Fatalf("rule 2 mis-parsed: %+v", rules[2])
	}
	if rules[3].Method != "GET" || rules[3].After != 3 || rules[3].Action != FaultTruncate {
		t.Fatalf("rule 3 mis-parsed: %+v", rules[3])
	}

	for _, bad := range []string{
		"", "path=/x", "p=2,drop", "status=200", "delay=nope", "drop,truncate",
		"bogus=1,drop", "times=0,drop", "drop=yes", "p=NaN,drop",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Fatalf("spec %q should not parse", bad)
		}
	}
}

// FuzzParseFaultSpec feeds the -fault-inject grammar arbitrary text: it
// never panics, and every rule it accepts names exactly one action, a firing
// probability that is unset or in (0, 1], a status in 400-599 for status=
// and a positive duration for delay=.
func FuzzParseFaultSpec(f *testing.F) {
	for _, s := range []string{
		"path=/bfs,p=0.2,seed=7,status=503;path=compress,times=2,delay=250ms",
		"host=8081,drop; method=GET,after=3,truncate", "p=NaN,drop", "p=1e-300,truncate",
		"status=599,status=400", "delay=-1s", ";;drop;", "p=+Inf,drop",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		var texts []string
		for _, rs := range strings.Split(spec, ";") {
			if rs = strings.TrimSpace(rs); rs != "" {
				texts = append(texts, rs)
			}
		}
		rules := in.Rules()
		if len(rules) != len(texts) {
			t.Fatalf("%q: %d rules from %d rule texts", spec, len(rules), len(texts))
		}
		for i, r := range rules {
			actions := 0
			for _, f := range strings.Split(texts[i], ",") {
				switch key, _, _ := strings.Cut(strings.TrimSpace(f), "="); key {
				case "drop", "truncate", "delay", "status":
					actions++
				}
			}
			if actions != 1 {
				t.Fatalf("%q: rule %q accepted with %d actions", spec, texts[i], actions)
			}
			if r.P != 0 && !(r.P > 0 && r.P <= 1) {
				t.Fatalf("%q: rule %q accepted with p=%v", spec, texts[i], r.P)
			}
			switch r.Action {
			case FaultDrop, FaultTruncate:
			case FaultStatus:
				if r.Status < 400 || r.Status > 599 {
					t.Fatalf("%q: rule %q accepted with status %d", spec, texts[i], r.Status)
				}
			case FaultDelay:
				if r.Delay <= 0 {
					t.Fatalf("%q: rule %q accepted with delay %v", spec, texts[i], r.Delay)
				}
			default:
				t.Fatalf("%q: rule %q accepted with action %d", spec, texts[i], r.Action)
			}
		}
	})
}

// TestFaultRuleDeterminism pins the fire/skip mask of a rule's first 128
// matches for three (Seed, P) pairs, recorded from the injector's original
// hash, so a seeded chaos run keeps injecting the same faults.
func TestFaultRuleDeterminism(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		p    float64
		want [2]uint64 // bit n of want[n/64]: match n fired
	}{
		{99, 0.4, [2]uint64{0x080362c61e510bbd, 0x00ca0351640d0c05}},
		{7, 0.2, [2]uint64{0x02c0404000242010, 0xe001300b00300028}},
		{0, 0.9, [2]uint64{0xffefcfaeff7fffff, 0xffff7ffb137fffff}},
	} {
		r := &FaultRule{Seed: tc.seed, P: tc.p, Action: FaultDrop}
		var got [2]uint64
		for n := range 128 {
			if r.decide() {
				got[n/64] |= 1 << (n % 64)
			}
		}
		if got != tc.want {
			t.Errorf("seed %d, p %v: decisions %#016x, want %#016x", tc.seed, tc.p, got, tc.want)
		}
	}
}

func TestFaultAfterAndTimes(t *testing.T) {
	r := &FaultRule{After: 2, Times: 3, Action: FaultDrop}
	var fires []bool
	for i := 0; i < 8; i++ {
		fires = append(fires, r.decide())
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
	if r.Fired() != 3 {
		t.Fatalf("Fired() = %d, want 3", r.Fired())
	}
}

func TestFaultRoundTripper(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("x", 400)))
	}))
	defer srv.Close()

	drop := &FaultRule{Path: "/drop", Action: FaultDrop}
	status := &FaultRule{Path: "/status", Action: FaultStatus, Status: 503}
	trunc := &FaultRule{Path: "/trunc", Action: FaultTruncate}
	client := &http.Client{Transport: NewInjector(drop, status, trunc).RoundTripper(nil)}

	if _, err := client.Get(srv.URL + "/drop"); err == nil {
		t.Fatalf("dropped request should error")
	} else if !IsInjectedDrop(err) {
		t.Fatalf("dropped request should be identifiable, got %v", err)
	}

	resp, err := client.Get(srv.URL + "/status")
	if err != nil {
		t.Fatalf("status fault: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 || !strings.Contains(string(body), "fault injection") {
		t.Fatalf("status fault: code=%d body=%q", resp.StatusCode, body)
	}

	resp, err = client.Get(srv.URL + "/trunc")
	if err != nil {
		t.Fatalf("truncate fault: %v", err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != io.ErrUnexpectedEOF || len(body) != 200 {
		t.Fatalf("truncated body: err=%v len=%d (want ErrUnexpectedEOF, 200)", err, len(body))
	}

	resp, err = client.Get(srv.URL + "/clean")
	if err != nil {
		t.Fatalf("unmatched request should pass through: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 400 {
		t.Fatalf("unmatched request body len = %d, want 400", len(body))
	}
}

func TestFaultMiddleware(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("y", 400)))
	})
	status := &FaultRule{Path: "/status", Action: FaultStatus, Status: 500}
	drop := &FaultRule{Path: "/drop", Action: FaultDrop}
	srv := httptest.NewServer(NewInjector(status, drop).Middleware(inner))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatalf("status fault: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("status fault code = %d, want 500", resp.StatusCode)
	}

	if resp, err := http.Get(srv.URL + "/drop"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.Fatalf("dropped request should surface a transport error")
	}

	resp, err = http.Get(srv.URL + "/ok")
	if err != nil {
		t.Fatalf("unmatched request should pass: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 400 {
		t.Fatalf("clean body len = %d, want 400", len(body))
	}
}
