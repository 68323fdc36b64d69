package resilience

import (
	"context"
	"errors"
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

func TestRetryBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Seed: 42}
	for k := 1; k <= 8; k++ {
		d1 := p.Backoff("shard-1/part/bfs", k)
		d2 := p.Backoff("shard-1/part/bfs", k)
		if d1 != d2 {
			t.Fatalf("backoff must be deterministic: %v != %v", d1, d2)
		}
		base := p.BaseDelay << (k - 1)
		if base > p.MaxDelay || base <= 0 {
			base = p.MaxDelay
		}
		if d1 < base/2 || d1 >= base {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", k, d1, base/2, base)
		}
	}
	if p.Backoff("key-a", 1) == p.Backoff("key-b", 1) {
		t.Fatalf("different keys should jitter differently")
	}
	if p.Backoff("key-a", 1) == (RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Seed: 43}).Backoff("key-a", 1) {
		t.Fatalf("different seeds should jitter differently")
	}
}

func TestRetryDoStopsOnNonRetryable(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	permanent := errors.New("permanent")
	calls := 0
	err := p.Do(context.Background(), "k", func(err error) bool { return err.Error() != "permanent" },
		func() error { calls++; return permanent })
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("non-retryable error should return immediately: err=%v calls=%d", err, calls)
	}
}

func TestRetryDoEventualSuccess(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond}
	calls := 0
	err := p.Do(context.Background(), "k", func(error) bool { return true }, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("expected success on attempt 3: err=%v calls=%d", err, calls)
	}
}

func TestRetryDoExhaustsAttempts(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}
	calls := 0
	err := p.Do(context.Background(), "k", func(error) bool { return true },
		func() error { calls++; return errors.New("transient") })
	if err == nil || calls != 3 {
		t.Fatalf("expected 3 attempts then failure: err=%v calls=%d", err, calls)
	}
}

func TestRetryDoRespectsContextCancel(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 100, BaseDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	err := p.Do(ctx, "k", func(error) bool { return true },
		func() error { calls++; return errors.New("transient") })
	if err == nil || calls != 1 {
		t.Fatalf("cancel should stop retries: err=%v calls=%d", err, calls)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancel should interrupt the backoff sleep")
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
		"bogus=1,drop", "times=0,drop", "drop=yes",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Fatalf("spec %q should not parse", bad)
		}
	}
}

func TestFaultRuleDeterminism(t *testing.T) {
	run := func() []bool {
		r := &FaultRule{P: 0.4, Seed: 99, Action: FaultDrop}
		out := make([]bool, 50)
		for i := range out {
			out[i] = r.decide()
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical runs", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.4 over 50 trials should fire some but not all, fired %d", fired)
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
