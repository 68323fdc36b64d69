package server

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"slimgraph/internal/obs"
	"slimgraph/internal/resilience"
)

// TestAdmissionControl pins the bounded-queue behavior: with every
// concurrency slot held and the wait queue full, further heavy requests
// are refused with 429 + Retry-After instead of queueing without bound,
// and a freed slot readmits traffic.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Options{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueWait:     50 * time.Millisecond,
	})
	if err := s.AddGenerated("g", "ba", 0, 3, 200, 7, false, "", 0); err != nil {
		t.Fatal(err)
	}

	// Occupy the only execution slot and the only queue seat directly.
	release := func() { <-s.sem }
	s.sem <- struct{}{}
	s.waiters.Add(1)

	code, body := do(t, "GET", ts.URL+"/v1/graphs/g/degrees", "", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("with slot and queue full: status %d: %s (want 429)", code, body)
	}
	resp, err := http.Get(ts.URL + "/v1/graphs/g/degrees")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", ra)
	}

	// A queued request that outlives QueueWait is also shed.
	s.waiters.Add(-1) // queue seat free, but the slot is still held
	start := time.Now()
	code, _ = do(t, "GET", ts.URL+"/v1/graphs/g/degrees", "", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("queued past QueueWait: status %d, want 429", code)
	}
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Errorf("shed after %v, want ~QueueWait in the queue first", waited)
	}

	// Releasing the slot restores service.
	release()
	if code, body := do(t, "GET", ts.URL+"/v1/graphs/g/degrees", "", nil); code != http.StatusOK {
		t.Fatalf("after release: status %d: %s", code, body)
	}
}

// TestDeadlinePropagationRejectsExpired pins the shard-side clamp: a
// request arriving with an already-expired X-Slimgraph-Deadline answers
// 504 before any work, and a generous deadline changes nothing.
func TestDeadlinePropagationRejectsExpired(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	if err := s.AddGenerated("g", "ba", 0, 3, 200, 7, false, "", 0); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/graphs/g/degrees", nil)
	req.Header.Set(resilience.DeadlineHeader, resilience.FormatDeadline(time.Now().Add(-time.Second)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
	}

	req, _ = http.NewRequest("GET", ts.URL+"/v1/graphs/g/degrees", nil)
	req.Header.Set(resilience.DeadlineHeader, resilience.FormatDeadline(time.Now().Add(time.Minute)))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live deadline: status %d, want 200", resp.StatusCode)
	}
}

// TestPanicRecovery pins the middleware contract end to end on a real
// server mux: a panicking handler yields a 500 JSON body carrying the
// request ID, slimgraph_panics_total increments, and the server keeps
// serving afterwards.
func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})

	req, _ := http.NewRequest("GET", ts.URL+"/boom", nil)
	req.Header.Set(obs.RequestIDHeader, "deadbeef00000001")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("panicking handler tore the connection: %v", err)
	}
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if got := string(body[:n]); !strings.Contains(got, "deadbeef00000001") {
		t.Errorf("500 body %q does not carry the request ID", got)
	}

	code, _ := do(t, "GET", ts.URL+"/healthz", "", nil)
	if code != http.StatusOK {
		t.Fatalf("server unhealthy after a recovered panic: %d", code)
	}
	if code, metrics := do(t, "GET", ts.URL+"/metrics", "", nil); code != http.StatusOK ||
		!strings.Contains(string(metrics), "slimgraph_panics_total 1") {
		t.Errorf("slimgraph_panics_total not incremented")
	}
}
