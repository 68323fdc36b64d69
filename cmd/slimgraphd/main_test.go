package main

import (
	"strings"
	"testing"
)

// runCapture invokes run with captured stdout/stderr.
func runCapture(args ...string) (code int, stdout, stderr string) {
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRunFlagValidation pins the exit codes and messages of every
// flag-validation path: 2 for usage errors, 1 for runtime failures, 0 for
// informational exits.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string // substring; "" means don't check
	}{
		{"peers without coordinator role", []string{"-peers", "http://x:1"},
			2, "-peers applies only to -role coordinator"},
		{"peers with shard role", []string{"-role", "shard", "-peers", "http://x:1"},
			2, "-peers applies only to -role coordinator"},
		{"coordinator without peers", []string{"-role", "coordinator"},
			2, "-role coordinator needs -peers"},
		{"unknown role", []string{"-role", "replica"},
			2, `unknown -role "replica"`},
		{"load without equals", []string{"-load", "justapath"},
			2, "want name=path"},
		{"unknown flag", []string{"-no-such-flag"},
			2, "flag provided but not defined"},
		{"load missing file", []string{"-load", "g=/nonexistent/graph.el"},
			1, "no such file"},
		{"mem-budget without data-dir", []string{"-mem-budget", "512M"},
			2, "-mem-budget requires -data-dir"},
		{"malformed mem-budget", []string{"-mem-budget", "lots"},
			2, `want a byte size like 512M or 4G, got "lots"`},
		{"negative mem-budget", []string{"-mem-budget", "-1G"},
			2, "want a byte size"},
		{"negative mem-budget past int64", []string{"-mem-budget", "-9223372036854775809"},
			2, "want a byte size"},
		// A size past math.MaxInt64 bytes is refused, never wrapped: 2^34+1
		// GiB once read as 1 GiB, and 2^63-1 KiB as -1024, a disabled budget
		// (the address cannot listen, so a budget let through ends the run
		// rather than serving).
		{"mem-budget wraps to 1G", []string{"-mem-budget", "17179869185G"},
			2, `byte size "17179869185G" is past the largest, 9223372036854775807 bytes`},
		{"mem-budget wraps negative", []string{"-mem-budget", "9223372036854775807K", "-addr", "127.0.0.1:-1"},
			2, `byte size "9223372036854775807K" is past the largest`},
		{"mem-budget past int64", []string{"-mem-budget", "9223372036854775808"},
			2, `byte size "9223372036854775808" is past the largest`},
		{"largest mem-budget in G parses", []string{"-mem-budget", "8589934591G"},
			2, "-mem-budget requires -data-dir"},
		{"data-dir on coordinator", []string{"-role", "coordinator",
			"-peers", "http://x:1", "-data-dir", "/tmp/x"},
			2, "a coordinator holds no graphs"},
		// A value outside a flag's range is refused, never read as a
		// default. Each case names an address that cannot listen, so a value
		// let through ends the run with 1 rather than serving.
		{"cache 0", []string{"-cache", "0", "-addr", "127.0.0.1:-1"},
			2, "-cache 0: want at least 1"},
		{"negative cache", []string{"-cache", "-1", "-addr", "127.0.0.1:-1"},
			2, "-cache -1: want at least 1"},
		{"shard-timeout 0", []string{"-shard-timeout", "0", "-addr", "127.0.0.1:-1"},
			2, "-shard-timeout 0s: want a positive duration"},
		{"negative shard-timeout", []string{"-role", "coordinator", "-peers", "http://x:1",
			"-shard-timeout", "-1s", "-addr", "127.0.0.1:-1"},
			2, "-shard-timeout -1s: want a positive duration"},
		{"negative drain", []string{"-drain", "-1s", "-addr", "127.0.0.1:-1"},
			2, "-drain -1s: want 0 or more"},
		{"negative max-concurrent", []string{"-max-concurrent", "-1", "-addr", "127.0.0.1:-1"},
			2, "-max-concurrent -1: want 0 or more"},
		{"negative max-workers", []string{"-max-workers", "-1", "-addr", "127.0.0.1:-1"},
			2, "-max-workers -1: want 0 or more"},
		{"negative demo", []string{"-demo", "-3", "-addr", "127.0.0.1:-1"},
			2, "-demo -3: want 0 or more"},
		{"negative breaker-threshold", []string{"-breaker-threshold", "-1", "-addr", "127.0.0.1:-1"},
			2, "-breaker-threshold -1: want 0 or more"},
		{"negative breaker-cooldown", []string{"-breaker-cooldown", "-1s", "-addr", "127.0.0.1:-1"},
			2, "-breaker-cooldown -1s: want 0 or more"},
		{"negative probe-interval", []string{"-probe-interval", "-1ms", "-addr", "127.0.0.1:-1"},
			2, "-probe-interval -1ms: want 0 or more"},
		// The documented zero readings stand: the run gets as far as the
		// listener.
		{"zero defaults", []string{"-max-concurrent", "0", "-max-workers", "0", "-demo", "0",
			"-breaker-threshold", "0", "-breaker-cooldown", "0",
			"-probe-interval", "0", "-drain", "0", "-addr", "127.0.0.1:-1"},
			1, "listen tcp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCapture(tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit code %d, want %d; stderr:\n%s", code, tc.wantCode, stderr)
			}
			if tc.wantStderr != "" && !strings.Contains(stderr, tc.wantStderr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantStderr, stderr)
			}
		})
	}
}

func TestRunHelp(t *testing.T) {
	code, _, stderr := runCapture("-h")
	if code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
	if !strings.Contains(stderr, "-role") || !strings.Contains(stderr, "-debug-addr") {
		t.Fatalf("usage text incomplete:\n%s", stderr)
	}
}

func TestRunVersion(t *testing.T) {
	code, stdout, stderr := runCapture("-version")
	if code != 0 {
		t.Fatalf("-version exit code %d, want 0; stderr: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "slimgraphd ") || !strings.Contains(stdout, "go1.") {
		t.Fatalf("version output %q", stdout)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in      string
		want    int64
		wantErr bool
	}{
		{"", 0, false},
		{"  ", 0, false},
		{"0", 0, false},
		{"1024", 1024, false},
		{"4k", 4 << 10, false},
		{"512M", 512 << 20, false},
		{"4G", 4 << 30, false},
		{"2g", 2 << 30, false},
		{"1.5G", 0, true},
		{"G", 0, true},
		{"-1G", 0, true},
		{"lots", 0, true},
	}
	for _, tc := range cases {
		got, err := parseBytes(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseBytes(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if got != tc.want {
			t.Errorf("parseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestSplitPeers(t *testing.T) {
	got := splitPeers(" http://a:1/, ,http://b:2 ,")
	want := []string{"http://a:1", "http://b:2"}
	if len(got) != len(want) {
		t.Fatalf("splitPeers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitPeers = %v, want %v", got, want)
		}
	}
}
