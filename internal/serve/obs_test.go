package serve

// Observability-surface tests: gauge/admission consistency, the
// Prometheus exposition, and opt-in pprof.

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tableValue extracts one metric's value from the deterministic table.
func tableValue(t *testing.T, table, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s has unparseable value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not in table:\n%s", name, table)
	return 0
}

// TestGaugesConsistentWithAdmission pins the satellite contract: the 429
// admission decision and the reported queue_depth/inflight gauges must
// describe the same state. With 1 worker and queue depth 1, a running job
// plus a queued job means inflight=1, queue_depth=1=capacity — and
// exactly then the next submission bounces with 429 + Retry-After.
func TestGaugesConsistentWithAdmission(t *testing.T) {
	s, release := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJob(t, ts, sweepSpec)
	if code != http.StatusCreated {
		t.Fatalf("first submit: HTTP %d", code)
	}
	waitState(t, ts, body["id"].(string), "running")
	if code, _ = postJob(t, ts, sweepSpec); code != http.StatusCreated {
		t.Fatalf("second submit: HTTP %d", code)
	}

	_, _, table := getBody(t, ts.URL+"/metrics")
	inflight := tableValue(t, string(table), "serve.inflight")
	qdepth := tableValue(t, string(table), "serve.queue_depth")
	capacity := tableValue(t, string(table), "serve.queue.depth")
	if inflight != 1 {
		t.Fatalf("serve.inflight = %v, want 1", inflight)
	}
	if qdepth != 1 || qdepth != capacity {
		t.Fatalf("serve.queue_depth = %v (capacity %v), want full queue", qdepth, capacity)
	}

	// Gauges say full — admission must agree.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(sweepSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, table = getBody(t, ts.URL+"/metrics")
		if tableValue(t, string(table), "serve.inflight") == 0 &&
			tableValue(t, string(table), "serve.queue_depth") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges never drained:\n%s", table)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Gauges say empty — admission must agree again.
	if code, _ := postJob(t, ts, sweepSpec); code != http.StatusCreated {
		t.Fatalf("post-drain submit: HTTP %d, want 201", code)
	}
}

// checkPromText is a minimal exposition validator: TYPE lines precede
// samples, histogram buckets are cumulative-monotone and end in +Inf.
func checkPromText(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{}
	var lastHist string
	var lastCum uint64
	for ln, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "# TYPE ") {
				f := strings.Fields(line)
				if len(f) != 4 {
					t.Fatalf("line %d: bad TYPE line %q", ln+1, line)
				}
				types[f[2]] = f[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value: %q", ln+1, line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("line %d: bad value: %q", ln+1, line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			base := strings.TrimSuffix(name, "_bucket")
			if types[base] != "histogram" {
				t.Fatalf("line %d: bucket sample for non-histogram %q", ln+1, base)
			}
			cum, _ := strconv.ParseUint(line[sp+1:], 10, 64)
			if base == lastHist && cum < lastCum {
				t.Fatalf("line %d: non-monotone buckets (%d < %d)", ln+1, cum, lastCum)
			}
			lastHist, lastCum = base, cum
			continue
		}
		lastHist, lastCum = "", 0
		base := name
		for _, suf := range []string{"_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && types[b] == "histogram" {
				base = b
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: sample %q without TYPE", ln+1, name)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	s, release := newTestServer(t, Config{Workers: 1, Pprof: true})
	close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJob(t, ts, sweepSpec)
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, ts, body["id"].(string), "done")

	code, hdr, b := getBody(t, ts.URL+"/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("prometheus metrics: HTTP %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	text := string(b)
	checkPromText(t, text)
	for _, want := range []string{
		"# TYPE merced_serve_done counter",
		"# TYPE merced_serve_inflight gauge",
		"# TYPE merced_serve_queue_depth gauge",
		"# TYPE merced_serve_job_sweep_seconds histogram",
		"merced_serve_job_sweep_seconds_count 1",
		`merced_serve_job_sweep_seconds_bucket{le="+Inf"} 1`,
		"# TYPE merced_serve_queue_wait_seconds histogram",
		"# TYPE merced_runtime_goroutines gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The default table is unchanged by the negotiation machinery.
	_, hdr, b = getBody(t, ts.URL+"/metrics")
	if !strings.HasPrefix(string(b), "metric") || !strings.Contains(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("default table broken:\n%s", b)
	}
	if code, _, _ := getBody(t, ts.URL+"/metrics?format=xml"); code != http.StatusBadRequest {
		t.Fatalf("unknown format: HTTP %d, want 400", code)
	}
}

func TestRuntimeGaugesRequirePprof(t *testing.T) {
	s, release := newTestServer(t, Config{Workers: 1})
	close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, _, b := getBody(t, ts.URL+"/metrics?format=prometheus")
	if strings.Contains(string(b), "merced_runtime_") {
		t.Fatal("runtime gauges exposed without -pprof")
	}
}

func TestPprofMountedOnlyWhenEnabled(t *testing.T) {
	on, releaseOn := newTestServer(t, Config{Workers: 1, Pprof: true})
	close(releaseOn)
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	if code, _, _ := getBody(t, tsOn.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof index with -pprof: HTTP %d", code)
	}

	off, releaseOff := newTestServer(t, Config{Workers: 1})
	close(releaseOff)
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	if code, _, _ := getBody(t, tsOff.URL+"/debug/pprof/"); code == http.StatusOK {
		t.Fatal("pprof index mounted without -pprof")
	}
}
