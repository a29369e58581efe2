package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"nok/internal/samples"
	"nok/internal/telemetry"
)

// TestQueryIDHeader checks every /query response — evaluated or served from
// cache — carries a fresh X-Nok-Query-Id, and that the IDs differ (a cache
// hit gets its own telemetry record).
func TestQueryIDHeader(t *testing.T) {
	_, ts := newTestServer(t, samples.Bibliography, Config{})

	get := func() (uint64, bool) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?q=%2Fbib%2Fbook%2Ftitle")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		h := resp.Header.Get("X-Nok-Query-Id")
		if h == "" {
			t.Fatal("missing X-Nok-Query-Id header")
		}
		id, err := strconv.ParseUint(h, 10, 64)
		if err != nil || id == 0 {
			t.Fatalf("bad X-Nok-Query-Id %q", h)
		}
		return id, qr.Cached
	}

	id1, cached1 := get()
	id2, cached2 := get()
	if cached1 || !cached2 {
		t.Fatalf("expected miss then hit, got cached=%v,%v", cached1, cached2)
	}
	if id2 == id1 {
		t.Error("cache hit reused the original query ID")
	}

	// The cache hit's own record is in the flight recorder, marked CacheHit.
	var hit *telemetry.Record
	for _, r := range telemetry.Default.Recent(0) {
		if r.ID == id2 {
			hit = r
			break
		}
	}
	if hit == nil {
		t.Fatalf("cache-hit record %d not in flight recorder", id2)
	}
	if !hit.CacheHit || hit.Results != 4 {
		t.Errorf("cache-hit record = cachehit:%v results:%d", hit.CacheHit, hit.Results)
	}
}

// TestDebugQueries checks /debug/queries returns recent and slowest records
// with plans after some traffic, and honors ?n=.
func TestDebugQueries(t *testing.T) {
	_, ts := newTestServer(t, samples.Bibliography, Config{CacheEntries: -1})

	for _, q := range []string{
		"/query?q=%2Fbib%2Fbook%2Ftitle",
		"/query?q=%2F%2Fbook%5Beditor%5D",
		"/query?q=%2F%2Fbook",
	} {
		if code := getJSON(t, ts.URL+q, nil); code != 200 {
			t.Fatalf("query %s: status %d", q, code)
		}
	}

	var dbg struct {
		SlowThresholdMS float64           `json:"slow_threshold_ms"`
		Recent          []json.RawMessage `json:"recent"`
		Slowest         []json.RawMessage `json:"slowest"`
	}
	if code := getJSON(t, ts.URL+"/debug/queries", &dbg); code != 200 {
		t.Fatalf("/debug/queries status %d", code)
	}
	if len(dbg.Recent) < 3 || len(dbg.Slowest) < 3 {
		t.Fatalf("recent=%d slowest=%d, want >= 3 each", len(dbg.Recent), len(dbg.Slowest))
	}
	if dbg.SlowThresholdMS <= 0 {
		t.Errorf("slow_threshold_ms = %g", dbg.SlowThresholdMS)
	}

	// Records carry the full diagnostic payload: expression, strategies,
	// estimates, and (for planned queries) a plan.
	sawPlan := false
	for _, raw := range dbg.Recent {
		var rec map[string]any
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("record not JSON: %v", err)
		}
		for _, k := range []string{"query_id", "expr", "duration_ms", "epoch"} {
			if _, ok := rec[k]; !ok {
				t.Errorf("record missing %s: %s", k, raw)
			}
		}
		if p, _ := rec["plan"].(string); p != "" {
			sawPlan = true
		}
	}
	if !sawPlan {
		t.Error("no record carried a rendered plan")
	}

	if code := getJSON(t, ts.URL+"/debug/queries?n=1", &dbg); code != 200 {
		t.Fatalf("/debug/queries?n=1 status %d", code)
	}
	if len(dbg.Recent) != 1 {
		t.Errorf("?n=1 returned %d recent records", len(dbg.Recent))
	}
	if code := getJSON(t, ts.URL+"/debug/queries?n=bogus", nil); code != 400 {
		t.Errorf("?n=bogus status %d, want 400", code)
	}
}

// TestPprofOptIn checks /debug/pprof is a 404 by default and serves
// profiles when enabled.
func TestPprofOptIn(t *testing.T) {
	_, off := newTestServer(t, samples.Bibliography, Config{})
	if code := getJSON(t, off.URL+"/debug/pprof/", nil); code != 404 {
		t.Errorf("pprof without opt-in: status %d, want 404", code)
	}

	_, on := newTestServer(t, samples.Bibliography, Config{EnablePprof: true})
	resp, err := http.Get(on.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || len(body) == 0 {
		t.Errorf("goroutine profile: status %d, %d bytes", resp.StatusCode, len(body))
	}
}

// TestMetricsExemplars checks the OpenMetrics variant is opt-in and carries
// the EOF terminator, while the default exposition stays plain 0.0.4.
func TestMetricsExemplars(t *testing.T) {
	_, ts := newTestServer(t, samples.Bibliography, Config{})
	if code := getJSON(t, ts.URL+"/query?q=%2Fbib%2Fbook", nil); code != 200 {
		t.Fatal("query failed")
	}

	get := func(url, accept string) (string, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.Header.Get("Content-Type")
	}

	plain, ct := get(ts.URL+"/metrics", "")
	if !strings.Contains(ct, "version=0.0.4") || strings.Contains(plain, "# EOF") {
		t.Errorf("plain exposition: ct=%q eof=%v", ct, strings.Contains(plain, "# EOF"))
	}

	om, ct := get(ts.URL+"/metrics?exemplars=1", "")
	if !strings.Contains(ct, "openmetrics") || !strings.Contains(om, "# EOF") {
		t.Errorf("openmetrics exposition: ct=%q", ct)
	}
	if !strings.Contains(om, "nok_query_seconds_bucket") {
		t.Error("openmetrics exposition missing latency histogram")
	}

	if _, ct := get(ts.URL+"/metrics", "application/openmetrics-text; version=1.0.0"); !strings.Contains(ct, "openmetrics") {
		t.Errorf("Accept negotiation failed: ct=%q", ct)
	}
}

// TestHealthzCarriesVersion checks /healthz reports the build identity and
// store epoch.
func TestHealthzCarriesVersion(t *testing.T) {
	_, ts := newTestServer(t, samples.Bibliography, Config{})
	var h healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if h.Status != "ok" || !strings.Contains(h.Version, "nok ") || h.Epoch == 0 {
		t.Errorf("healthz = %+v", h)
	}
}
