package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nok"
	"nok/internal/samples"
)

// buildXML generates a library of n books; //book[price<100] with a forced
// scan strategy visits every node, making evaluation slow enough to observe
// cancellation, deadlines and admission control.
func buildXML(n int) string {
	var b strings.Builder
	b.WriteString("<lib>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<book><title>t%d</title><price>%d</price></book>", i, i%200)
	}
	b.WriteString("</lib>")
	return b.String()
}

// slowQuery forces a full-document navigation on the generated library.
const slowQuery = "/query?q=" + "%2F%2Fbook%5Bprice%3C100%5D" + "&strategy=scan"

// newTestServer builds a store from xml and wraps it in a Server +
// httptest.Server. The Server owns the store; cleanup drains it.
func newTestServer(t *testing.T, xml string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	st, err := nok.Create(filepath.Join(t.TempDir(), "db"), strings.NewReader(xml), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestEndpoints(t *testing.T) {
	_, ts := newTestServer(t, samples.Bibliography, Config{})

	var qr queryResponse
	if code := getJSON(t, ts.URL+"/query?q=%2Fbib%2Fbook%2Ftitle&stats=1", &qr); code != 200 {
		t.Fatalf("query status %d", code)
	}
	if qr.Count != 4 || len(qr.Results) != 4 || qr.Cached || qr.Stats == nil {
		t.Errorf("query response: %+v", qr)
	}
	if qr.Results[0].Value != "TCP/IP Illustrated" {
		t.Errorf("first title: %+v", qr.Results[0])
	}

	// Same expression, different whitespace: normalization hits the cache.
	if code := getJSON(t, ts.URL+"/query?q=%2Fbib%2F%20book%2Ftitle", &qr); code != 200 {
		t.Fatalf("repeat query status %d", code)
	}
	if !qr.Cached {
		t.Errorf("normalized repeat not cached: %+v", qr)
	}

	// limit truncates but reports the full count.
	if getJSON(t, ts.URL+"/query?q=%2Fbib%2Fbook%2Ftitle&limit=2", &qr); qr.Count != 4 || len(qr.Results) != 2 || !qr.Truncated {
		t.Errorf("limited response: %+v", qr)
	}

	var er errorResponse
	for _, bad := range []string{
		"/query?q=%2Fbib%5B",         // malformed expression
		"/query",                     // missing q
		"/query?q=%2Fbib&strategy=x", // unknown strategy
		"/query?q=%2Fbib&limit=-1",   // bad limit
		"/query?q=%2Fbib&timeout=no", // bad timeout
	} {
		if code := getJSON(t, ts.URL+bad, &er); code != 400 {
			t.Errorf("GET %s: status %d, want 400", bad, code)
		}
		if er.Error == "" {
			t.Errorf("GET %s: empty error message", bad)
		}
	}

	var v resultJSON
	if code := getJSON(t, ts.URL+"/value/0.1.2", &v); code != 200 || v.Value != "TCP/IP Illustrated" {
		t.Errorf("value: status %d, %+v", code, v)
	}
	if code := getJSON(t, ts.URL+"/value/0.99", nil); code != 404 {
		t.Errorf("missing value: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/value/bogus", nil); code != 400 {
		t.Errorf("bad id: status %d, want 400", code)
	}

	var sr statsResponse
	if code := getJSON(t, ts.URL+"/stats", &sr); code != 200 || sr.Nodes == 0 || sr.Cache.Capacity != 1024 {
		t.Errorf("stats: status %d, %+v", code, sr)
	}

	resp, err := http.Get(ts.URL + "/explain?q=%2F%2Fbook")
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(plan), "partitions") {
		t.Errorf("explain: status %d, %q", resp.StatusCode, plan)
	}
	resp, err = http.Get(ts.URL + "/explain?q=%2F%2Fbook&analyze=1")
	if err != nil {
		t.Fatal(err)
	}
	plan, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(plan), "query //book") {
		t.Errorf("explain analyze: status %d, %q", resp.StatusCode, plan)
	}

	// /plan prints the cost-based plan without executing.
	resp, err = http.Get(ts.URL + "/plan?q=%2F%2Fbook%5Bprice%5D")
	if err != nil {
		t.Fatal(err)
	}
	plan, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(plan), "plan //book[price]") ||
		!strings.Contains(string(plan), "est total") {
		t.Errorf("plan: status %d, %q", resp.StatusCode, plan)
	}
	if code := getJSON(t, ts.URL+"/plan?q=%2Fbib%5B", nil); code != 400 {
		t.Errorf("plan with bad query: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/plan", nil); code != 400 {
		t.Errorf("plan without q: status %d, want 400", code)
	}

	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Errorf("healthz: status %d", code)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"nokserve_request_seconds_bucket",
		"nokserve_cache_hits_total",
		"nokserve_rejected_total",
		"nok_queries_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestCacheInvalidation checks the acceptance property "stale results must
// not be served": a mutation bumps the store epoch, so the cached
// pre-mutation entry becomes unreachable.
func TestCacheInvalidation(t *testing.T) {
	srv, ts := newTestServer(t, samples.Bibliography, Config{})

	const q = "/query?q=%2Fbib%2Fbook"
	var qr queryResponse
	getJSON(t, ts.URL+q, &qr)
	if qr.Count != 4 || qr.Cached {
		t.Fatalf("first query: %+v", qr)
	}
	getJSON(t, ts.URL+q, &qr)
	if !qr.Cached {
		t.Fatalf("repeat not cached: %+v", qr)
	}

	frag := `<book year="2004"><title>Succinct XML</title><price>10</price></book>`
	if err := srv.store.Insert("0", strings.NewReader(frag)); err != nil {
		t.Fatal(err)
	}

	getJSON(t, ts.URL+q, &qr)
	if qr.Cached {
		t.Fatal("served cached result across a mutation")
	}
	if qr.Count != 5 {
		t.Fatalf("post-insert count = %d, want 5", qr.Count)
	}
	getJSON(t, ts.URL+q, &qr)
	if !qr.Cached || qr.Count != 5 {
		t.Fatalf("post-insert repeat: %+v", qr)
	}

	if err := srv.store.Delete("0.5"); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+q, &qr)
	if qr.Cached || qr.Count != 4 {
		t.Fatalf("post-delete: %+v", qr)
	}
}

// TestConcurrentLoad is the acceptance load test: ≥64 concurrent clients
// issuing a mix of cached and uncached queries while inserts land
// mid-test. Run under -race via `make check`.
func TestConcurrentLoad(t *testing.T) {
	srv, ts := newTestServer(t, buildXML(400), Config{Workers: 8, QueueDepth: 1024})

	const clients = 64
	const perClient = 8
	exprs := []string{
		"%2F%2Fbook%2Ftitle",          // shared → cached after first miss
		"%2F%2Fbook%5Bprice%3C50%5D",  // shared
		"%2Flib%2Fbook%2Fprice",       // shared
		"%2F%2Fbook%5Bprice%3E150%5D", // shared
	}

	var wg sync.WaitGroup
	var failures atomic.Int64
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				url := ts.URL + "/query?q=" + exprs[(c+i)%len(exprs)]
				if c%7 == 0 {
					// A slice of clients bypasses the cache with unique
					// uncacheable-by-reuse expressions.
					url = ts.URL + fmt.Sprintf("/query?q=%%2F%%2Fbook%%5Bprice%%3C%d%%5D", 50+(c*perClient+i)%100)
				}
				resp, err := http.Get(url)
				if err != nil {
					failures.Add(1)
					select {
					case errCh <- err:
					default:
					}
					continue
				}
				if resp.StatusCode != 200 {
					failures.Add(1)
					select {
					case errCh <- fmt.Errorf("status %d for %s", resp.StatusCode, url):
					default:
					}
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	// Mid-test writers: inserts and deletes interleave with the reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			frag := fmt.Sprintf("<book><title>new%d</title><price>%d</price></book>", i, i)
			if err := srv.store.Insert("0", strings.NewReader(frag)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			if i%2 == 1 {
				if err := srv.store.Delete("0.401"); err != nil {
					t.Errorf("delete %d: %v", i, err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Fatalf("%d/%d requests failed; first: %v", n, clients*perClient, <-errCh)
	}
	if srv.cache.hits.Load() == 0 {
		t.Error("no cache hits under shared workload")
	}
	if srv.cache.misses.Load() == 0 {
		t.Error("no cache misses under mutating workload")
	}
	if got := srv.Inflight(); got != 0 {
		t.Errorf("inflight after drain: %d", got)
	}
}

// TestAdmissionControl fills the single worker slot and the queue, then
// verifies the overflow request is rejected with 429 immediately.
func TestAdmissionControl(t *testing.T) {
	srv, ts := newTestServer(t, samples.Bibliography, Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})

	// Occupy the worker slot directly, then park one waiter in the queue —
	// deterministic occupancy, independent of query duration.
	if err := srv.pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() { waiterDone <- srv.pool.acquire(waiterCtx) }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.pool.Queued() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never queued: inflight=%d queued=%d", srv.pool.Inflight(), srv.pool.Queued())
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/query?q=%2Fbib%2Fbook")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Give up the queue seat, then the slot; the pool must be usable again.
	cancelWaiter()
	if err := <-waiterDone; err != context.Canceled {
		t.Fatalf("queued waiter: %v", err)
	}
	srv.pool.release()
	if code := getJSON(t, ts.URL+"/query?q=%2Fbib%2Fbook", nil); code != 200 {
		t.Errorf("post-release query: status %d", code)
	}
}

// TestCancellationReleasesWorker is the acceptance cancellation property: a
// cancelled request returns promptly — well before its query would complete
// — and frees its worker slot for the next request.
func TestCancellationReleasesWorker(t *testing.T) {
	srv, ts := newTestServer(t, buildXML(10000), Config{Workers: 1, CacheEntries: -1})

	// Baseline: how long the slow query takes to run to completion.
	t0 := time.Now()
	resp, err := http.Get(ts.URL + slowQuery)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	baseline := time.Since(t0)
	if baseline < 5*time.Millisecond {
		t.Skipf("baseline query too fast to observe cancellation (%v)", baseline)
	}

	// Cancel the same query early; the server must notice at a matching
	// checkpoint and release the slot long before `baseline` elapses.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+slowQuery, nil)
	go func() {
		time.Sleep(baseline / 20)
		cancel()
	}()
	t0 = time.Now()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("cancelled request did not error")
	}

	// The worker slot must come back promptly: poll until inflight drops.
	freed := false
	for deadline := time.Now().Add(baseline / 2); time.Now().Before(deadline); {
		if srv.Inflight() == 0 {
			freed = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(t0)
	if !freed {
		t.Fatalf("worker slot not released within %v of cancellation (baseline %v)", baseline/2, baseline)
	}
	if elapsed >= baseline {
		t.Errorf("cancellation took %v, not before the full query (%v)", elapsed, baseline)
	}

	// And the slot is usable: a fresh cheap query succeeds.
	if code := getJSON(t, ts.URL+"/query?q=%2Flib%2Fbook%2Ftitle&limit=1", nil); code != 200 {
		t.Errorf("post-cancel query: status %d", code)
	}
}

// TestQueryDeadline: a per-request timeout expiring mid-match surfaces as
// HTTP 504, not a hung handler.
func TestQueryDeadline(t *testing.T) {
	_, ts := newTestServer(t, buildXML(10000), Config{Workers: 2, CacheEntries: -1})

	var er errorResponse
	if code := getJSON(t, ts.URL+slowQuery+"&timeout=1ms", &er); code != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: status %d (%+v), want 504", code, er)
	}
	if !strings.Contains(er.Error, "deadline") {
		t.Errorf("deadline error: %q", er.Error)
	}
}

// TestShutdownDrain: after Shutdown the server refuses work and the store
// is closed exactly once.
func TestShutdownDrain(t *testing.T) {
	st, err := nok.Create(filepath.Join(t.TempDir(), "db"), strings.NewReader(samples.Bibliography), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/query?q=%2Fbib%2Fbook", nil); code != 200 {
		t.Fatalf("pre-shutdown query: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	for _, path := range []string{"/healthz", "/query?q=%2Fbib", "/stats"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusServiceUnavailable {
			t.Errorf("GET %s after shutdown: status %d, want 503", path, code)
		}
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	k := func(i int) cacheKey { return cacheKey{expr: fmt.Sprintf("q%d", i)} }
	c.put(k(1), []nok.Result{{ID: "1"}}, nil)
	c.put(k(2), []nok.Result{{ID: "2"}}, nil)
	if _, _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 evicted too early")
	}
	c.put(k(3), nil, nil) // evicts k2 (k1 was just touched)
	if _, _, ok := c.get(k(2)); ok {
		t.Error("k2 should have been evicted")
	}
	if _, _, ok := c.get(k(1)); !ok {
		t.Error("k1 should survive")
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
	// Fingerprint mismatch is a miss even for the same expression.
	if _, _, ok := c.get(cacheKey{expr: "q1", fp: "0:1"}); ok {
		t.Error("stale-fingerprint entry served")
	}
	// Disabled cache never stores.
	d := newResultCache(-1)
	d.put(k(1), nil, nil)
	if _, _, ok := d.get(k(1)); ok {
		t.Error("disabled cache returned a hit")
	}
}
