package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nok"
	"nok/internal/chaosnet"
)

// noProbe disables the background prober and retries unless a test
// opts back in; unit tests want one observable attempt per injected fault.
func noProbe(cfg Config) Config {
	cfg.ProbeInterval = -1
	return cfg
}

// scatterHandler answers /scatter with the given result and /healthz,
// /stats with minimal JSON, mirroring what nokserve serves.
func scatterHandler(res *ScatterResult) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /scatter", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-nok-scatter")
		_ = WriteScatter(w, res)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "epoch": res.Epoch})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"nodes": 7, "epoch": res.Epoch})
	})
	return mux
}

func sampleScatter() *ScatterResult {
	return &ScatterResult{
		Results: []nok.Result{
			{ID: "0.1", Tag: "book"},
			{ID: "0.1.2", Tag: "title", HasValue: true, Value: "TCP/IP Illustrated"},
			{ID: "0.4.1", Tag: "price", HasValue: true, Value: "65"},
		},
		Stats: &nok.QueryStats{NodesVisited: 42, PagesScanned: 3},
		Epoch: 9,
	}
}

func TestWireRoundTrip(t *testing.T) {
	for name, res := range map[string]*ScatterResult{
		"results": sampleScatter(),
		"empty":   {Epoch: 1},
		"pruned":  {Pruned: true, Reason: "tag absent: book", Epoch: 5},
	} {
		var buf bytes.Buffer
		if err := WriteScatter(&buf, res); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := ReadScatter(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, res)
		}
	}
}

// TestWireTruncation feeds every proper prefix of a valid stream to the
// decoder: all of them must fail — most with ErrTruncated — and none may
// return a result set, because a short prefix is exactly what a severed
// connection delivers.
func TestWireTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteScatter(&buf, sampleScatter()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		res, err := ReadScatter(bytes.NewReader(full[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully: %+v", n, len(full), res)
		}
	}
	// The most dangerous prefix — everything but the end frame — must be
	// recognizably truncation, so the client retries instead of surfacing it.
	cut := len(full) - 2 // drop the 'E' byte and the epoch varint
	if _, err := ReadScatter(bytes.NewReader(full[:cut])); !errors.Is(err, ErrTruncated) {
		t.Errorf("missing end frame: got %v, want ErrTruncated", err)
	}
}

func TestScatterRetriesTruncation(t *testing.T) {
	ts := httptest.NewServer(scatterHandler(sampleScatter()))
	defer ts.Close()
	tr := &chaosnet.Transport{}
	c := New(ts.URL, 0, noProbe(Config{Transport: tr, MaxRetries: 2, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond}))
	defer c.Close()

	// All attempts truncated: the call exhausts its retries and reports
	// the shard unavailable — never a short result set.
	tr.TruncateBodies(20)
	if _, err := c.Scatter(context.Background(), "//book", nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("truncated scatter: got %v, want ErrUnavailable", err)
	}
	if got := tr.Requests(); got != 3 {
		t.Errorf("attempts %d, want 3 (1 + 2 retries)", got)
	}

	// Faults cleared: the same client recovers.
	tr.TruncateBodies(0)
	res, err := c.Scatter(context.Background(), "//book", nil)
	if err != nil {
		t.Fatalf("healed scatter: %v", err)
	}
	if len(res.Results) != 3 || res.Epoch != 9 {
		t.Errorf("healed scatter result: %+v", res)
	}
	if c.Epoch() != 9 {
		t.Errorf("epoch %d, want 9", c.Epoch())
	}
}

func TestRetryExhaustionIsUnavailable(t *testing.T) {
	tr := &chaosnet.Transport{}
	tr.FailNext(1 << 20)
	c := New("http://127.0.0.1:0", 0, noProbe(Config{Transport: tr, MaxRetries: 2, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond}))
	defer c.Close()
	_, err := c.Scatter(context.Background(), "//book", nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
	if !errors.Is(err, chaosnet.ErrInjected) {
		t.Errorf("unavailable error should carry its cause, got %v", err)
	}
	if got := tr.Requests(); got != 3 {
		t.Errorf("attempts %d, want 3", got)
	}
}

// TestNoRetryOnClientError: a 4xx means the shard answered — retrying
// cannot help, the breaker records a success, and the error surfaces
// as-is (not as unavailability).
func TestNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad query"}`, http.StatusBadRequest)
	}))
	defer ts.Close()
	c := New(ts.URL, 0, noProbe(Config{MaxRetries: 3, RetryBase: time.Millisecond}))
	defer c.Close()
	_, err := c.Scatter(context.Background(), "//book[", nil)
	if err == nil || errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want a permanent non-unavailable error", err)
	}
	var se *statusError
	if !errors.As(err, &se) || se.code != 400 {
		t.Fatalf("got %v, want statusError 400", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (no retry on 4xx)", got)
	}
	if got := c.BreakerState(); got != "closed" {
		t.Errorf("breaker %s after a 400, want closed (the shard is up)", got)
	}
}

// TestMutationsNeverRetried: a failed insert or delete must reach the
// transport exactly once — replaying a timed-out mutation could
// duplicate a subtree or misreport a delete.
func TestMutationsNeverRetried(t *testing.T) {
	tr := &chaosnet.Transport{}
	c := New("http://127.0.0.1:0", 0, noProbe(Config{Transport: tr, MaxRetries: 5, RetryBase: time.Millisecond}))
	defer c.Close()

	tr.FailNext(1 << 20)
	if err := c.Insert("0.1", bytes.NewReader([]byte("<x/>"))); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("insert: got %v, want ErrUnavailable", err)
	}
	if got := tr.Requests(); got != 1 {
		t.Errorf("insert attempts %d, want exactly 1", got)
	}
	if err := c.Delete("0.1"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("delete: got %v, want ErrUnavailable", err)
	}
	if got := tr.Requests(); got != 2 {
		t.Errorf("delete attempts %d (cumulative), want 2", got)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	ts := httptest.NewServer(scatterHandler(sampleScatter()))
	defer ts.Close()
	tr := &chaosnet.Transport{}
	c := New(ts.URL, 0, noProbe(Config{
		Transport: tr, MaxRetries: -1,
		BreakerThreshold: 2, BreakerCooldown: 30 * time.Millisecond,
	}))
	defer c.Close()

	tr.FailNext(1 << 20)
	for i := 0; i < 2; i++ {
		if _, err := c.Scatter(context.Background(), "//book", nil); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if got := c.BreakerState(); got != "open" {
		t.Fatalf("breaker %s after %d failures, want open", got, 2)
	}
	// Open breaker: rejected without touching the network.
	before := tr.Requests()
	if _, err := c.Scatter(context.Background(), "//book", nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("open-breaker call: %v", err)
	}
	if tr.Requests() != before {
		t.Errorf("open breaker let a request through (%d -> %d)", before, tr.Requests())
	}

	// Cooldown passes while the shard heals: the half-open probe closes it.
	tr.FailNext(0)
	time.Sleep(40 * time.Millisecond)
	res, err := c.Scatter(context.Background(), "//book", nil)
	if err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if len(res.Results) != 3 {
		t.Errorf("probe result: %+v", res)
	}
	if got := c.BreakerState(); got != "closed" {
		t.Errorf("breaker %s after successful probe, want closed", got)
	}
}

// TestBreakerHalfOpenAdmitsOneProbe: when the cooldown expires under
// concurrent traffic, exactly one request may probe; the rest stay
// rejected until the probe's outcome is known.
func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	b := newBreaker(93, 1, time.Millisecond)
	if probe, ok := b.admit(); probe || !ok {
		t.Fatalf("closed breaker: probe=%v ok=%v", probe, ok)
	}
	b.result(false, false) // threshold 1: open
	time.Sleep(2 * time.Millisecond)

	var admitted, probes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe, ok := b.admit()
			if ok {
				admitted.Add(1)
			}
			if probe {
				probes.Add(1)
			}
		}()
	}
	wg.Wait()
	if admitted.Load() != 1 || probes.Load() != 1 {
		t.Fatalf("half-open admitted %d (probes %d), want exactly 1", admitted.Load(), probes.Load())
	}
	// A failed probe re-opens; the cooldown restarts.
	b.result(true, false)
	if got := b.snapshot(); got != "open" {
		t.Fatalf("after failed probe: %s, want open", got)
	}
	time.Sleep(2 * time.Millisecond)
	probe, ok := b.admit()
	if !probe || !ok {
		t.Fatalf("second probe window: probe=%v ok=%v", probe, ok)
	}
	b.result(true, true)
	if got := b.snapshot(); got != "closed" {
		t.Fatalf("after successful probe: %s, want closed", got)
	}
}

// TestProbeRacesRecovery exercises the half-open probe against the
// background prober's force-reset under the race detector: query traffic
// and /healthz probes may both decide the breaker's fate concurrently.
func TestProbeRacesRecovery(t *testing.T) {
	var down atomic.Bool
	mux := http.NewServeMux()
	mux.Handle("/", scatterHandler(sampleScatter()))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := New(ts.URL, 0, Config{
		MaxRetries: -1, RetryBase: time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: 5 * time.Millisecond,
		ProbeInterval: 3 * time.Millisecond,
	})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				_, _ = c.Scatter(context.Background(), "//book", nil)
			}
		}()
	}
	for i := 0; i < 6; i++ {
		down.Store(true)
		time.Sleep(4 * time.Millisecond)
		down.Store(false)
		time.Sleep(4 * time.Millisecond)
	}
	wg.Wait()

	// Healed and given a probe cycle, the client must converge to working.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Scatter(context.Background(), "//book", nil); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after the flapping stopped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.BreakerState(); got != "closed" {
		t.Errorf("breaker %s after recovery, want closed", got)
	}
}

// TestHedgedScatter: with hedging enabled, a stalled primary attempt is
// raced by a second one and the fast response wins well before the
// primary's stall ends.
func TestHedgedScatter(t *testing.T) {
	var calls atomic.Int64
	res := sampleScatter()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(600 * time.Millisecond) // only the first request stalls
		}
		_ = WriteScatter(w, res)
	}))
	defer ts.Close()

	c := New(ts.URL, 0, noProbe(Config{HedgeAfter: 20 * time.Millisecond, MaxRetries: -1}))
	defer c.Close()
	t0 := time.Now()
	got, err := c.Scatter(context.Background(), "//book", nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed > 500*time.Millisecond {
		t.Errorf("hedged scatter took %v; the hedge should have beaten the %v stall", elapsed, 600*time.Millisecond)
	}
	if len(got.Results) != 3 {
		t.Errorf("hedged result: %+v", got)
	}
	if calls.Load() < 2 {
		t.Errorf("server saw %d calls, want the hedge's second request", calls.Load())
	}
}

// TestCloseAbortsInFlight: Close must cancel an in-flight scatter rather
// than wait out its attempt timeout.
func TestCloseAbortsInFlight(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)

	c := New(ts.URL, 0, noProbe(Config{AttemptTimeout: 30 * time.Second, MaxRetries: -1}))
	done := make(chan error, 1)
	go func() {
		_, err := c.Scatter(context.Background(), "//book", nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request get in flight
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrUnavailable) {
			t.Errorf("aborted scatter: got %v, want ErrUnavailable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scatter still in flight 5s after Close")
	}
}

// TestStatsSurface exercises the JSON side of the client against a fake
// nokserve, including the stale-cache fallback when the shard goes down.
func TestStatsSurface(t *testing.T) {
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "gone", http.StatusBadGateway)
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"nodes": 11, "epoch": 6, "tag_count": 3,
		})
	}))
	defer ts.Close()
	c := New(ts.URL, 0, noProbe(Config{MaxRetries: -1}))
	defer c.Close()

	if n := c.NodeCount(); n != 11 {
		t.Errorf("nodes %d, want 11", n)
	}
	if e := c.Epoch(); e != 6 {
		t.Errorf("epoch %d, want 6", e)
	}
	if tc := c.TagCount("book"); tc != 3 {
		t.Errorf("tag count %d, want 3", tc)
	}
	// Shard down: the getters keep serving the last good payload.
	down.Store(true)
	if n := c.NodeCount(); n != 11 {
		t.Errorf("stale nodes %d, want cached 11", n)
	}
	if e := c.Epoch(); e != 6 {
		t.Errorf("stale epoch %d, want cached 6", e)
	}
}

func TestScatterPathEncoding(t *testing.T) {
	got := scatterPath("//book[price<9]", &nok.QueryOptions{Strategy: nok.StrategyTagIndex, DisablePlanner: true})
	want := "/scatter?planner=0&q=%2F%2Fbook%5Bprice%3C9%5D&strategy=tag"
	if got != want {
		t.Errorf("scatterPath:\n got %s\nwant %s", got, want)
	}
	if got := scatterPath("//a", nil); got != "/scatter?q=%2F%2Fa" {
		t.Errorf("bare path: %s", got)
	}
}

func TestBackoffBounds(t *testing.T) {
	c := New("http://127.0.0.1:0", 0, noProbe(Config{RetryBase: 10 * time.Millisecond, RetryMax: 80 * time.Millisecond}))
	defer c.Close()
	for attempt := 1; attempt <= 12; attempt++ {
		for i := 0; i < 50; i++ {
			d := c.backoff(attempt)
			if d < 5*time.Millisecond || d > 120*time.Millisecond {
				t.Fatalf("attempt %d: backoff %v outside [base/2, 1.5*max]", attempt, d)
			}
		}
	}
}

func TestVerifyUnreachable(t *testing.T) {
	c := New("http://127.0.0.1:0", 2, noProbe(Config{MaxRetries: -1, AttemptTimeout: 200 * time.Millisecond}))
	defer c.Close()
	res := c.Verify(false)
	if len(res.Issues) == 0 {
		t.Fatal("verify of an unreachable shard reported no issues")
	}
	if want := fmt.Sprintf("remote %s", c.Addr()); res.Issues[0].Component != want {
		t.Errorf("issue component %q, want %q", res.Issues[0].Component, want)
	}
}
