package server

// fault_test.go — the robustness surface added for remote shards: panic
// recovery middleware, the binary /scatter endpoint, the 503 mapping for
// typed shard unavailability, and the ?partial= opt-in plumbing.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"nok"
	"nok/internal/remote"
)

// faultBackend is a scriptable Backend for failure-path tests.
type faultBackend struct {
	queryErr     error
	panicMsg     string
	stats        *nok.QueryStats
	results      []nok.Result
	queries      atomic.Int64
	sawPartial   atomic.Bool
	sawPartialOK atomic.Bool
}

func (f *faultBackend) QueryWithOptionsContext(ctx context.Context, expr string, opts *nok.QueryOptions) ([]nok.Result, *nok.QueryStats, error) {
	f.queries.Add(1)
	if opts != nil {
		f.sawPartialOK.Store(true)
		f.sawPartial.Store(opts.AllowPartial)
	}
	if f.panicMsg != "" {
		panic(f.panicMsg)
	}
	if f.queryErr != nil {
		return nil, nil, f.queryErr
	}
	st := f.stats
	if st == nil {
		st = &nok.QueryStats{}
	}
	return f.results, st, nil
}

func (f *faultBackend) QueryAnalyze(expr string, opts *nok.QueryOptions) ([]nok.Result, *nok.QueryStats, string, error) {
	rs, st, err := f.QueryWithOptionsContext(context.Background(), expr, opts)
	return rs, st, "", err
}
func (f *faultBackend) Plan(expr string) (string, error)           { return "", nil }
func (f *faultBackend) Value(id string) (string, bool, error)      { return "", false, nil }
func (f *faultBackend) Insert(parent string, frag io.Reader) error { return nil }
func (f *faultBackend) Delete(id string) error                     { return nil }
func (f *faultBackend) Stats() nok.Stats                           { return nok.Stats{} }
func (f *faultBackend) NodeCount() uint64                          { return 1 }
func (f *faultBackend) Epoch() uint64                              { return 1 }
func (f *faultBackend) Synopsis(n int) nok.SynopsisInfo            { return nok.SynopsisInfo{} }
func (f *faultBackend) Verify(deep bool) *nok.VerifyResult         { return &nok.VerifyResult{} }
func (f *faultBackend) Close() error                               { return nil }

func newFaultServer(t *testing.T, f *faultBackend, cfg Config) string {
	t.Helper()
	srv := NewBackend(f, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return ts.URL
}

// TestPanicRecovery: a handler panic becomes a 500 with a JSON error,
// bumps nok_panics_total, and leaves the server serving.
func TestPanicRecovery(t *testing.T) {
	f := &faultBackend{panicMsg: "index out of range [7]"}
	url := newFaultServer(t, f, Config{CacheEntries: -1})

	before := mPanics.Value()
	var er errorResponse
	if code := getJSON(t, url+"/query?q=%2F%2Fa", &er); code != 500 {
		t.Fatalf("panicking query: status %d, want 500", code)
	}
	if er.Error == "" {
		t.Error("panic response has no error body")
	}
	if got := mPanics.Value(); got != before+1 {
		t.Errorf("nok_panics_total %d, want %d", got, before+1)
	}

	// The server survives: the next request is handled normally.
	f.panicMsg = ""
	var qr queryResponse
	if code := getJSON(t, url+"/query?q=%2F%2Fa", &qr); code != 200 {
		t.Fatalf("request after panic: status %d, want 200", code)
	}
}

// TestShardUnavailableMaps503: the typed unavailability sentinel surfaces
// as 503 + Retry-After, not as a generic 500 — load balancers and
// retrying clients key off exactly this distinction.
func TestShardUnavailableMaps503(t *testing.T) {
	f := &faultBackend{queryErr: &wrapUnavailable{}}
	url := newFaultServer(t, f, Config{CacheEntries: -1})

	before := mShardUnavail.Value()
	resp, err := http.Get(url + "/query?q=%2F%2Fa")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := mShardUnavail.Value(); got != before+1 {
		t.Errorf("unavailable counter %d, want %d", got, before+1)
	}
}

// wrapUnavailable stands in for shard.UnavailableError: it wraps a
// deadline (as a timed-out remote attempt does) yet must still map to
// 503, not 504 — unavailability is checked first on purpose.
type wrapUnavailable struct{}

func (e *wrapUnavailable) Error() string { return "shards [2] unavailable: attempt timed out" }
func (e *wrapUnavailable) Is(target error) bool {
	return target == nok.ErrShardUnavailable
}
func (e *wrapUnavailable) Unwrap() error { return context.DeadlineExceeded }

// TestPartialParam: the per-request ?partial= override and the server
// default both reach the backend's QueryOptions, and a degraded answer
// is marked in the JSON response and never cached.
func TestPartialParam(t *testing.T) {
	f := &faultBackend{stats: &nok.QueryStats{Degraded: true, MissingShards: []int{1, 3}}}
	url := newFaultServer(t, f, Config{AllowPartial: true})

	var qr queryResponse
	if code := getJSON(t, url+"/query?q=%2F%2Fa", &qr); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !f.sawPartial.Load() {
		t.Error("-allow-partial default did not reach QueryOptions")
	}
	if !qr.Degraded || !reflect.DeepEqual(qr.MissingShards, []int{1, 3}) {
		t.Errorf("degraded response: %+v", qr)
	}

	// ?partial=0 overrides the permissive default.
	if code := getJSON(t, url+"/query?q=%2F%2Fa&partial=0", &qr); code != 200 {
		t.Fatalf("status %d", code)
	}
	if f.sawPartial.Load() {
		t.Error("?partial=0 did not override the server default")
	}

	// Degraded answers bypass the cache: the same query hits the backend
	// every time.
	n := f.queries.Load()
	if code := getJSON(t, url+"/query?q=%2F%2Fa", &qr); code != 200 || qr.Cached {
		t.Fatalf("repeat degraded query: status %d cached=%v", code, qr.Cached)
	}
	if f.queries.Load() != n+1 {
		t.Error("degraded answer was served from cache")
	}
}

// TestScatterEndpoint: the binary endpoint streams the same matches
// /query returns as JSON, plus a pruned frame when statistics prove the
// shard empty.
func TestScatterEndpoint(t *testing.T) {
	_, ts := newTestServer(t, buildXML(50), Config{})

	var qr queryResponse
	if code := getJSON(t, ts.URL+"/query?q=%2F%2Fbook%2Ftitle", &qr); code != 200 {
		t.Fatalf("query status %d", code)
	}

	resp, err := http.Get(ts.URL + "/scatter?q=%2F%2Fbook%2Ftitle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("scatter status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-nok-scatter" {
		t.Errorf("content type %q", ct)
	}
	res, err := remote.ReadScatter(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned || len(res.Results) != qr.Count || res.Stats == nil || res.Epoch == 0 {
		t.Fatalf("scatter result: pruned=%v results=%d (want %d) stats=%v epoch=%d",
			res.Pruned, len(res.Results), qr.Count, res.Stats != nil, res.Epoch)
	}
	for i, r := range res.Results {
		if r.ID != qr.Results[i].ID || r.Value != qr.Results[i].Value {
			t.Fatalf("scatter result %d: %+v vs query %+v", i, r, qr.Results[i])
		}
	}

	// A tag the synopsis proves absent: one pruned frame, no evaluation.
	resp2, err := http.Get(ts.URL + "/scatter?q=%2F%2Fnosuchtag")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	pr, err := remote.ReadScatter(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Pruned || pr.Reason == "" || len(pr.Results) != 0 {
		t.Fatalf("pruned scatter: %+v", pr)
	}

	// Bad requests stay JSON errors, not binary streams.
	var er errorResponse
	if code := getJSON(t, ts.URL+"/scatter?q=%2F%2Fbook%5B", &er); code != 400 || er.Error == "" {
		t.Fatalf("malformed scatter query: %d %+v", code, er)
	}
	if code := getJSON(t, ts.URL+"/scatter", &er); code != 400 {
		t.Fatalf("missing q: %d", code)
	}
}
