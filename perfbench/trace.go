package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nok"
)

// Request headers that carry the client's request and span IDs to the
// server side of a traced run.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 2_000_000

// span is one timed call at a layer boundary. Start and End are offsets
// from the tracer's start; Parent is the ID of the span that caused it (0
// for none) and Req the client request it serves (0 for background work
// such as group commits).
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    uint64        `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// coreQuery is one Backend query call with its evaluation statistics.
type coreQuery struct {
	dur     time.Duration
	results int
	stats   nok.QueryStats
}

// tracer keeps spans and per-call records in memory until the run ends.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
	queries []coreQuery
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// reset drops everything recorded so far: the traced phase keeps only
// what happens from the start of its timed phase on.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.dropped, t.queries = nil, 0, nil
}

// mark returns the current time offset and the number of recorded
// queries, so metrics can stop at the end of the timed phase.
func (t *tracer) mark() (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Since(t.t0), len(t.queries)
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// spanRef travels in a request context from the HTTP middleware to the
// Backend wrapper.
type spanRef struct{ req, span uint64 }

type spanKey struct{}

// middleware wraps the server's handler in a "server.http" span whose
// parent is the client span named in the request headers.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		id := t.newID()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{req, id})))
		t.record(span{ID: id, Parent: parent, Req: req, Name: "server.http", Start: start.Sub(t.t0), End: time.Since(t.t0)})
	})
}

// tracedBackend is the server.Backend (and ingest target) the traced run
// serves: the metered store, with its query, value and commit calls
// recorded as spans.
type tracedBackend struct {
	*meteredStore
	tr *tracer
}

func (b *tracedBackend) QueryWithOptionsContext(ctx context.Context, expr string, opts *nok.QueryOptions) ([]nok.Result, *nok.QueryStats, error) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	id := b.tr.newID()
	start := time.Now()
	rs, st, err := b.Store.QueryWithOptionsContext(ctx, expr, opts)
	end := time.Now()
	b.tr.record(span{ID: id, Parent: ref.span, Req: ref.req, Name: "core.query", Start: start.Sub(b.tr.t0), End: end.Sub(b.tr.t0)})
	if err == nil && st != nil {
		b.tr.mu.Lock()
		b.tr.queries = append(b.tr.queries, coreQuery{dur: end.Sub(start), results: len(rs), stats: *st})
		b.tr.mu.Unlock()
	}
	return rs, st, err
}

func (b *tracedBackend) Value(id string) (string, bool, error) {
	start := time.Now()
	v, ok, err := b.Store.Value(id)
	b.tr.record(span{ID: b.tr.newID(), Name: "core.value", Start: start.Sub(b.tr.t0), End: time.Since(b.tr.t0)})
	return v, ok, err
}

// InsertBatch is called by the server's ingest pipeline on its committer
// goroutine, outside any request, so its span has no parent.
func (b *tracedBackend) InsertBatch(parentID string, frags [][]byte) error {
	start := time.Now()
	err := b.meteredStore.InsertBatch(parentID, frags)
	b.tr.record(span{ID: b.tr.newID(), Name: "core.commit", Start: start.Sub(b.tr.t0), End: time.Since(b.tr.t0)})
	return err
}

// selfTimes returns, per span name, the durations of each span minus the
// parts of it its child spans cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[uint64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start-child[s.ID])
	}
	return out
}

// roundTripMinusCore returns, per client query span starting before end,
// its duration minus the Backend query spans of the same request: the time
// spent in HTTP, JSON, the result cache and the client.
func (t *tracer) roundTripMinusCore(end time.Duration) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	core := map[uint64]time.Duration{}
	for _, s := range t.spans {
		if s.Name == "core.query" && s.Req != 0 {
			core[s.Req] += s.End - s.Start
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == "client.query" && s.Start < end {
			out = append(out, s.End-s.Start-core[s.Req])
		}
	}
	return out
}

// write saves the spans as JSON lines, sorted by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
