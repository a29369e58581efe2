package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nok"
	"nok/internal/ingest"
	"nok/internal/server"
)

// instance is one loaded store served over a loopback listener.
type instance struct {
	in     *inputs
	store  *nok.Store
	ms     *meteredStore
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	tr     *tracer
	// load is the nok.Create time, setup the whole set-up time and
	// setupCPU the process CPU time it took.
	load, setup, setupCPU time.Duration
	// next is the reader's position in the request sequence.
	next    int
	stopped bool
}

// start bulk-loads the document, starts the server and waits for the first
// correct answer; setup covers all three.
func start(in *inputs, dir string, tr *tracer) (*instance, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	// Every set-up starts from the same heap: the previous instance's
	// garbage would otherwise pace the load's collections.
	runtime.GC()
	debug.FreeOSMemory()
	t0, c0 := time.Now(), processCPU()
	st, err := nok.CreateFromFile(dir, in.xmlPath, nil)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	x := &instance{in: in, store: st, ms: &meteredStore{Store: st}, tr: tr, load: time.Since(t0)}
	var be server.Backend = x.ms
	if tr != nil {
		be = &tracedBackend{meteredStore: x.ms, tr: tr}
	}
	// With no flush interval, a feed body of feedDocs documents is one
	// group commit however slowly it arrives.
	x.srv = server.NewBackend(be, server.Config{CacheEntries: in.cache, Ingest: ingest.Options{BatchInterval: time.Hour}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		x.srv.Shutdown(context.Background())
		return nil, err
	}
	var h http.Handler = x.srv
	if tr != nil {
		h = tr.middleware(h)
	}
	x.hs = &http.Server{Handler: h}
	x.served = make(chan error, 1)
	go func() { x.served <- x.hs.Serve(ln) }()
	x.base = "http://" + ln.Addr().String()
	conns := 1
	if in.writer {
		conns++
	}
	x.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	q := &in.queries[in.first]
	if _, ok, err := x.query(q); err != nil || !ok {
		x.stop()
		if err == nil {
			err = fmt.Errorf("wrong answer to %q", q.text)
		}
		return nil, fmt.Errorf("first query: %w", err)
	}
	x.setup, x.setupCPU = time.Since(t0), processCPU()-c0
	return x, nil
}

// stop shuts the listener and the server down (the server closes the
// store) and waits for the serving goroutine. Stopping twice is a no-op.
func (x *instance) stop() error {
	if x.stopped {
		return nil
	}
	x.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := x.hs.Shutdown(ctx)
	if serr := <-x.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	x.client.CloseIdleConnections()
	if serr := x.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// queryResp is the part of a GET /query response the checks read.
type queryResp struct {
	Count   int `json:"count"`
	Results []struct {
		ID string `json:"id"`
	} `json:"results"`
}

// cost is one request's wall time, from sending it to having read the
// whole body, and the process CPU time used meanwhile: client, server and
// runtime together.
type cost struct{ wall, cpu time.Duration }

// get issues one GET.
func (x *instance) get(path, name string) ([]byte, int, cost, error) {
	req, err := http.NewRequest(http.MethodGet, x.base+path, nil)
	if err != nil {
		return nil, 0, cost{}, err
	}
	return x.do(req, name)
}

func (x *instance) do(req *http.Request, name string) ([]byte, int, cost, error) {
	var id, rid uint64
	if x.tr != nil {
		id, rid = x.tr.newID(), x.tr.newID()
		req.Header.Set(hdrReq, strconv.FormatUint(rid, 10))
		req.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	}
	t0, c0 := time.Now(), processCPU()
	resp, err := x.client.Do(req)
	if err != nil {
		return nil, 0, cost{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c := cost{cpu: processCPU() - c0, wall: time.Since(t0)}
	if x.tr != nil {
		x.tr.record(span{ID: id, Req: rid, Name: name, Start: t0.Sub(x.tr.t0), End: t0.Add(c.wall).Sub(x.tr.t0)})
	}
	return body, resp.StatusCode, c, err
}

// query runs q and checks the answer against the oracle: count plus the
// hash of the result IDs. The fresh-documents query is not checked here
// (its answer moves); its count is returned for the caller's bounds.
func (x *instance) query(q *query) (reply, bool, error) {
	path := "/query?q=" + url.QueryEscape(q.text)
	if q.fresh {
		path += "&limit=0"
	}
	body, status, c, err := x.get(path, "client.query")
	rp := reply{cost: c, bytes: len(body)}
	if err != nil {
		return rp, false, err
	}
	if status != http.StatusOK {
		return rp, false, fmt.Errorf("GET /query: status %d: %.200s", status, body)
	}
	var r queryResp
	if err := json.Unmarshal(body, &r); err != nil {
		return rp, false, fmt.Errorf("GET /query: %w", err)
	}
	rp.count = r.Count
	if q.fresh {
		return rp, true, nil
	}
	h := fnv.New64a()
	for _, res := range r.Results {
		h.Write([]byte(res.ID))
		h.Write([]byte{0})
	}
	return rp, r.Count == q.count && len(r.Results) == q.count && h.Sum64() == q.hash, nil
}

// reply is what the checks and metrics need of one GET /query.
type reply struct {
	count, bytes int
	cost
}

// value checks GET /value/{id} for q's probe result.
func (x *instance) value(q *query) (bool, error) {
	body, status, _, err := x.get("/value/"+url.PathEscape(q.probeID), "client.value")
	if err != nil {
		return false, err
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("GET /value/%s: status %d: %.200s", q.probeID, status, body)
	}
	var r struct {
		Value    string `json:"value"`
		HasValue bool   `json:"has_value"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return false, err
	}
	return r.HasValue && r.Value == q.probeVal, nil
}

// ingest POSTs one feed batch durably and returns the acknowledged count
// and the acknowledgement's wall time.
func (x *instance) ingest(batch []byte) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, x.base+"/ingest?wait=1", bytes.NewReader(batch))
	if err != nil {
		return 0, 0, err
	}
	body, status, c, err := x.do(req, "client.ingest")
	d := c.wall
	if err != nil {
		return 0, d, err
	}
	if status != http.StatusOK {
		return 0, d, fmt.Errorf("POST /ingest: status %d: %.200s", status, body)
	}
	var r struct {
		Docs    int  `json:"docs"`
		Durable bool `json:"durable"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, d, err
	}
	if !r.Durable {
		return 0, d, fmt.Errorf("POST /ingest: acknowledgement not durable")
	}
	return r.Docs, d, nil
}

// tally counts operations and their outcomes; safe for concurrent use.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

func (t *tally) add(ok bool, err error, what string) {
	t.attempted.Add(1)
	if ok && err == nil {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) < 10 {
		if err == nil {
			err = errors.New("wrong answer")
		}
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// phase is what one timed phase measured.
type phase struct {
	// setups and setupCPU are the wall and process CPU times of each
	// set-up.
	setups, setupCPU []time.Duration
	load             time.Duration
	nodes            uint64
	// queryMS are the wall latencies of correct timed queries; queriesOK
	// counts them over elapsed. queryCPU are the process CPU times of the
	// solo ones among them (see drive), and perQuery the same by query.
	queryMS   []float64
	queryCPU  []float64
	perQuery  map[int][]float64
	queriesOK int
	elapsed   time.Duration
	respBytes int64
	results   int64
	// ackMS are the durable ingest acknowledgement latencies; docsAcked
	// documents were acknowledged by ackElapsed after the timed start
	// (for the read workloads, in ackElapsed of probe commits after the
	// timed phase).
	ackMS      []float64
	docsAcked  int
	docsBytes  int64
	ackElapsed time.Duration
	// commits are the phase's group commits, the probes included.
	commits   []coreCommit
	memPeakMB float64
	// readDelta covers the timed phase, writeDelta the timed phase plus
	// the probe commit.
	readDelta, writeDelta map[string]int64
	sizes                 storeSizes
	// tr is the traced phase's tracer; traceEnd and traceQueries mark
	// where its timed phase ended. planUS are timed Store.Plan calls.
	tr           *tracer
	traceEnd     time.Duration
	traceQueries int
	planUS       []float64
}

// runPhase sets the store up setups times (keeping the last), warms it up,
// drives the timed phase for dur, commits the probe batches on the read
// workloads, checks the final state and tears the instance down.
func runPhase(in *inputs, dir string, setups int, tr *tracer, dur time.Duration, t *tally) (*phase, error) {
	ph := &phase{tr: tr}
	var x *instance
	for i := 0; i < setups; i++ {
		if x != nil {
			if err := x.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if x, err = start(in, dir, tr); err != nil {
			t.add(false, err, "setup")
			return nil, err
		}
		t.add(true, nil, "setup")
		ph.setups = append(ph.setups, x.setup)
		ph.setupCPU = append(ph.setupCPU, x.setupCPU)
	}
	defer x.stop()
	ph.load = x.load
	ph.nodes = x.store.NodeCount()

	if in.warmup > 0 {
		x.drive(in.warmup, &phase{}, t, false)
	}

	before := counters()
	runtime.GC()
	debug.FreeOSMemory()
	if tr != nil {
		tr.reset()
	}
	stopMem := sampleMemory(&ph.memPeakMB)
	x.drive(dur, ph, t, in.writer)
	stopMem()
	if tr != nil {
		ph.traceEnd, ph.traceQueries = tr.mark()
	}
	mid := counters()
	ph.readDelta = delta(before, mid)

	if !in.writer {
		// The probe commits: probeBatches feed batches, durably, into the
		// store the read phase used, each from a collected heap as every
		// set-up.
		for k := 0; k < probeBatches; k++ {
			runtime.GC()
			n, d, err := x.ingest(in.feed[k])
			t.add(err == nil && n == feedDocs, err, "probe ingest")
			if err != nil {
				break
			}
			ph.ackMS = append(ph.ackMS, ms(d))
			ph.docsAcked += n
			ph.docsBytes += int64(len(in.feed[k]))
			ph.ackElapsed += d
		}
	}
	// Every acknowledged document must be in the store, exactly once.
	fresh := &in.queries[in.fresh]
	got, ok, err := x.query(fresh)
	if err == nil && got.count != ph.docsAcked {
		err = fmt.Errorf("store holds %d feed documents, %d were acknowledged", got.count, ph.docsAcked)
	}
	t.add(ok, err, "final fresh count")
	ph.writeDelta = delta(before, counters())
	if in.writer && ph.writeDelta["nok_ingest_docs_total"] != int64(ph.docsAcked) {
		t.add(false, fmt.Errorf("pipeline committed %d documents, %d were acknowledged",
			ph.writeDelta["nok_ingest_docs_total"], ph.docsAcked), "ingest count")
	}
	ph.commits = x.ms.log()
	if tr != nil {
		ph.planUS = planTimes(x.store, in)
	}
	epoch := x.store.Epoch()
	if err := x.stop(); err != nil {
		return nil, err
	}
	sz, err := measureStore(dir, epoch)
	if err != nil {
		return nil, err
	}
	ph.sizes = sz
	return ph, nil
}

// After the ingest workload's writer stops, the reader runs soloWarm
// queries to refill the result cache and then soloCount solo queries.
const (
	soloWarm  = 4000
	soloCount = 10000
)

// drive runs the closed loops for dur: one query connection and, with
// write set, one ingest connection that posts the first in.batches feed
// bodies and stops. Solo queries are the ones whose process CPU time is
// measured: without a writer, all of them; with one, those after the
// writer has stopped, a collection has cleared the commits' garbage and
// soloWarm queries have refilled the cache, so no commit or its aftermath
// runs beside them and they run on a store of the same size in every run.
// With a writer, exactly soloCount solo queries are measured, however long
// the commits took, and the loop runs past dur if need be to reach them.
func (x *instance) drive(dur time.Duration, ph *phase, t *tally, write bool) {
	in := x.in
	var sent, acked atomic.Int64
	var wg sync.WaitGroup
	// writing is closed when the writer stops.
	writing := make(chan struct{})
	t0 := time.Now()
	if write {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(writing)
			for k := 0; k < in.batches; k++ {
				sent.Add(feedDocs)
				n, d, err := x.ingest(in.feed[k])
				t.add(err == nil && n == feedDocs, err, "ingest")
				if err != nil || n != feedDocs {
					return
				}
				acked.Add(int64(n))
				ph.ackMS = append(ph.ackMS, ms(d))
				ph.docsAcked += n
				ph.docsBytes += int64(len(in.feed[k]))
				ph.ackElapsed = time.Since(t0)
			}
		}()
	}
	var lastDone time.Time
	answered := 0
	solo := !write
	warm := -1 // queries left to warm up once the writer has stopped
	for {
		if !solo && warm < 0 {
			select {
			case <-writing:
				runtime.GC()
				warm = soloWarm
			default:
			}
		}
		if !solo && warm == 0 {
			solo = true
		}
		if time.Since(t0) >= dur && solo && (!write || len(ph.queryCPU) >= soloCount) {
			break
		}
		if warm > 0 {
			warm--
		}
		qi := int(in.seq[x.next%len(in.seq)])
		x.next++
		q := &in.queries[qi]
		low := acked.Load()
		rp, ok, err := x.query(q)
		if ok && q.fresh {
			// A commit becomes visible before its acknowledgement
			// reaches the writer, so the upper bound is what was
			// sent, the lower what was acknowledged before asking.
			if high := sent.Load(); int64(rp.count) < low || int64(rp.count) > high {
				ok, err = false, fmt.Errorf("fresh count %d outside [%d, %d]", rp.count, low, high)
			}
		}
		t.add(ok, err, q.text)
		if !ok {
			continue
		}
		ph.queryMS = append(ph.queryMS, ms(rp.wall))
		if solo && (!write || len(ph.queryCPU) < soloCount) {
			ph.queryCPU = append(ph.queryCPU, ms(rp.cpu))
			if ph.perQuery == nil {
				ph.perQuery = map[int][]float64{}
			}
			ph.perQuery[qi] = append(ph.perQuery[qi], ms(rp.cpu))
		}
		ph.queriesOK++
		if !q.fresh {
			// The fresh-documents query ships a count only.
			ph.results += int64(rp.count)
			ph.respBytes += int64(rp.bytes)
		}
		lastDone = time.Now()
		if q.probeID != "" && in.valueEvery > 0 {
			if answered++; answered%in.valueEvery == 0 {
				ok, err := x.value(q)
				t.add(ok, err, "value "+q.probeID)
			}
		}
	}
	wg.Wait()
	ph.elapsed = lastDone.Sub(t0)
}

// planTimes times Store.Plan on up to 200 distinct query texts, in µs.
func planTimes(st *nok.Store, in *inputs) []float64 {
	var out []float64
	for i := range in.queries {
		if i >= 200 {
			break
		}
		t0 := time.Now()
		if _, err := st.Plan(in.queries[i].text); err == nil {
			out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return out
}

// counters reads the program's exported counters.
func counters() map[string]int64 {
	var s struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(nok.MetricsJSON()), &s); err != nil {
		panic(fmt.Sprintf("metrics registry is not JSON: %v", err))
	}
	return s.Counters
}

func delta(a, b map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range b {
		out[k] = v - a[k]
	}
	return out
}

// sampleMemory records, every 10 ms until the returned stop is called, the
// peak of the memory the Go runtime has mapped and not released — the
// process's memory without reading anything outside the checkout.
func sampleMemory(peakMB *float64) (stop func()) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		mb := float64(samples[0].Value.Uint64()-samples[1].Value.Uint64()) / (1 << 20)
		if mb > *peakMB {
			*peakMB = mb
		}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// storeSizes lists a store directory's bytes by kind.
type storeSizes struct {
	tree, values, sidecar, leftover, total int64
	// index maps each index (tagidx, validx, ...) to its bytes.
	index map[string]int64
	files int
}

func (s storeSizes) indexTotal() int64 {
	var n int64
	for _, v := range s.index {
		n += v
	}
	return n
}

// measureStore classifies the files of a closed store. Epoch-named files
// (kind-EPOCH.ext) of the committed epoch count by kind; older ones are
// leftovers that snapshot garbage collection has not removed.
func measureStore(dir string, epoch uint64) (storeSizes, error) {
	s := storeSizes{index: map[string]int64{}}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return s, err
	}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return s, err
		}
		n, name := fi.Size(), e.Name()
		s.total += n
		s.files++
		kind, ep, named := strings.Cut(strings.TrimSuffix(name, filepath.Ext(name)), "-")
		if named {
			if v, err := strconv.ParseUint(ep, 16, 64); err != nil || v != epoch {
				s.leftover += n
				continue
			}
		}
		switch {
		case name == "tree.pg":
			s.tree += n
		case name == "values.dat":
			s.values += n
		case strings.HasSuffix(kind, "idx"):
			s.index[kind] += n
		default:
			s.sidecar += n
		}
	}
	return s, nil
}

func (s storeSizes) String() string {
	var idx []string
	for k, v := range s.index {
		idx = append(idx, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(idx)
	return fmt.Sprintf("files=%d total=%d tree.pg=%d %s values.dat=%d sidecars=%d leftover-epochs=%d",
		s.files, s.total, s.tree, strings.Join(idx, " "), s.values, s.sidecar, s.leftover)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
