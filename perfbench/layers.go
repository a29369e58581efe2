package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"time"

	"nok"
	"nok/internal/ingest"
	"nok/internal/pattern"
	"nok/internal/sax"
)

// perLayer fills in the per-layer metrics of the traced phase ph, and the
// tracing overhead against the untraced phase plain. README.md ties each
// metric to the end-to-end metric and workload it should move.
func perLayer(rep *report, in *inputs, ph, plain *phase, t *tally) error {
	set := func(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tr := ph.tr
	rd, wr := ph.readDelta, ph.writeDelta
	c := func(m map[string]int64, name string) float64 { return float64(m[name]) }

	// Backend query calls and their QueryStats, of the timed phase only
	// (the final checks come after it); commits include the probe.
	var qus []float64
	var qns, results, nodes, npm, starts, joins, examined, skipped float64
	tr.mu.Lock()
	queries := append([]coreQuery(nil), tr.queries...)
	tr.mu.Unlock()
	commits := ph.commits
	for _, q := range queries[:ph.traceQueries] {
		qus = append(qus, float64(q.dur.Nanoseconds())/1e3)
		qns += float64(q.dur.Nanoseconds())
		results += float64(q.results)
		nodes += float64(q.stats.NodesVisited)
		npm += float64(q.stats.NPMCalls)
		starts += float64(q.stats.StartingPoints)
		joins += float64(q.stats.JoinInputs)
		examined += float64(q.stats.PagesScanned)
		skipped += float64(q.stats.PagesSkipped)
	}
	nq := float64(len(qus))

	var self []float64
	for _, d := range tr.roundTripMinusCore(ph.traceEnd) {
		self = append(self, float64(d.Nanoseconds())/1e3)
	}
	set("server.self_us_p50", "us", median(self))
	set("server.cache_hit_ratio", "ratio", ratio(c(rd, "nokserve_cache_hits_total"), c(rd, "nokserve_cache_hits_total")+c(rd, "nokserve_cache_misses_total")))
	set("server.response_bytes_per_result", "B/result", ratio(float64(ph.respBytes), float64(ph.results)))

	p99, _ := tail(qus)
	set("core.query_us_p50", "us", median(qus))
	set("core.query_us_p99", "us", p99)
	set("core.nodes_visited_per_result", "nodes/result", ratio(nodes, results))
	set("core.npm_calls_per_query", "calls/query", ratio(npm, nq))
	set("core.starting_points_per_result", "points/result", ratio(starts, results))
	set("join.inputs_per_result", "items/result", ratio(joins, results))

	parse, err := parseTimes(in)
	if err != nil {
		return err
	}
	set("pattern.parse_us", "us", median(parse))
	set("planner.plan_us", "us", median(ph.planUS))
	set("planner.plan_cache_hit_ratio", "ratio", ratio(c(rd, "nok_plan_cache_hits_total"), c(rd, "nok_plan_cache_hits_total")+c(rd, "nok_plan_cache_misses_total")))
	set("planner.fallbacks", "count", c(rd, "nok_plan_fallbacks_total"))

	hits, reads := c(rd, "nok_pager_cache_hits_total"), c(rd, "nok_pager_physical_reads_total")
	set("pager.accesses_per_query", "pages/query", ratio(hits+reads, nq))
	set("pager.hit_ratio", "ratio", ratio(hits, hits+reads))
	set("pager.physical_reads_per_query", "pages/query", ratio(reads, nq))
	ncommits := float64(len(commits))
	set("pager.cow_copies_per_commit", "pages/commit", ratio(c(wr, "nok_pager_cow_copies_total"), ncommits))
	set("pager.bytes_written_per_ingested_byte", "ratio", ratio(c(wr, "nok_pager_physical_writes_total")*pageSize, float64(ph.docsBytes)))

	set("stree.pages_examined_per_query", "pages/query", ratio(examined, nq))
	set("stree.pages_skipped_ratio", "ratio", ratio(skipped, examined+skipped))
	set("stree.ns_per_page_examined", "ns/page", ratio(qns, examined))

	set("btree.lookups_per_query", "lookups/query", ratio(c(rd, "nok_btree_lookups_total"), nq))
	set("btree.seeks_per_query", "seeks/query", ratio(c(rd, "nok_btree_seeks_total"), nq))
	set("btree.inserts_per_ingested_doc", "inserts/doc", ratio(c(wr, "nok_btree_inserts_total"), float64(ph.docsAcked)))
	set("vstore.reads_per_result", "reads/result", ratio(c(rd, "nok_vstore_reads_total"), results))
	set("vstore.appends_per_ingested_doc", "appends/doc", ratio(c(wr, "nok_vstore_appends_total"), float64(ph.docsAcked)))

	saxNS, err := saxTime(in.xmlPath)
	if err != nil {
		return err
	}
	set("sax.ns_per_byte", "ns/B", saxNS)
	splitNS, err := splitTime(in.feed[:8])
	if err != nil {
		return err
	}
	set("ingest.split_ns_per_byte", "ns/B", splitNS)
	set("ingest.docs_per_commit", "docs/commit", ratio(c(wr, "nok_ingest_docs_total"), c(wr, "nok_ingest_batches_total")))
	set("ingest.backpressure_ratio", "ratio", ratio(c(wr, "nok_ingest_backpressure_total"), c(wr, "nok_ingest_backpressure_total")+float64(ph.docsAcked)))

	set("core.load_ns_per_node", "ns/node", ratio(float64(ph.load.Nanoseconds()), float64(ph.nodes)))
	var cms []float64
	for _, cm := range commits {
		cms = append(cms, float64(cm.dur.Nanoseconds())/1e6)
	}
	set("core.commit_ms_p50", "ms", median(cms))
	set("core.commit_scaling_exponent", "ratio", scalingExponent(commits))
	// Commit time at three store sizes reached during the run: the first,
	// middle and last commit.
	for i, at := range []string{"first", "mid", "last"} {
		var cm coreCommit
		if len(commits) > 0 {
			cm = commits[i*(len(commits)-1)/2]
		}
		set("core.commit_ms_"+at, "ms", float64(cm.dur.Nanoseconds())/1e6)
		set("core.commit_nodes_"+at, "nodes", float64(cm.nodes))
	}

	xb := float64(in.xmlBytes + ph.docsBytes)
	set("store.tree_bytes_per_xml_byte", "ratio", float64(ph.sizes.tree)/xb)
	set("store.index_bytes_per_xml_byte", "ratio", float64(ph.sizes.indexTotal())/xb)
	set("store.values_bytes_per_xml_byte", "ratio", float64(ph.sizes.values)/xb)

	streamMS, err := streamTime(in, t)
	if err != nil {
		return err
	}
	set("stream.scan_ms", "ms", streamMS)

	// The untraced phase's wall-clock figures: what a client saw, at
	// whatever speed the host gave it.
	w := wallOf(plain)
	set("wall.setup_s", "s", w.setup)
	set("wall.query_p50_ms", "ms", w.p50)
	set("wall.query_p99_ms", "ms", w.p99)
	set("wall.query_qps", "1/s", w.qps)
	set("wall.ingest_docs_per_s", "docs/s", w.docsPerS)
	set("wall.ingest_ack_p50_ms", "ms", w.ackP50)

	// Tracing overhead: the traced phase against the untraced one, as
	// ratios of their end-to-end timings (1 = no overhead).
	set("trace.query_cpu_p50_ratio", "ratio", ratio(median(ph.queryCPU), median(plain.queryCPU)))
	set("trace.queries_per_cpu_s_ratio", "ratio", ratio(sum(plain.queryCPU)/float64(len(plain.queryCPU)), sum(ph.queryCPU)/float64(len(ph.queryCPU))))
	set("trace.commit_cpu_ratio", "ratio", ratio(sum(commitCPU(ph.commits)), sum(commitCPU(plain.commits))))

	selfs := tr.selfTimes()
	for _, name := range []string{"client.query", "server.http", "core.query", "client.value", "core.value", "client.ingest", "core.commit"} {
		var us []float64
		var total time.Duration
		for _, d := range selfs[name] {
			us = append(us, float64(d.Nanoseconds())/1e3)
			total += d
		}
		say("self time %-13s %7d spans, total %9.1f ms, p50 %9.1f us", name, len(us), ms(total), median(us))
	}
	say("commits: %d, at store sizes %v nodes", len(commits), commitSizes(commits))
	say("store: %s", ph.sizes)
	say("tracing overhead: query cpu p50 %.3f -> %.3f ms, wall p50 %.3f -> %.3f ms",
		median(plain.queryCPU), median(ph.queryCPU), w.p50, median(ph.queryMS))
	return nil
}

func commitSizes(cs []coreCommit) []uint64 {
	var out []uint64
	for _, c := range cs {
		out = append(out, c.nodes)
	}
	return out
}

// scalingExponent fits commit time ∝ nodes^k by least squares on the log
// scale and returns k; 0 with fewer than three commits.
func scalingExponent(cs []coreCommit) float64 {
	if len(cs) < 3 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, c := range cs {
		x, y := math.Log(float64(c.nodes)), math.Log(c.dur.Seconds())
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	n := float64(len(cs))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// parseTimes times pattern.Parse on every distinct query text, in µs.
func parseTimes(in *inputs) ([]float64, error) {
	var out []float64
	for _, q := range in.queries {
		t0 := time.Now()
		if _, err := pattern.Parse(q.text); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return out, nil
}

// saxTime scans the document with the SAX scanner three times and returns
// the median ns per byte.
func saxTime(path string) (float64, error) {
	var runs []float64
	for i := 0; i < 3; i++ {
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		cr := &countingReader{r: bufio.NewReaderSize(f, 1<<16)}
		sc := sax.NewScanner(cr)
		t0 := time.Now()
		for {
			if _, err = sc.Next(); err != nil {
				break
			}
		}
		d := time.Since(t0)
		f.Close()
		if err != io.EOF {
			return 0, err
		}
		runs = append(runs, float64(d.Nanoseconds())/float64(cr.n))
	}
	return median(runs), nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// splitTime cuts the feed bodies into documents with ingest.Splitter three
// times and returns the median ns per byte.
func splitTime(bodies [][]byte) (float64, error) {
	all := bytes.Join(bodies, nil)
	var runs []float64
	for i := 0; i < 3; i++ {
		sp := ingest.NewSplitter(bytes.NewReader(all))
		docs := 0
		t0 := time.Now()
		for {
			_, err := sp.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			docs++
		}
		if docs != len(bodies)*feedDocs {
			return 0, fmt.Errorf("splitter found %d documents in %d", docs, len(bodies)*feedDocs)
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(len(all)))
	}
	return median(runs), nil
}

// streamTime runs nok.StreamAll over the document for each structural
// query, checks its answer against the oracle, and returns the mean ms per
// query: the streaming reference the stored evaluation is compared with.
func streamTime(in *inputs, t *tally) (float64, error) {
	var total time.Duration
	for _, i := range in.structural {
		q := &in.queries[i]
		f, err := os.Open(in.xmlPath)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		rs, err := nok.StreamAll(bufio.NewReaderSize(f, 1<<16), q.text)
		total += time.Since(t0)
		f.Close()
		if err != nil {
			t.add(false, err, "stream "+q.text)
			continue
		}
		h := fnv.New64a()
		for _, r := range rs {
			h.Write([]byte(r.ID))
			h.Write([]byte{0})
		}
		t.add(len(rs) == q.count && h.Sum64() == q.hash, nil, "stream "+q.text)
	}
	return ms(total) / float64(len(in.structural)), nil
}
