// Command perfbench is the repository's end-to-end benchmark. It generates
// a seeded document with internal/datagen, bulk-loads it into a store,
// serves the store from an in-process internal/server on a loopback
// listener and drives one workload over HTTP, checking every answer
// against the domnav oracle. The last line of its output is one JSON
// object with the run's metrics; README.md describes the workloads and
// metrics.
//
//	go run . -workload lookup|scan|ingest -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it runs
// the workload twice, untraced and traced, on fresh stores, and reports
// the per-layer metrics of the traced run plus the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: lookup, scan or ingest")
	seed := flag.Int64("seed", 1, "seed of the generated document, feed and request order")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	work := flag.String("dir", ".bench_build/perfbench-work", "scratch directory for documents, stores and traces")
	flag.Parse()
	sp, ok := specs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// One P: a query's process CPU time is then its own work, not also the
	// runtime spinning on the second CPU while client and server hand the
	// request back and forth; on a 2-CPU host that spinning varied the CPU
	// time of a 0.2 ms query by a tenth from run to run.
	runtime.GOMAXPROCS(1)
	rep, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// say prints one human-readable line; the JSON report is the last line.
func say(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func run(sp spec, seed int64, dur time.Duration, traced bool, work string) (*report, error) {
	dir := filepath.Join(work, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	in, err := prepare(sp, seed, dir)
	if err != nil {
		return nil, err
	}
	say("workload %s: %s scale %d, seed %d, %d XML bytes, %d distinct queries, oracle and feed ready in %.1fs",
		sp.name, sp.dataset, sp.scale, seed, in.xmlBytes, len(in.queries), time.Since(t0).Seconds())
	t := &tally{}
	rep := &report{Metrics: map[string]metric{}}
	store := filepath.Join(dir, "store")
	if !traced {
		ph, err := runPhase(in, store, 3, nil, dur, t)
		if err != nil {
			return nil, err
		}
		endToEnd(rep, in, ph)
	} else {
		plain, err := runPhase(in, store, 1, nil, dur, t)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		ph, err := runPhase(in, store, 1, tr, dur, t)
		if err != nil {
			return nil, err
		}
		if err := perLayer(rep, in, ph, plain, t); err != nil {
			return nil, err
		}
		path := filepath.Join(work, fmt.Sprintf("trace-%s-seed%d.jsonl", sp.name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		say("spans written to %s", path)
	}
	rep.Attempted, rep.Failed = t.attempted.Load(), t.failed.Load()
	rep.Correct = rep.Failed == 0
	if !traced {
		// failed_ratio itself is 0 on a healthy run; its complement is
		// reported so the metric is never 0.
		rep.Metrics["ok_ratio"] = metric{1 - float64(rep.Failed)/float64(rep.Attempted), "ratio"}
	}
	say("operations: %d attempted, %d failed (failed_ratio %.6f)", rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted))
	for _, e := range t.errs {
		say("failure: %s", e)
	}
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Metrics[k] = metric{0, m.Unit}
		}
	}
	return rep, nil
}

// endToEnd fills in the end-to-end metrics of an untraced phase: CPU
// times of set-ups, queries and commits (see cpu.go). The wall times are
// printed beside them and are per-layer metrics of the traced run.
func endToEnd(rep *report, in *inputs, ph *phase) {
	set := func(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }
	setupCPU := seconds(ph.setupCPU)
	p99, at := tail(ph.queryCPU)
	qps := float64(len(ph.queryCPU)) / (sum(ph.queryCPU) / 1e3)
	commitMS := commitCPU(ph.commits)
	docsPerS := float64(ph.docsAcked) / (sum(commitMS) / 1e3)
	set("setup_s", "s", median(setupCPU))
	set("query_cpu_p50_ms", "ms", median(ph.queryCPU))
	set("query_cpu_p99_ms", "ms", p99)
	set("queries_per_cpu_s", "1/s", qps)
	set("commit_cpu_ms_p50", "ms", median(commitMS))
	set("ingest_docs_per_cpu_s", "docs/s", docsPerS)
	set("bytes_per_xml_byte", "ratio", float64(ph.sizes.total)/float64(in.xmlBytes+ph.docsBytes))
	set("mem_peak_mb", "MB", ph.memPeakMB)

	w := wallOf(ph)
	say("setup: cpu %.3f s (median of %v), wall %.3f s (median of %v)", median(setupCPU), setupCPU, w.setup, seconds(ph.setups))
	say("query cpu: p50 %.3f ms, p%.2f %.3f ms, %.1f queries per cpu-second, of %d solo samples",
		median(ph.queryCPU), at*100, p99, qps, len(ph.queryCPU))
	say("query wall: p50 %.3f ms, p%.2f %.3f ms, %.1f queries/s, of %d samples", w.p50, w.at*100, w.p99, w.qps, len(ph.queryMS))
	if len(ph.perQuery) <= 16 {
		for i, l := range ph.perQuery {
			say("  %4d x cpu p50 %9.3f ms  %s (%d results)", len(l), median(l), in.queries[i].text, in.queries[i].count)
		}
	}
	say("ingest: %d documents acknowledged in %.3f s (%d acks, wall p50 %.1f ms, %.1f docs/s); %d commits, cpu %v ms",
		ph.docsAcked, ph.ackElapsed.Seconds(), len(ph.ackMS), w.ackP50, w.docsPerS, len(ph.commits), roundAll(commitMS))
	say("store: %s", ph.sizes)
	say("pager writes: %d pages = %d bytes for %d ingested bytes", ph.writeDelta["nok_pager_physical_writes_total"],
		ph.writeDelta["nok_pager_physical_writes_total"]*pageSize, ph.docsBytes)
}

// wall holds a phase's wall-clock figures: what a client of this machine
// saw, at whatever speed the host gave it.
type wall struct {
	setup, p50, p99, at, qps, docsPerS, ackP50 float64
}

func wallOf(ph *phase) wall {
	w := wall{setup: median(seconds(ph.setups)), p50: median(ph.queryMS), ackP50: median(ph.ackMS)}
	w.p99, w.at = tail(ph.queryMS)
	w.qps = float64(ph.queriesOK) / ph.elapsed.Seconds()
	w.docsPerS = float64(ph.docsAcked) / ph.ackElapsed.Seconds()
	return w
}

func commitCPU(cs []coreCommit) []float64 {
	var out []float64
	for _, c := range cs {
		out = append(out, ms(c.cpu))
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	var out []float64
	for _, d := range ds {
		out = append(out, d.Seconds())
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x)
	}
	return out
}

// pageSize is the store's page size (nok's default, which the benchmark
// does not override).
const pageSize = 4096

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the p99 latency, or the value at the highest percentile
// that still has at least ten samples beyond it, and the percentile used.
func tail(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	p := 0.99
	if beyond := float64(n) * (1 - p); beyond < 10 {
		p = math.Max(0.5, float64(n-10)/float64(n))
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], p
}
