// Command nokstat inspects a NoK store or explains a query plan.
//
// Usage:
//
//	nokstat -db DIR [-tag NAME] [-stats] [-metrics]
//	nokstat -explain QUERY
//
// -stats dumps the persistent statistics synopsis the cost-based planner
// consults: whether it is present and fresh, overall cardinalities, and the
// highest-cardinality tags and root-to-node paths.
//
// -metrics dumps the process-wide metrics registry (pager I/O, index and
// join counters) in Prometheus text exposition format after the other
// output; on its own it shows the counters incurred by opening the store.
//
// Exit status: 0 on success, 1 on errors (malformed query, missing store),
// 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nok"
	"nok/internal/buildinfo"
	"nok/internal/shard"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; see cmd/nokquery for the convention.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "nokstat: "+format+"\n", a...)
		return 1
	}

	fs := flag.NewFlagSet("nokstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	db := fs.String("db", "", "store directory")
	tag := fs.String("tag", "", "report the node count of one tag")
	explain := fs.String("explain", "", "explain a query instead of opening a store")
	synStats := fs.Bool("stats", false, "dump the planner's statistics synopsis")
	metrics := fs.Bool("metrics", false, "dump the metrics registry in Prometheus text format")
	version := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String())
		return 0
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	if *explain != "" {
		out, err := nok.Explain(*explain)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprint(stdout, out)
		if *metrics {
			fmt.Fprintln(stdout, "-- metrics --")
			fmt.Fprint(stdout, nok.MetricsText())
		}
		return 0
	}
	if *db == "" {
		fs.Usage()
		return 2
	}
	if shard.IsSharded(*db) {
		return runSharded(*db, *tag, *synStats, *metrics, stdout, fail)
	}
	st, err := nok.Open(*db, nil)
	if err != nil {
		return fail("%v", err)
	}
	defer st.Close()
	s := st.Stats()
	fmt.Fprintf(stdout, "version:      %s\n", buildinfo.String())
	fmt.Fprintf(stdout, "epoch:        %d\n", st.Epoch())
	if rec := st.Recovery(); rec.Recovered() {
		fmt.Fprintf(stdout, "recovery:     truncated=%d orphans_removed=%d\n",
			len(rec.TruncatedFiles), len(rec.OrphansRemoved))
	}
	fmt.Fprintf(stdout, "nodes:        %d\n", s.Nodes)
	fmt.Fprintf(stdout, "pages:        %d\n", s.Pages)
	fmt.Fprintf(stdout, "max depth:    %d\n", s.MaxDepth)
	fmt.Fprintf(stdout, "|tree|:       %d bytes\n", s.TreeBytes)
	fmt.Fprintf(stdout, "values:       %d bytes\n", s.ValueBytes)
	fmt.Fprintf(stdout, "headers(RAM): %d bytes\n", s.HeaderBytes)
	if *tag != "" {
		fmt.Fprintf(stdout, "count(%s):  %d\n", *tag, st.TagCount(*tag))
	}
	if *synStats {
		printSynopsis(stdout, st.Synopsis(10))
	}
	if *metrics {
		fmt.Fprintln(stdout, "-- metrics --")
		fmt.Fprint(stdout, nok.MetricsText())
	}
	return 0
}

// runSharded is the -db path for sharded collections: the same report over
// the merged (cross-shard) stats and synopsis, plus the shard topology.
func runSharded(dir, tag string, synStats, metrics bool, stdout io.Writer, fail func(string, ...any) int) int {
	st, err := shard.Open(dir, nil)
	if err != nil {
		return fail("%v", err)
	}
	defer st.Close()
	s := st.Stats()
	man := st.Manifest()
	fmt.Fprintf(stdout, "version:      %s\n", buildinfo.String())
	fmt.Fprintf(stdout, "epoch:        %d\n", st.Epoch())
	fmt.Fprintf(stdout, "shards:       %d (%s routing)\n", man.Shards, man.Strategy)
	for i, assign := range man.Assign {
		where := "local"
		if i < len(man.Addrs) && man.Addrs[i] != "" {
			where = "remote " + man.Addrs[i]
		}
		fmt.Fprintf(stdout, "  shard %d:    %d document(s), %s\n", i, len(assign), where)
	}
	fmt.Fprintf(stdout, "nodes:        %d\n", s.Nodes)
	fmt.Fprintf(stdout, "pages:        %d\n", s.Pages)
	fmt.Fprintf(stdout, "max depth:    %d\n", s.MaxDepth)
	fmt.Fprintf(stdout, "|tree|:       %d bytes\n", s.TreeBytes)
	fmt.Fprintf(stdout, "values:       %d bytes\n", s.ValueBytes)
	fmt.Fprintf(stdout, "headers(RAM): %d bytes\n", s.HeaderBytes)
	if tag != "" {
		fmt.Fprintf(stdout, "count(%s):  %d\n", tag, st.TagCount(tag))
	}
	if synStats {
		printSynopsis(stdout, st.Synopsis(10))
	}
	if metrics {
		fmt.Fprintln(stdout, "-- metrics --")
		fmt.Fprint(stdout, nok.MetricsText())
	}
	return 0
}

// printSynopsis renders the statistics synopsis dump for -stats.
func printSynopsis(stdout io.Writer, info nok.SynopsisInfo) {
	fmt.Fprintln(stdout, "-- statistics synopsis --")
	if !info.Present {
		fmt.Fprintln(stdout, "synopsis:     absent (store predates statistics; run an update or reload to build one)")
		fmt.Fprintln(stdout, "planner:      unavailable; auto strategy uses the paper's §6.2 heuristic")
		return
	}
	fresh := "fresh"
	if info.Stale {
		fresh = fmt.Sprintf("STALE (store is at epoch %d)", info.StoreEpoch)
	}
	fmt.Fprintf(stdout, "synopsis:     epoch %d, %s\n", info.Epoch, fresh)
	fmt.Fprintf(stdout, "nodes:        %d total, %d with values\n", info.TotalNodes, info.ValueNodes)
	fmt.Fprintf(stdout, "tree pages:   %d\n", info.TreePages)
	fmt.Fprintf(stdout, "max depth:    %d\n", info.MaxDepth)
	trunc := ""
	if info.Truncated {
		trunc = " (truncated; counts for unrecorded paths fall back to tag estimates)"
	}
	fmt.Fprintf(stdout, "distinct:     %d tags, %d paths%s\n", info.Tags, info.Paths, trunc)
	if len(info.TopTags) > 0 {
		fmt.Fprintln(stdout, "top tags:")
		for _, t := range info.TopTags {
			fmt.Fprintf(stdout, "  %-20s %d\n", t.Name, t.Count)
		}
	}
	if len(info.TopPaths) > 0 {
		fmt.Fprintln(stdout, "top paths:")
		for _, p := range info.TopPaths {
			fmt.Fprintf(stdout, "  %-40s %d\n", p.Path, p.Count)
		}
	}
}
