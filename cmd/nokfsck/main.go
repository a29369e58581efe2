// Command nokfsck checks the integrity of a NoK store.
//
// Usage:
//
//	nokfsck [-quick] [-v] DIR
//
// Opening the store already runs crash recovery (uncommitted-tail
// truncation, orphan sweep); nokfsck reports what that
// did, then verifies the recovered state. Sharded collections (a SHARDS
// manifest in DIR) are detected automatically: the routing manifest is
// cross-checked against every member store and each shard is verified in
// turn, with issues prefixed by the shard that raised them. The default check is deep: every
// page checksum, the balanced-parenthesis structure of the string tree,
// all four B+ tree leaf chains, every value record, whole-file checksums
// against the commit manifest, and every Dewey-index entry resolved back
// to a live tree position and value record. The copy-on-write page
// accounting is always checked: a physical page neither referenced by a
// live epoch nor on the free list is reported as an orphaned epoch page.
// -quick restricts the run to the manifest, count, and page-accounting
// checks.
//
// Exit status: 0 when the store is clean, 1 when issues were found (or the
// store cannot be opened at all), 2 on usage errors.
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
	fs := flag.NewFlagSet("nokfsck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage: nokfsck [-quick] [-v] DIR")
		fs.PrintDefaults()
	}
	quick := fs.Bool("quick", false, "manifest and count checks only (skip the full data scan)")
	verbose := fs.Bool("v", false, "print per-component progress counts")
	version := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String())
		return 0
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	dir := fs.Arg(0)

	if shard.IsSharded(dir) {
		return runSharded(dir, *quick, *verbose, stdout, stderr)
	}
	st, err := nok.Open(dir, nil)
	if err != nil {
		fmt.Fprintf(stderr, "nokfsck: %s: %v\n", dir, err)
		return 1
	}
	defer st.Close()

	if rec := st.Recovery(); rec.Recovered() {
		fmt.Fprintln(stdout, "recovered at open:")
		for _, f := range rec.TruncatedFiles {
			fmt.Fprintf(stdout, "  truncated uncommitted tail: %s\n", f)
		}
		for _, f := range rec.OrphansRemoved {
			fmt.Fprintf(stdout, "  removed orphan: %s\n", f)
		}
	}

	res := st.Verify(!*quick)
	mvcc := st.MVCC()
	if *verbose {
		fmt.Fprintf(stdout, "epoch:           %d\n", st.Epoch())
		fmt.Fprintf(stdout, "nodes:           %d\n", st.NodeCount())
		printMVCC(stdout, mvcc)
		if res.Deep {
			fmt.Fprintf(stdout, "pages checked:   %d\n", res.PagesChecked)
			fmt.Fprintf(stdout, "entries checked: %d\n", res.EntriesChecked)
			fmt.Fprintf(stdout, "records checked: %d\n", res.RecordsChecked)
		}
	}
	issues := len(res.Issues)
	for _, is := range res.Issues {
		fmt.Fprintf(stdout, "FAIL %s\n", is)
	}
	if mvcc.OrphanPages > 0 {
		fmt.Fprintf(stdout, "FAIL pager: %d orphaned epoch page(s) — neither referenced by a live version nor free\n", mvcc.OrphanPages)
		issues++
	}
	if issues > 0 {
		fmt.Fprintf(stdout, "%s: %d issue(s) found\n", dir, issues)
		return 1
	}
	fmt.Fprintf(stdout, "%s: ok\n", dir)
	return 0
}

// printMVCC renders the copy-on-write page accounting. FreePhysical right
// after open counts pages swept from superseded epochs and crashed
// transactions — reclaimed debris, not damage.
func printMVCC(stdout io.Writer, m nok.MVCCInfo) {
	fmt.Fprintf(stdout, "epoch pages:     %d logical, %d physical, %d free, %d orphaned\n",
		m.NumLogical, m.NumPhysical, m.FreePhysical, m.OrphanPages)
}

// runSharded verifies a sharded collection: manifest consistency first
// (every shard must agree on the broadcast root, ordinals must be strictly
// increasing and owned by exactly one shard), then each member store.
func runSharded(dir string, quick, verbose bool, stdout, stderr io.Writer) int {
	st, err := shard.Open(dir, nil)
	if err != nil {
		fmt.Fprintf(stderr, "nokfsck: %s: %v\n", dir, err)
		return 1
	}
	defer st.Close()
	man := st.Manifest()
	fmt.Fprintf(stdout, "sharded collection: %d shards, %s routing\n", man.Shards, man.Strategy)

	res := st.Verify(!quick)
	mvcc := st.MVCC()
	if verbose {
		fmt.Fprintf(stdout, "epoch:           %d\n", st.Epoch())
		fmt.Fprintf(stdout, "nodes:           %d\n", st.NodeCount())
		printMVCC(stdout, mvcc)
		if res.Deep {
			fmt.Fprintf(stdout, "pages checked:   %d\n", res.PagesChecked)
			fmt.Fprintf(stdout, "entries checked: %d\n", res.EntriesChecked)
			fmt.Fprintf(stdout, "records checked: %d\n", res.RecordsChecked)
		}
	}
	issues := len(res.Issues)
	for _, is := range res.Issues {
		fmt.Fprintf(stdout, "FAIL %s\n", is)
	}
	if mvcc.OrphanPages > 0 {
		fmt.Fprintf(stdout, "FAIL pager: %d orphaned epoch page(s) across shards — neither referenced by a live version nor free\n", mvcc.OrphanPages)
		issues++
	}
	if issues > 0 {
		fmt.Fprintf(stdout, "%s: %d issue(s) found\n", dir, issues)
		return 1
	}
	fmt.Fprintf(stdout, "%s: ok\n", dir)
	return 0
}
