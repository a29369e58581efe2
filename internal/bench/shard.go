package bench

// shard.go — the scale-out experiment behind nokbench -table shard.

import (
	"fmt"
	"io"
	"os"
	"strings"

	"nok"
	"nok/internal/shard"
)

// ---- sharded scatter-gather speedup ------------------------------------------

// ShardRow reports one topology of the scale-out experiment: the same
// tag-selective workload against the same collection held as a single
// store and as sharded collections of growing width.
type ShardRow struct {
	Shards  int     // 0 = the single-store baseline
	UsPass  float64 // microseconds per workload pass (median of runs)
	Speedup float64 // baseline time / this time
	Pruned  int64   // shards skipped by statistics across one pass
	Scanned int64   // pages scanned across one pass
}

// ShardSpeedupMin is the acceptance budget: the 4-shard, path-routed
// topology must answer the scan-bound workload at least this much faster
// than the single store. The speedup is structural, not a core-count
// artifact — per-shard tag statistics prune the shards whose kind tag is
// absent, so the surviving shard's partition scan covers a quarter of the
// collection — which keeps the budget meaningful on single-core CI
// runners, with scatter parallelism adding to it on wider machines.
const ShardSpeedupMin = 1.5

// shardDoc builds the collection: four document kinds in equal numbers
// (path routing deals them onto one shard each), every kind carrying the
// same <meta><val> block. Because the val fields are shared across kinds
// and frequent (16 per document), neither the tag index nor the value
// index offers the single store a selective anchor for the workload's
// wildcard step — the honest plan everywhere is a partition scan, whose
// cost is proportional to the data a store holds.
func shardDoc(perKind int) string {
	var sb strings.Builder
	sb.WriteString(`<corpus era="modern">`)
	for i := 0; i < perKind; i++ {
		for _, kind := range []string{"book", "article", "thesis", "report"} {
			fmt.Fprintf(&sb, "<%s><title>t%d</title><meta>", kind, i)
			for j := 0; j < 16; j++ {
				fmt.Fprintf(&sb, "<val>%d</val>", (i+j*13)%500)
			}
			fmt.Fprintf(&sb, "</meta></%s>", kind)
		}
	}
	sb.WriteString("</corpus>")
	return sb.String()
}

// shardQueries is the workload: one scan-bound query per document kind.
// The wildcard step cannot be index-anchored (no tag), the range predicate
// cannot use the value index, and val appears everywhere — so the single
// store scans the whole collection per query. The kind tag contributes no
// cheap anchor (its subtree must be walked regardless) but it is exactly
// what per-shard statistics prune on: three of four shards prove the tag
// absent and drop out, leaving a scan of a quarter of the data.
var shardQueries = []string{
	`//book//*[val<3]`,
	`//article//*[val<3]`,
	`//thesis//*[val<3]`,
	`//report//*[val<3]`,
}

// shardStore is the query surface the experiment needs from both layouts.
type shardStore interface {
	QueryWithOptions(expr string, opts *nok.QueryOptions) ([]nok.Result, *nok.QueryStats, error)
	Close() error
}

// Shard measures scatter-gather evaluation against sharded collections of
// width 1, 2 and 4 (path routing) vs the single-store baseline. One pass
// runs every workload query once; the reported time is the median pass
// over cfg.Runs batches of passes.
func Shard(cfg Config) ([]ShardRow, error) {
	cfg = cfg.WithDefaults()

	tmp, err := os.MkdirTemp("", "nok-shard")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	xmlPath := tmp + "/corpus.xml"
	if err := os.WriteFile(xmlPath, []byte(shardDoc(400*cfg.Scale)), 0o644); err != nil {
		return nil, err
	}

	// passStats runs the workload once and accumulates the counters the
	// row reports; timing wraps it with warm pages.
	passStats := func(st shardStore, row *ShardRow) error {
		for _, q := range shardQueries {
			_, stats, err := st.QueryWithOptions(q, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", q, err)
			}
			row.Scanned += int64(stats.PagesScanned)
			for _, sh := range stats.Shards {
				if sh.Skipped {
					row.Pruned++
				}
			}
		}
		return nil
	}
	measure := func(st shardStore, row *ShardRow) error {
		// Warm up: pages into the pool, plan caches populated.
		if err := passStats(st, row); err != nil {
			return err
		}
		row.Scanned, row.Pruned = 0, 0
		if err := passStats(st, row); err != nil {
			return err
		}
		d, _, err := timeMedian(cfg.Runs, func() (int, error) {
			const passes = 8
			for i := 0; i < passes; i++ {
				for _, q := range shardQueries {
					if _, _, err := st.QueryWithOptions(q, nil); err != nil {
						return 0, err
					}
				}
			}
			return passes, nil
		})
		if err != nil {
			return err
		}
		row.UsPass = d.Seconds() * 1e6 / 8
		return nil
	}

	var rows []ShardRow
	single, err := nok.CreateFromFile(tmp+"/single", xmlPath, &nok.Options{PageSize: cfg.PageSize})
	if err != nil {
		return nil, err
	}
	base := ShardRow{Shards: 0}
	err = measure(single, &base)
	single.Close()
	if err != nil {
		return nil, err
	}
	base.Speedup = 1
	rows = append(rows, base)

	for _, n := range []int{1, 2, 4} {
		st, err := shard.CreateFromFile(fmt.Sprintf("%s/shards-%d", tmp, n), xmlPath,
			&shard.Options{Shards: n, Strategy: shard.StrategyPath, Store: &nok.Options{PageSize: cfg.PageSize}})
		if err != nil {
			return nil, err
		}
		row := ShardRow{Shards: n}
		err = measure(st, &row)
		st.Close()
		if err != nil {
			return nil, err
		}
		if row.UsPass > 0 {
			row.Speedup = base.UsPass / row.UsPass
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteShard renders the scale-out experiment; the 4-shard line carries
// the ≥1.5× acceptance budget.
func WriteShard(w io.Writer, rows []ShardRow) {
	fmt.Fprintf(w, "%-10s %14s %9s %8s %14s\n", "topology", "pass(µs)", "speedup", "pruned", "pages scanned")
	for _, r := range rows {
		name := "single"
		if r.Shards > 0 {
			name = fmt.Sprintf("%d shard(s)", r.Shards)
		}
		verdict := ""
		if r.Shards == 4 {
			verdict = fmt.Sprintf("  (budget ≥%.1fx: ", ShardSpeedupMin)
			if r.Speedup >= ShardSpeedupMin {
				verdict += "PASS)"
			} else {
				verdict += "FAIL)"
			}
		}
		fmt.Fprintf(w, "%-10s %14.1f %8.2fx %8d %14d%s\n", name, r.UsPass, r.Speedup, r.Pruned, r.Scanned, verdict)
	}
}

// ShardSpeedupAt returns the measured speedup for the given width (0 when
// the width was not measured).
func ShardSpeedupAt(rows []ShardRow, shards int) float64 {
	for _, r := range rows {
		if r.Shards == shards {
			return r.Speedup
		}
	}
	return 0
}
