package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"nok/internal/core"
	"nok/internal/dewey"
	"nok/internal/pager"
	"nok/internal/pattern"
	"nok/internal/stream"
	"nok/internal/stree"
	"nok/internal/symtab"
	"nok/internal/workload"
)

// ---- storage ratios (§4.2) ---------------------------------------------------

// RatioRow quantifies the §4.2 claims: "the string representation of the
// tree structure is only about 1/20 to 1/100 of the size of the XML
// document" and the in-RAM page-header table is tiny.
type RatioRow struct {
	Dataset     string
	DocBytes    int64
	TreeBytes   int64
	Ratio       float64 // DocBytes / TreeBytes
	HeaderBytes int     // in-RAM page header table
	// HeaderPerTB extrapolates header memory to one terabyte of XML, the
	// paper's "21MB to 70MB per 1TB" argument.
	HeaderPerTB float64
	// ValueBytes is the out-of-line value data; TreeBytes/(TreeBytes+ValueBytes)
	// shows what structure/value separation buys the scan path.
	ValueBytes int64
}

// Ratios computes the ratio row per dataset.
func Ratios(cfg Config) ([]RatioRow, error) {
	cfg = cfg.WithDefaults()
	var rows []RatioRow
	for _, name := range cfg.Datasets {
		env, err := Prepare(cfg, name)
		if err != nil {
			return nil, err
		}
		tree := int64(env.NoK.Tree.TokenBytes())
		hdr := env.NoK.Tree.HeaderBytes()
		r := RatioRow{
			Dataset:     name,
			DocBytes:    env.Stats.Bytes,
			TreeBytes:   tree,
			HeaderBytes: hdr,
			ValueBytes:  env.NoK.Values.Size(),
		}
		if tree > 0 {
			r.Ratio = float64(env.Stats.Bytes) / float64(tree)
		}
		if env.Stats.Bytes > 0 {
			r.HeaderPerTB = float64(hdr) / float64(env.Stats.Bytes) * (1 << 40)
		}
		rows = append(rows, r)
		env.Close()
	}
	return rows, nil
}

// WriteRatios renders the ratio table.
func WriteRatios(w io.Writer, rows []RatioRow) {
	fmt.Fprintf(w, "%-10s %12s %12s %9s %12s %14s %12s\n",
		"data set", "doc", "|tree|", "doc/tree", "headers", "headers/1TB", "values")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12s %12s %8.1fx %12s %11.0f MB %12s\n",
			r.Dataset, mb(r.DocBytes), mb(r.TreeBytes), r.Ratio,
			mb(int64(r.HeaderBytes)), r.HeaderPerTB/(1<<20), mb(r.ValueBytes))
	}
}

// ---- Proposition 1: single-pass I/O -------------------------------------------

// IORow verifies Proposition 1: during NoK evaluation, physical reads of
// the string-tree file never exceed its page count (each page read ≤ once,
// given a buffer pool that does not thrash).
type IORow struct {
	Dataset    string
	Query      string
	Pages      int
	Reads      int64
	Hits       int64
	SinglePass bool
}

// IO runs the scan-strategy Q12 query of each dataset with a cold,
// sufficiently large pool and reports page I/O.
func IO(cfg Config) ([]IORow, error) {
	cfg = cfg.WithDefaults()
	var rows []IORow
	for _, name := range cfg.Datasets {
		env, err := Prepare(cfg, name)
		if err != nil {
			return nil, err
		}
		queries, err := workload.ForDataset(name)
		if err != nil {
			env.Close()
			return nil, err
		}
		expr := queries[11].Expr // Q12: low selectivity, bushy — touches everything
		pf := env.NoK.Tree.Pager()
		pf.ResetStats()
		if _, _, err := env.NoK.Query(expr, &core.QueryOptions{Strategy: core.StrategyScan}); err != nil {
			env.Close()
			return nil, err
		}
		st := pf.Stats()
		rows = append(rows, IORow{
			Dataset:    name,
			Query:      expr,
			Pages:      env.NoK.Tree.NumPages(),
			Reads:      st.PhysicalReads,
			Hits:       st.CacheHits,
			SinglePass: st.PhysicalReads <= int64(env.NoK.Tree.NumPages()),
		})
		env.Close()
	}
	return rows, nil
}

// WriteIO renders the Proposition 1 check.
func WriteIO(w io.Writer, rows []IORow) {
	fmt.Fprintf(w, "%-10s %8s %10s %10s %12s  %s\n",
		"data set", "pages", "phys.reads", "pool hits", "single-pass", "query")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %10d %10d %12v  %s\n",
			r.Dataset, r.Pages, r.Reads, r.Hits, r.SinglePass, r.Query)
	}
}

// ---- §6.2 heuristic: starting-point strategies --------------------------------

// HeuristicRow compares the three starting-point strategies on one query,
// plus what the auto heuristic picked.
type HeuristicRow struct {
	Dataset  string
	Query    string
	Scan     float64
	Tag      float64
	Value    float64 // -1 when the query has no usable equality constraint
	Path     float64 // §8 path-index extension
	AutoPick string
	AutoSecs float64
}

// Heuristic measures the Q1 (hpy) query of each dataset under forced
// strategies — the experiment behind "sometimes value index is more
// effective than tag-name index (e.g., in Treebank) and sometimes the
// tag-name index is more effective (e.g., in catalog)".
func Heuristic(cfg Config) ([]HeuristicRow, error) {
	cfg = cfg.WithDefaults()
	var rows []HeuristicRow
	for _, name := range cfg.Datasets {
		env, err := Prepare(cfg, name)
		if err != nil {
			return nil, err
		}
		queries, err := workload.ForDataset(name)
		if err != nil {
			env.Close()
			return nil, err
		}
		// Two rows per dataset: the hpy query (value index territory) and
		// the hpn query (path index territory).
		for _, qi := range []int{0, 1} {
			expr := queries[qi].Expr
			row := HeuristicRow{Dataset: name, Query: expr, Value: -1}
			measure := func(s core.Strategy) (float64, error) {
				dur, _, err := timeMedian(cfg.Runs, func() (int, error) {
					ms, _, err := env.NoK.Query(expr, &core.QueryOptions{Strategy: s})
					return len(ms), err
				})
				return dur.Seconds(), err
			}
			if row.Scan, err = measure(core.StrategyScan); err != nil {
				env.Close()
				return nil, err
			}
			if row.Tag, err = measure(core.StrategyTagIndex); err != nil {
				env.Close()
				return nil, err
			}
			if qi == 0 {
				if row.Value, err = measure(core.StrategyValueIndex); err != nil {
					env.Close()
					return nil, err
				}
			}
			if row.Path, err = measure(core.StrategyPathIndex); err != nil {
				env.Close()
				return nil, err
			}
			t0 := time.Now()
			_, stats, err := env.NoK.Query(expr, nil)
			if err != nil {
				env.Close()
				return nil, err
			}
			row.AutoSecs = time.Since(t0).Seconds()
			for _, s := range stats.StrategyUsed {
				if s != core.StrategyAuto {
					row.AutoPick = s.String()
				}
			}
			rows = append(rows, row)
		}
		env.Close()
	}
	return rows, nil
}

// WriteHeuristic renders the strategy comparison.
func WriteHeuristic(w io.Writer, rows []HeuristicRow) {
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %18s  %s\n",
		"data set", "scan(s)", "tag(s)", "value(s)", "path(s)", "auto", "query")
	for _, r := range rows {
		value := "     -"
		if r.Value >= 0 {
			value = fmt.Sprintf("%10.4f", r.Value)
		}
		fmt.Fprintf(w, "%-10s %10.4f %10.4f %10s %10.4f %6.4f/%-11s  %s\n",
			r.Dataset, r.Scan, r.Tag, value, r.Path, r.AutoSecs, r.AutoPick, r.Query)
	}
}

// ---- §4.2 update locality ------------------------------------------------------

// UpdateRow measures subtree insertion into the string tree: pages written
// must stay local (constant-ish), not proportional to the store size.
type UpdateRow struct {
	Dataset       string
	Inserts       int
	PagesBefore   int
	PagesAfter    int
	AvgPageWrites float64
	AvgMillis     float64
}

// Update clones each dataset's store (by reloading into a temp dir) and
// performs leaf subtree insertions at spread-out positions.
func Update(cfg Config, inserts int) ([]UpdateRow, error) {
	cfg = cfg.WithDefaults()
	if inserts <= 0 {
		inserts = 20
	}
	var rows []UpdateRow
	for _, name := range cfg.Datasets {
		env, err := Prepare(cfg, name)
		if err != nil {
			return nil, err
		}
		tmp, err := os.MkdirTemp("", "nok-update")
		if err != nil {
			env.Close()
			return nil, err
		}
		db, err := core.LoadXMLFile(tmp+"/db", env.XMLPath, &core.Options{PageSize: cfg.PageSize})
		env.Close()
		if err != nil {
			os.RemoveAll(tmp)
			return nil, err
		}

		// Build the inserted subtree's token string once: <updtag/>. The
		// committed symbol table is immutable under MVCC, so intern into a
		// private clone — the standalone tree below treats syms as opaque.
		updSym, err := db.Tags.Clone().Intern("updtag")
		if err != nil {
			db.Close()
			os.RemoveAll(tmp)
			return nil, err
		}
		var enc stree.SubtreeEncoder
		if err := enc.Open(updSym); err == nil {
			err = enc.Close()
		}
		if err != nil {
			db.Close()
			os.RemoveAll(tmp)
			return nil, err
		}
		tokens, err := enc.Bytes()
		if err != nil {
			db.Close()
			os.RemoveAll(tmp)
			return nil, err
		}

		// §4.2 measures the raw string tree's update locality: pages
		// written per in-place insert. The store's own tree is a
		// copy-on-write snapshot that rejects direct mutation, so copy the
		// document into a standalone plain pager file and insert there.
		tree, pf, err := plainTreeCopy(db, tmp+"/plain.pg", cfg.PageSize)
		db.Close()
		if err != nil {
			os.RemoveAll(tmp)
			return nil, err
		}

		row := UpdateRow{Dataset: name, Inserts: inserts, PagesBefore: tree.NumPages()}
		stride := int(tree.NodeCount()) / inserts
		if stride == 0 {
			stride = 1
		}
		var totalWrites int64
		var elapsed time.Duration
		for k := 0; k < inserts; k++ {
			// Updates shift positions, so each target is re-derived from a
			// fresh scan (the scan is not part of the timed insert).
			var target stree.Pos
			idx := 0
			found := false
			err := tree.Scan(func(pos stree.Pos, _ symtab.Sym, _ int, _ dewey.ID) bool {
				if idx == (k*stride)%int(tree.NodeCount()) {
					target = pos
					found = true
					return false
				}
				idx++
				return true
			}, nil)
			if err != nil || !found {
				break
			}
			pf.ResetStats()
			t0 := time.Now()
			if err := tree.InsertChild(target, tokens); err != nil {
				pf.Close()
				os.RemoveAll(tmp)
				return nil, err
			}
			elapsed += time.Since(t0)
			totalWrites += pf.Stats().PhysicalWrites
		}
		row.PagesAfter = tree.NumPages()
		row.AvgPageWrites = float64(totalWrites) / float64(inserts)
		row.AvgMillis = elapsed.Seconds() * 1000 / float64(inserts)
		pf.Close()
		os.RemoveAll(tmp)
		rows = append(rows, row)
	}
	return rows, nil
}

// plainTreeCopy rebuilds db's document into a standalone, non-versioned
// string tree at path, returning the store and its pager file (the caller
// closes the file). Open/close tokens are reconstructed from the
// document-order scan: a node's depth is len(id)-1, so everything at or
// below the incoming node's depth closes before it opens.
func plainTreeCopy(db *core.DB, path string, pageSize int) (*stree.Store, *pager.File, error) {
	pf, err := pager.Create(path, &pager.Options{PageSize: pageSize})
	if err != nil {
		return nil, nil, err
	}
	bld, err := stree.NewBuilder(pf, nil)
	if err != nil {
		pf.Close()
		return nil, nil, err
	}
	open := 0
	var berr error
	err = db.Tree.Scan(func(_ stree.Pos, sym symtab.Sym, _ int, id dewey.ID) bool {
		for open >= len(id) {
			if berr = bld.Close(); berr != nil {
				return false
			}
			open--
		}
		if _, berr = bld.Open(sym); berr != nil {
			return false
		}
		open++
		return true
	}, nil)
	if err == nil {
		err = berr
	}
	for err == nil && open > 0 {
		err = bld.Close()
		open--
	}
	var tree *stree.Store
	if err == nil {
		tree, err = bld.Finish()
	}
	if err != nil {
		pf.Close()
		return nil, nil, err
	}
	return tree, pf, nil
}

// WriteUpdate renders the update experiment.
func WriteUpdate(w io.Writer, rows []UpdateRow) {
	fmt.Fprintf(w, "%-10s %8s %12s %12s %14s %10s\n",
		"data set", "inserts", "pages before", "pages after", "avg pg writes", "avg ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %12d %12d %14.1f %10.3f\n",
			r.Dataset, r.Inserts, r.PagesBefore, r.PagesAfter, r.AvgPageWrites, r.AvgMillis)
	}
}

// ---- streaming -----------------------------------------------------------------

// StreamRow compares streaming evaluation with stored evaluation.
type StreamRow struct {
	Dataset   string
	Query     string
	Results   int
	Seconds   float64
	StoredSec float64
	MaxBuffer int
	Supported bool
}

// Streaming evaluates Q1 of each dataset directly over the XML file.
func Streaming(cfg Config) ([]StreamRow, error) {
	cfg = cfg.WithDefaults()
	var rows []StreamRow
	for _, name := range cfg.Datasets {
		env, err := Prepare(cfg, name)
		if err != nil {
			return nil, err
		}
		queries, err := workload.ForDataset(name)
		if err != nil {
			env.Close()
			return nil, err
		}
		expr := queries[0].Expr
		tr, err := pattern.Parse(expr)
		if err != nil {
			env.Close()
			return nil, err
		}
		row := StreamRow{Dataset: name, Query: expr}
		if err := stream.Supported(tr); err != nil {
			rows = append(rows, row)
			env.Close()
			continue
		}
		row.Supported = true
		var stats *stream.Stats
		dur, n, err := timeMedian(cfg.Runs, func() (int, error) {
			f, err := os.Open(env.XMLPath)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			rs, st, err := stream.Match(f, tr)
			stats = st
			return len(rs), err
		})
		if err != nil {
			env.Close()
			return nil, err
		}
		row.Seconds = dur.Seconds()
		row.Results = n
		row.MaxBuffer = stats.MaxBufferedNodes
		durStored, _, err := timeMedian(cfg.Runs, func() (int, error) {
			ms, _, err := env.NoK.Query(expr, nil)
			return len(ms), err
		})
		if err != nil {
			env.Close()
			return nil, err
		}
		row.StoredSec = durStored.Seconds()
		rows = append(rows, row)
		env.Close()
	}
	return rows, nil
}

// WriteStreaming renders the streaming experiment.
func WriteStreaming(w io.Writer, rows []StreamRow) {
	fmt.Fprintf(w, "%-10s %8s %10s %12s %10s  %s\n",
		"data set", "results", "stream(s)", "stored(s)", "max buf", "query")
	for _, r := range rows {
		if !r.Supported {
			fmt.Fprintf(w, "%-10s %8s %10s %12s %10s  %s\n", r.Dataset, "-", "unsupported", "-", "-", r.Query)
			continue
		}
		fmt.Fprintf(w, "%-10s %8d %10.4f %12.4f %10d  %s\n",
			r.Dataset, r.Results, r.Seconds, r.StoredSec, r.MaxBuffer, r.Query)
	}
}

// ---- page-skip ablation ----------------------------------------------------------

// SkipRow quantifies the (st,lo,hi) header skipping of Algorithm 2.
type SkipRow struct {
	Dataset        string
	Query          string
	WithSkip       float64
	WithoutSkip    float64
	Examined       uint64 // pages examined with skipping on
	Skipped        uint64 // pages the headers excluded
	ExaminedNoSkip uint64 // pages examined with skipping off
}

// skipQueries force a full iteration over children with large subtrees:
// the returning node is a (rare) direct child, so FOLLOWING-SIBLING must
// hop over every sibling subtree — the access pattern the (st,lo,hi)
// vectors accelerate. The effect concentrates on deep documents
// (treebank), matching the paper's related-work remark that schemes
// without level information pay extra I/O there.
var skipQueries = map[string]string{
	"synthetic-deep": "//rec/marker",
	"author":         "//author/rareelem",
	"address":        "//address/rareelem",
	"catalog":        "//item/rareelem",
	"treebank":       "//S/rareelem",
	"dblp":           "//article/rareelem",
}

// HeaderSkip runs a deep-subtree-skipping query with and without the
// optimization. Page skipping only matters when subtrees span pages, so
// the experiment loads a dedicated store with small (512-byte) pages —
// scaled-down pages on scaled-down documents, exactly like the paper's
// illustrative 20-byte pages on its example tree.
func HeaderSkip(cfg Config) ([]SkipRow, error) {
	cfg = cfg.WithDefaults()
	var rows []SkipRow
	names := append([]string{"synthetic-deep"}, cfg.Datasets...)
	for _, name := range names {
		tmp, err := os.MkdirTemp("", "nok-skip")
		if err != nil {
			return nil, err
		}
		var xmlPath string
		if name == "synthetic-deep" {
			// Records whose subtrees span many pages — the regime the
			// paper's 1000-node pages on billion-node documents live in,
			// scaled down to 37-node pages on a ~100k-node document.
			xmlPath = tmp + "/deep.xml"
			if err := writeDeepSkipDoc(xmlPath, 50, 2000); err != nil {
				os.RemoveAll(tmp)
				return nil, err
			}
		} else {
			env0, err := Prepare(cfg, name)
			if err != nil {
				os.RemoveAll(tmp)
				return nil, err
			}
			xmlPath = env0.XMLPath
			env0.Close()
		}
		smallDB, err := core.LoadXMLFile(tmp+"/db", xmlPath, &core.Options{PageSize: 128, PoolPages: 1 << 16})
		if err != nil {
			os.RemoveAll(tmp)
			return nil, err
		}
		env := &Env{NoK: smallDB}
		cleanup := func() {
			smallDB.Close()
			os.RemoveAll(tmp)
		}
		expr, ok := skipQueries[name]
		if !ok {
			cleanup()
			continue
		}
		row := SkipRow{Dataset: name, Query: expr}
		tree := env.NoK.Tree

		tree.ResetNavStats()
		dur, _, err := timeMedian(cfg.Runs, func() (int, error) {
			tree.ResetNavStats()
			ms, _, err := env.NoK.Query(expr, &core.QueryOptions{Strategy: core.StrategyScan})
			return len(ms), err
		})
		if err != nil {
			cleanup()
			return nil, err
		}
		row.WithSkip = dur.Seconds()
		row.Examined = tree.NavStats().PagesExamined
		row.Skipped = tree.NavStats().PagesSkipped

		dur, _, err = timeMedian(cfg.Runs, func() (int, error) {
			tree.ResetNavStats()
			ms, _, err := env.NoK.Query(expr, &core.QueryOptions{Strategy: core.StrategyScan, DisablePageSkip: true})
			return len(ms), err
		})
		if err != nil {
			cleanup()
			return nil, err
		}
		row.WithoutSkip = dur.Seconds()
		row.ExaminedNoSkip = tree.NavStats().PagesExamined
		rows = append(rows, row)
		cleanup()
	}
	return rows, nil
}

// WriteHeaderSkip renders the ablation.
func WriteHeaderSkip(w io.Writer, rows []SkipRow) {
	fmt.Fprintf(w, "%-10s %10s %12s %10s %10s %14s  %s\n",
		"data set", "skip(s)", "no-skip(s)", "examined", "skipped", "examined(no)", "query")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10.4f %12.4f %10d %10d %14d  %s\n",
			r.Dataset, r.WithSkip, r.WithoutSkip, r.Examined, r.Skipped, r.ExaminedNoSkip, r.Query)
	}
}

// writeDeepSkipDoc generates records whose first child is a large deep
// subtree followed by a small marker element — iterating a record's
// children must hop over the big subtree, which is where (st,lo,hi)
// skipping pays.
func writeDeepSkipDoc(path string, records, subtreeNodes int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 128<<10)
	w.WriteString("<root>")
	for r := 0; r < records; r++ {
		w.WriteString("<rec><big>")
		// A comb: chains of depth 8 packed side by side.
		for n := 0; n < subtreeNodes; n += 8 {
			w.WriteString("<n1><n2><n3><n4><n5><n6><n7><n8>x</n8></n7></n6></n5></n4></n3></n2></n1>")
		}
		w.WriteString("</big><marker>m</marker></rec>")
	}
	w.WriteString("</root>")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
