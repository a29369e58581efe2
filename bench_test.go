// Benchmarks regenerating the paper's evaluation (one benchmark per table,
// figure, or quantified claim — see DESIGN.md §4 for the index):
//
//	BenchmarkTable3           Table 3 cells: dataset/Qn/system
//	BenchmarkTable1Load       Table 1: bulk-load cost per dataset
//	BenchmarkStorageRatio     §4.2: string representation ≪ document
//	BenchmarkSinglePass       Proposition 1: pages read ≤ pages stored
//	BenchmarkStartingPoints   §6.2: scan vs tag index vs value index
//	BenchmarkPlannerPages     cost-based planner vs §6.2 heuristic pages
//	BenchmarkHeaderSkip       (st,lo,hi) page-skip ablation
//	BenchmarkInsertSubtree    §4.2: update locality
//	BenchmarkNoKComplexity    §3: O(m·n) with frontier revisits
//	BenchmarkStreaming        §4.2: SAX-stream evaluation
//	BenchmarkJoinReduction    §1: NoK partitioning shrinks join work
//
// The harness caches generated datasets and loaded stores under the
// system temp directory, so repeated -bench runs skip the load phase.
//
// By default the per-dataset benchmarks run on one bushy and one deep
// dataset to keep `go test -bench .` to minutes; set
// NOK_BENCH_DATASETS=all (or a comma-separated list) for the full matrix,
// or use cmd/nokbench, which always regenerates the complete tables.
package nok_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nok/internal/bench"
	"nok/internal/core"
	"nok/internal/datagen"
	"nok/internal/domnav"
	"nok/internal/pattern"
	"nok/internal/stream"
	"nok/internal/stree"
	"nok/internal/workload"
)

var benchCfg = bench.Config{
	WorkDir: filepath.Join(os.TempDir(), "nok-bench-cache"),
	Scale:   1,
	Runs:    1,
}.WithDefaults()

// benchDatasets selects which datasets the per-dataset benchmarks cover.
var benchDatasets = func() []string {
	switch v := os.Getenv("NOK_BENCH_DATASETS"); v {
	case "":
		return []string{"author", "treebank"}
	case "all":
		return benchCfg.Datasets
	default:
		return strings.Split(v, ",")
	}
}()

var (
	envMu sync.Mutex
	envs  = map[string]*bench.Env{}
)

// env returns the cached environment for a dataset.
func env(b *testing.B, name string) *bench.Env {
	b.Helper()
	envMu.Lock()
	defer envMu.Unlock()
	if e, ok := envs[name]; ok {
		return e
	}
	e, err := bench.Prepare(benchCfg, name)
	if err != nil {
		b.Fatal(err)
	}
	envs[name] = e
	return e
}

// BenchmarkTable3 regenerates Table 3: every (dataset, category, system)
// cell as a sub-benchmark. Filter with, e.g.:
//
//	go test -bench 'Table3/dblp/Q1/'
func BenchmarkTable3(b *testing.B) {
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			e := env(b, name)
			queries, err := workload.ForDataset(name)
			if err != nil {
				b.Fatal(err)
			}
			for _, q := range queries {
				if q.NA() {
					continue
				}
				expr := q.Expr
				b.Run(q.Category.ID, func(b *testing.B) {
					b.Run("DI", func(b *testing.B) {
						if _, err := e.DI.Query(expr); err != nil {
							b.Skipf("NI: %v", err)
						}
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if _, err := e.DI.Query(expr); err != nil {
								b.Fatal(err)
							}
						}
					})
					b.Run("Nav", func(b *testing.B) {
						tr := pattern.MustParse(expr)
						for i := 0; i < b.N; i++ {
							domnav.Evaluate(e.Dom, tr)
						}
					})
					b.Run("TwigStack", func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if _, err := e.Twig.Query(expr); err != nil {
								b.Fatal(err)
							}
						}
					})
					b.Run("NoK", func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if _, _, err := e.NoK.Query(expr, nil); err != nil {
								b.Fatal(err)
							}
						}
					})
				})
			}
		})
	}
}

// BenchmarkTable1Load measures bulk loading (the cost behind Table 1's
// |tree| and index columns).
func BenchmarkTable1Load(b *testing.B) {
	for _, name := range []string{"author", "catalog"} {
		b.Run(name, func(b *testing.B) {
			e := env(b, name)
			xml := e.XMLPath
			b.SetBytes(e.Stats.Bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dir := filepath.Join(b.TempDir(), fmt.Sprintf("load%d", i))
				db, err := core.LoadXMLFile(dir, xml, nil)
				if err != nil {
					b.Fatal(err)
				}
				db.Close()
			}
		})
	}
}

// BenchmarkStorageRatio reports the §4.2 document/tree size ratio.
func BenchmarkStorageRatio(b *testing.B) {
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			e := env(b, name)
			ratio := float64(e.Stats.Bytes) / float64(e.NoK.Tree.TokenBytes())
			for i := 0; i < b.N; i++ {
				_ = e.NoK.Tree.TokenBytes()
			}
			b.ReportMetric(ratio, "doc/tree")
			b.ReportMetric(float64(e.NoK.Tree.HeaderBytes()), "hdr-bytes")
		})
	}
}

// BenchmarkSinglePass verifies Proposition 1 while measuring: tree-file
// physical reads during a scan-strategy query never exceed the page count.
func BenchmarkSinglePass(b *testing.B) {
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			e := env(b, name)
			queries, _ := workload.ForDataset(name)
			expr := queries[11].Expr
			pf := e.NoK.Tree.Pager()
			var reads, hits int64
			for i := 0; i < b.N; i++ {
				pf.ResetStats()
				if _, _, err := e.NoK.Query(expr, &core.QueryOptions{Strategy: core.StrategyScan}); err != nil {
					b.Fatal(err)
				}
				ps := pf.Stats()
				reads, hits = ps.PhysicalReads, ps.CacheHits
			}
			pages := int64(e.NoK.Tree.NumPages())
			if reads > pages {
				b.Fatalf("Proposition 1 violated: %d reads > %d pages", reads, pages)
			}
			b.ReportMetric(float64(reads), "phys-reads")
			b.ReportMetric(float64(pages), "pages")
			if total := hits + reads; total > 0 {
				b.ReportMetric(float64(hits)/float64(total), "cache-hit-ratio")
			}
		})
	}
}

// BenchmarkStartingPoints compares the §6.2 strategies on the Q1 query.
func BenchmarkStartingPoints(b *testing.B) {
	strategies := []struct {
		name  string
		strat core.Strategy
	}{
		{"scan", core.StrategyScan},
		{"tag", core.StrategyTagIndex},
		{"value", core.StrategyValueIndex},
		{"path", core.StrategyPathIndex},
		{"auto", core.StrategyAuto},
	}
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			e := env(b, name)
			queries, _ := workload.ForDataset(name)
			expr := queries[0].Expr
			for _, s := range strategies {
				b.Run(s.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, _, err := e.NoK.Query(expr, &core.QueryOptions{Strategy: s.strat}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkPlannerPages compares pages scanned with the cost-based planner
// on (StrategyAuto consulting the synopsis) vs off (§6.2 heuristic): the
// trap documents are adversarial for the heuristic, the workload queries
// guard against planner-introduced regressions.
func BenchmarkPlannerPages(b *testing.B) {
	type target struct {
		name string
		db   *core.DB
		expr string
	}
	var targets []target

	for _, trap := range []struct{ name, expr string }{
		{"trap-value", `//rare[common="dup"]`},
		{"trap-path", `/lib/special/book[title="T"]`},
	} {
		var sb strings.Builder
		if trap.name == "trap-value" {
			sb.WriteString("<root>")
			for i := 0; i < 2000; i++ {
				sb.WriteString("<item><common>dup</common></item>")
			}
			sb.WriteString("<rare><common>dup</common></rare><rare><common>dup</common></rare></root>")
		} else {
			sb.WriteString("<lib><shelf>")
			for i := 0; i < 2000; i++ {
				sb.WriteString("<book><title>T</title></book>")
			}
			sb.WriteString("</shelf><special><book><title>T</title></book><book><title>T</title></book></special></lib>")
		}
		dir := b.TempDir()
		xmlPath := filepath.Join(dir, "trap.xml")
		if err := os.WriteFile(xmlPath, []byte(sb.String()), 0o644); err != nil {
			b.Fatal(err)
		}
		db, err := core.LoadXMLFile(filepath.Join(dir, "db"), xmlPath, &core.Options{PageSize: 256})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		targets = append(targets, target{trap.name, db, trap.expr})
	}
	for _, name := range benchDatasets {
		e := env(b, name)
		queries, _ := workload.ForDataset(name)
		targets = append(targets, target{name, e.NoK, queries[0].Expr})
	}

	for _, tg := range targets {
		b.Run(tg.name, func(b *testing.B) {
			for _, mode := range []struct {
				name string
				opts *core.QueryOptions
			}{
				{"planner", nil},
				{"heuristic", &core.QueryOptions{DisablePlanner: true}},
			} {
				b.Run(mode.name, func(b *testing.B) {
					var pages float64
					for i := 0; i < b.N; i++ {
						_, stats, err := tg.db.Query(tg.expr, mode.opts)
						if err != nil {
							b.Fatal(err)
						}
						pages = float64(stats.PagesScanned)
					}
					b.ReportMetric(pages, "pages-scanned/op")
				})
			}
		})
	}
}

// BenchmarkHeaderSkip is the (st,lo,hi) ablation on the deep datasets.
func BenchmarkHeaderSkip(b *testing.B) {
	for _, name := range []string{"catalog", "treebank"} {
		b.Run(name, func(b *testing.B) {
			e := env(b, name)
			queries, _ := workload.ForDataset(name)
			expr := queries[11].Expr
			for _, mode := range []struct {
				name string
				off  bool
			}{{"skip", false}, {"noskip", true}} {
				b.Run(mode.name, func(b *testing.B) {
					var scanned, skipped float64
					pf := e.NoK.Tree.Pager()
					pf.ResetStats()
					for i := 0; i < b.N; i++ {
						opts := &core.QueryOptions{Strategy: core.StrategyScan, DisablePageSkip: mode.off}
						_, stats, err := e.NoK.Query(expr, opts)
						if err != nil {
							b.Fatal(err)
						}
						scanned = float64(stats.PagesScanned)
						skipped = float64(stats.PagesSkipped)
					}
					b.ReportMetric(scanned, "pages-scanned/op")
					b.ReportMetric(skipped, "pages-skipped/op")
					ps := pf.Stats()
					if total := ps.CacheHits + ps.PhysicalReads; total > 0 {
						b.ReportMetric(float64(ps.CacheHits)/float64(total), "cache-hit-ratio")
					}
				})
			}
		})
	}
}

// BenchmarkInsertSubtree measures §4.2 update locality: a small subtree
// insertion into a fresh store.
func BenchmarkInsertSubtree(b *testing.B) {
	dir := b.TempDir()
	spec, _ := datagen.SpecByName("author")
	xmlPath := filepath.Join(dir, "a.xml")
	if err := datagen.GenerateFile(spec, xmlPath, 1, 7); err != nil {
		b.Fatal(err)
	}
	db, err := core.LoadXMLFile(filepath.Join(dir, "db"), xmlPath, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	root, err := db.Tree.Root()
	if err != nil {
		b.Fatal(err)
	}
	sym, err := db.Tags.Intern("benchtag")
	if err != nil {
		b.Fatal(err)
	}
	var enc stree.SubtreeEncoder
	if err := enc.Open(sym); err != nil {
		b.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		b.Fatal(err)
	}
	tokens, _ := enc.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Tree.InsertChild(root, tokens); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoKComplexity exercises the §3 worst case: /a[b/c][b/d]-style
// patterns where grandchildren are visited once per matching frontier
// branch, scaling the subject fan-out.
func BenchmarkNoKComplexity(b *testing.B) {
	for _, fanout := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("fanout%d", fanout), func(b *testing.B) {
			var sb strings.Builder
			sb.WriteString("<a>")
			for i := 0; i < fanout; i++ {
				sb.WriteString("<b><c/><d/></b>")
			}
			sb.WriteString("</a>")
			dir := b.TempDir()
			db, err := core.LoadXML(filepath.Join(dir, "db"), strings.NewReader(sb.String()), nil)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.Query(`/a[b/c][b/d]`, &core.QueryOptions{Strategy: core.StrategyScan}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreaming evaluates Q1 over the raw XML file in one pass.
func BenchmarkStreaming(b *testing.B) {
	for _, name := range benchDatasets {
		b.Run(name, func(b *testing.B) {
			e := env(b, name)
			queries, _ := workload.ForDataset(name)
			tr, err := pattern.Parse(queries[0].Expr)
			if err != nil {
				b.Fatal(err)
			}
			if err := stream.Supported(tr); err != nil {
				b.Skip(err)
			}
			b.SetBytes(e.Stats.Bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := os.Open(e.XMLPath)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := stream.Match(f, tr); err != nil {
					b.Fatal(err)
				}
				f.Close()
			}
		})
	}
}

// BenchmarkJoinReduction contrasts join work: DI joins every pattern edge;
// NoK joins only across partitions (§1's motivation). Reported as metrics.
func BenchmarkJoinReduction(b *testing.B) {
	e := env(b, "author")
	queries, _ := workload.ForDataset("author")
	expr := queries[2].Expr // Q3, bushy with a value constraint
	var nokJoins, diJoins float64
	for i := 0; i < b.N; i++ {
		_, stats, err := e.NoK.Query(expr, nil)
		if err != nil {
			b.Fatal(err)
		}
		nokJoins = float64(stats.JoinInputs)
		e.DI.ResetStats()
		if _, err := e.DI.Query(expr); err != nil {
			b.Fatal(err)
		}
		diJoins = float64(e.DI.Stats().Joins)
	}
	b.ReportMetric(nokJoins, "nok-join-inputs")
	b.ReportMetric(diJoins, "di-joins")
}
