// Package bench is the experiment harness: it regenerates every table and
// quantified claim of the paper's evaluation (§6) on the synthetic
// datasets — Table 1 (dataset and index statistics), Table 3 (running
// times of DI, the navigational baseline, TwigStack and NoK over the
// twelve query categories), the §4.2 storage-ratio and header-memory
// claims, Proposition 1's single-pass I/O bound, the §6.2 index-choice
// heuristic, the update locality claim, and the streaming adaptation.
// It also holds the experiments behind nokbench's budget gates: telemetry
// overhead, sharded scatter-gather speedup, remote scatter overhead, MVCC
// read latency and group-commit ingest.
//
// See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nok/internal/core"
	"nok/internal/datagen"
	"nok/internal/di"
	"nok/internal/domnav"
	"nok/internal/twigstack"
)

// Config parameterizes the harness.
type Config struct {
	// WorkDir caches generated documents and loaded stores across runs.
	WorkDir string
	// Scale multiplies dataset sizes (1 ≈ tens of thousands of nodes).
	Scale int
	// Seed drives the deterministic generators.
	Seed int64
	// Runs is the number of timed repetitions per cell; the reported time
	// is the median (the paper averages 3 runs).
	Runs int
	// Datasets filters which datasets run (empty = all).
	Datasets []string
	// PageSize for the NoK store; 0 = default.
	PageSize int
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.WorkDir == "" {
		c.WorkDir = "bench-work"
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 20040301 // ICDE 2004
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
	if len(c.Datasets) == 0 {
		for _, s := range datagen.Specs() {
			c.Datasets = append(c.Datasets, s.Name)
		}
	}
	return c
}

// Env bundles one dataset with all four loaded engines.
type Env struct {
	Spec    datagen.Spec
	XMLPath string
	Stats   datagen.Stats

	NoK  *core.DB
	DI   *di.Engine
	Twig *twigstack.Engine
	// Dom is the in-memory navigational evaluator standing in for
	// X-Hive/DB (see DESIGN.md §3).
	Dom *domnav.Doc
}

// Close releases the engines.
func (e *Env) Close() {
	if e.NoK != nil {
		e.NoK.Close()
	}
	if e.DI != nil {
		e.DI.Close()
	}
	if e.Twig != nil {
		e.Twig.Close()
	}
}

// Prepare generates (or reuses) the dataset and loads every engine.
func Prepare(cfg Config, name string) (*Env, error) {
	cfg = cfg.WithDefaults()
	spec, ok := datagen.SpecByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown dataset %q", name)
	}
	dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("%s-s%d", name, cfg.Scale))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	env := &Env{Spec: spec, XMLPath: filepath.Join(dir, "data.xml")}

	if _, err := os.Stat(env.XMLPath); err != nil {
		if err := datagen.GenerateFile(spec, env.XMLPath, cfg.Scale, cfg.Seed); err != nil {
			return nil, fmt.Errorf("bench: generating %s: %w", name, err)
		}
	}
	st, err := datagen.ComputeStats(env.XMLPath)
	if err != nil {
		return nil, err
	}
	env.Stats = st

	fail := func(err error) (*Env, error) {
		env.Close()
		return nil, err
	}

	// NoK store. A cached store from an older on-disk format (or a store a
	// crashed run left unreadable) fails Open; rebuild it instead of
	// failing the benchmark.
	nokDir := filepath.Join(dir, "nok")
	loadNoK := func() error {
		var err error
		env.NoK, err = core.LoadXMLFile(nokDir, env.XMLPath, &core.Options{PageSize: cfg.PageSize})
		if err != nil {
			os.RemoveAll(nokDir)
			return fmt.Errorf("bench: loading NoK store: %w", err)
		}
		return nil
	}
	if _, err := os.Stat(nokDir); err != nil {
		if err := loadNoK(); err != nil {
			return fail(err)
		}
	} else if env.NoK, err = core.Open(nokDir, &core.Options{PageSize: cfg.PageSize}); err != nil {
		if err := os.RemoveAll(nokDir); err != nil {
			return fail(err)
		}
		if err := loadNoK(); err != nil {
			return fail(err)
		}
	}

	// DI store (same stale-cache rebuild policy).
	diDir := filepath.Join(dir, "di")
	loadDI := func() error {
		f, err := os.Open(env.XMLPath)
		if err != nil {
			return err
		}
		env.DI, err = di.Load(diDir, f)
		f.Close()
		if err != nil {
			os.RemoveAll(diDir)
			return fmt.Errorf("bench: loading DI store: %w", err)
		}
		return nil
	}
	if _, err := os.Stat(diDir); err != nil {
		if err := loadDI(); err != nil {
			return fail(err)
		}
	} else if env.DI, err = di.Open(diDir); err != nil {
		if err := os.RemoveAll(diDir); err != nil {
			return fail(err)
		}
		if err := loadDI(); err != nil {
			return fail(err)
		}
	}

	// TwigStack store (same stale-cache rebuild policy).
	twDir := filepath.Join(dir, "twig")
	loadTwig := func() error {
		f, err := os.Open(env.XMLPath)
		if err != nil {
			return err
		}
		env.Twig, err = twigstack.Load(twDir, f)
		f.Close()
		if err != nil {
			os.RemoveAll(twDir)
			return fmt.Errorf("bench: loading TwigStack store: %w", err)
		}
		return nil
	}
	if _, err := os.Stat(twDir); err != nil {
		if err := loadTwig(); err != nil {
			return fail(err)
		}
	} else if env.Twig, err = twigstack.Open(twDir); err != nil {
		if err := os.RemoveAll(twDir); err != nil {
			return fail(err)
		}
		if err := loadTwig(); err != nil {
			return fail(err)
		}
	}

	// Navigational baseline (in memory, like a warmed native store).
	f, err := os.Open(env.XMLPath)
	if err != nil {
		return fail(err)
	}
	env.Dom, err = domnav.Parse(f)
	f.Close()
	if err != nil {
		return fail(err)
	}
	return env, nil
}

// timeMedian runs fn cfg.Runs times and returns the median duration and
// the last run's result count.
func timeMedian(runs int, fn func() (int, error)) (time.Duration, int, error) {
	if runs < 1 {
		runs = 1
	}
	durs := make([]time.Duration, 0, runs)
	var count int
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		n, err := fn()
		if err != nil {
			return 0, 0, err
		}
		durs = append(durs, time.Since(t0))
		count = n
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2], count, nil
}
