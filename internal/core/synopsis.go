package core

// synopsis.go — the DB side of the statistics synopsis (internal/stats)
// and the cost-based planner (internal/planner): loading the committed
// synopsis, rebuilding it on demand for stores that predate it, the plan
// cache, and the Access→Strategy mapping the evaluator uses to execute a
// plan.

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"nok/internal/dewey"
	"nok/internal/obs"
	"nok/internal/pattern"
	"nok/internal/planner"
	"nok/internal/stats"
	"nok/internal/stree"
	"nok/internal/symtab"
	"nok/internal/vfs"
	"nok/internal/vstore"
)

// Planner/synopsis counters, exposed through the default obs registry.
var (
	mSynopsisLoadErrs = obs.Default.Counter("nok_synopsis_load_errors_total", "synopsis files that failed to load (corrupt or unreadable)")
	mPlanCacheHits    = obs.Default.Counter("nok_plan_cache_hits_total", "query plans served from the per-store plan cache")
	mPlanCacheMisses  = obs.Default.Counter("nok_plan_cache_misses_total", "query plans built by the cost-based planner")
	mPlanFallbacks    = obs.Default.Counter("nok_plan_fallbacks_total", "auto-strategy queries evaluated by the heuristic because no fresh synopsis existed")
)

// loadSynopsis reads the committed synopsis, if any. Failures are recorded
// but never propagated: the planner simply stays unavailable.
func (db *DB) loadSynopsis() {
	rec, ok := db.manifest.Files[roleSynopsis]
	if !ok {
		return
	}
	raw, err := vfs.ReadFile(db.fsys, filepath.Join(db.dir, rec.Name))
	if err != nil {
		mSynopsisLoadErrs.Inc()
		return
	}
	syn, err := stats.Decode(raw)
	if err != nil {
		mSynopsisLoadErrs.Inc()
		return
	}
	db.syn.Store(syn)
}

// Synopsis returns the loaded statistics synopsis (nil when absent). It
// may be stale; see SynopsisFresh.
func (db *Snapshot) Synopsis() *stats.Synopsis { return db.syn.Load() }

// SynopsisFresh reports whether a synopsis exists at the snapshot's
// epoch — the condition under which StrategyAuto consults the planner.
func (db *Snapshot) SynopsisFresh() bool {
	syn := db.syn.Load()
	return syn != nil && syn.Epoch == db.epoch
}

// shape derives the planner's physical cost parameters from the open
// store: the string tree's page count, the Dewey index's height as the
// typical B+-tree descent cost, and a leaf fan-out estimated from the
// index page size (entries average ~32 bytes: a Dewey key plus a 14-byte
// payload and slot overhead).
func (db *Snapshot) shape() planner.Shape {
	return planner.Shape{
		TreePages:   float64(db.Tree.NumPages()),
		IndexHeight: float64(db.DeweyIdx.Height()),
		LeafFanout:  float64(db.dewIdxFile.PageSize()) / 32,
	}
}

// planFor returns the cost-based plan for a parsed query, or nil when the
// planner cannot run (no synopsis, or one from another epoch). Plans are
// cached per canonical expression and invalidated on epoch change.
func (db *Snapshot) planFor(t *pattern.Tree, parts []*pattern.NoKTree, anchor *pattern.Node, chain []string) *planner.Plan {
	syn := db.syn.Load()
	if syn == nil || syn.Epoch != db.epoch {
		mPlanFallbacks.Inc()
		return nil
	}
	key := t.String()
	db.planMu.Lock()
	if p, ok := db.planCache[key]; ok && p.Epoch == db.epoch {
		db.planMu.Unlock()
		mPlanCacheHits.Inc()
		return p
	}
	db.planMu.Unlock()
	mPlanCacheMisses.Inc()
	p := planner.Build(planner.Input{
		Expr:   t.Source,
		Tree:   t,
		Parts:  parts,
		Anchor: anchor,
		Chain:  chain,
	}, syn, db.Tags, db.shape())
	db.planMu.Lock()
	if db.planCache == nil {
		db.planCache = make(map[string]*planner.Plan)
	}
	db.planCache[key] = p
	db.planMu.Unlock()
	return p
}

// invalidatePlans empties the plan cache (after every committed epoch
// change or synopsis refresh).
func (db *Snapshot) invalidatePlans() {
	db.planMu.Lock()
	db.planCache = nil
	db.planMu.Unlock()
}

// strategyForAccess maps a planned access path to the evaluator strategy
// that executes it.
func strategyForAccess(a planner.Access) Strategy {
	switch a {
	case planner.AccessTagIndex:
		return StrategyTagIndex
	case planner.AccessValueIndex:
		return StrategyValueIndex
	case planner.AccessPathIndex:
		return StrategyPathIndex
	default:
		return StrategyScan
	}
}

// Plan builds (or fetches from cache) the cost-based plan for expr without
// executing it. When the planner cannot run, the plan is nil and reason
// says why.
func (db *Snapshot) Plan(expr string) (*planner.Plan, string, error) {
	t, err := pattern.Parse(expr)
	if err != nil {
		return nil, "", err
	}
	syn := db.syn.Load()
	if syn == nil {
		return nil, "no statistics synopsis (store predates it; refresh statistics to enable the planner)", nil
	}
	if syn.Epoch != db.epoch {
		return nil, fmt.Sprintf("synopsis is stale (built at epoch %d, store is at %d); refresh statistics", syn.Epoch, db.epoch), nil
	}
	parts := pattern.Partition(t)
	anchor, chain := topAnchor(parts[0], t)
	return db.planFor(t, parts, anchor, chain), "", nil
}

// PlanText renders the plan for expr, or the fallback explanation when the
// planner is unavailable.
func (db *Snapshot) PlanText(expr string) (string, error) {
	p, reason, err := db.Plan(expr)
	if err != nil {
		return "", err
	}
	if p == nil {
		return fmt.Sprintf("plan %s\n  planner unavailable: %s\n  auto strategy falls back to the paper's §6.2 heuristic\n", expr, reason), nil
	}
	return p.String(), nil
}

// RefreshSynopsis rebuilds the statistics synopsis from the committed
// store state and commits it into the manifest at the current epoch —
// the upgrade path for stores that predate the synopsis and the repair
// path after one went stale or was lost.
func (db *DB) RefreshSynopsis() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if db.broken {
		return ErrNeedsRecovery
	}
	sb := stats.NewBuilder()
	var scanErr error
	err := db.Tree.Scan(func(pos stree.Pos, sym symtab.Sym, level int, id dewey.ID) bool {
		sb.Node(sym, level)
		_, valOff, found, err := db.NodeAt(id)
		if err != nil {
			scanErr = err
			return false
		}
		if found && valOff != NoValue {
			v, err := db.Values.Get(int64(valOff))
			if err != nil {
				scanErr = err
				return false
			}
			sb.Value(level, vstore.Hash(v))
		}
		return true
	}, nil)
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return fmt.Errorf("core: rebuilding synopsis: %w", err)
	}
	syn := sb.Finish(db.epoch, uint64(db.Tree.NumPages()))

	name := epochFileName(roleSynopsis, db.epoch)
	if err := vfs.WriteFileAtomic(db.fsys, filepath.Join(db.dir, name), stats.Encode(syn), 0o644); err != nil {
		return err
	}
	rec, err := record(db.fsys, db.dir, name)
	if err != nil {
		return err
	}
	// Re-commit the manifest at the same epoch with the synopsis role
	// added. A crash before the manifest write leaves an orphan the next
	// open sweeps; after it, the synopsis is committed.
	m := &Manifest{Format: FormatVersion, Epoch: db.epoch, Files: make(map[string]FileRecord, len(db.manifest.Files)+1)}
	for role, r := range db.manifest.Files {
		m.Files[role] = r
	}
	old, hadOld := m.Files[roleSynopsis]
	m.Files[roleSynopsis] = rec
	if err := writeManifest(db.fsys, db.dir, m); err != nil {
		return err
	}
	if hadOld && old.Name != name {
		_ = db.fsys.Remove(filepath.Join(db.dir, old.Name))
	}
	db.manifest = m
	// Install into the *current* snapshot: the synopsis is advisory (it
	// only steers planning), so mutating the live view is safe — the
	// pointer is atomic and plans are re-derived under planMu.
	db.syn.Store(syn)
	db.invalidatePlans()
	return nil
}

// TagCountInfo is one row of a synopsis dump.
type TagCountInfo struct {
	Name  string
	Count uint64
}

// PathCountInfo is one path-summary row of a synopsis dump.
type PathCountInfo struct {
	Path  string // rendered as /a/b/c
	Count uint64
}

// SynopsisInfo is the human-facing summary nokstat -stats prints.
type SynopsisInfo struct {
	Present    bool
	Stale      bool
	Epoch      uint64 // synopsis epoch (0 when absent)
	StoreEpoch uint64
	TotalNodes uint64
	ValueNodes uint64
	TreePages  uint64
	MaxDepth   uint32
	Tags       int // distinct tags
	Paths      int // distinct root-to-node paths recorded
	Truncated  bool
	TopTags    []TagCountInfo
	TopPaths   []PathCountInfo
}

// SynopsisInfo summarizes the loaded synopsis with the top-n tags and
// paths by cardinality.
func (db *Snapshot) SynopsisInfo(n int) SynopsisInfo {
	out := SynopsisInfo{StoreEpoch: db.epoch}
	syn := db.syn.Load()
	if syn == nil {
		return out
	}
	out.Present = true
	out.Stale = syn.Epoch != db.epoch
	out.Epoch = syn.Epoch
	out.TotalNodes = syn.TotalNodes
	out.ValueNodes = syn.ValueNodes
	out.TreePages = syn.TreePages
	out.MaxDepth = syn.MaxDepth
	out.Tags = len(syn.Tags)
	out.Paths = len(syn.Paths)
	out.Truncated = syn.PathsTruncated

	for _, r := range syn.TopTags(n) {
		name, ok := db.Tags.Name(r.Sym)
		if !ok {
			name = fmt.Sprintf("sym(%d)", r.Sym)
		}
		out.TopTags = append(out.TopTags, TagCountInfo{Name: name, Count: r.Count})
	}

	paths := make([]PathCountInfo, 0, len(syn.Paths))
	for _, ps := range syn.Paths {
		var b strings.Builder
		for _, sym := range ps.Syms {
			name, ok := db.Tags.Name(sym)
			if !ok {
				name = fmt.Sprintf("sym(%d)", sym)
			}
			b.WriteByte('/')
			b.WriteString(name)
		}
		paths = append(paths, PathCountInfo{Path: b.String(), Count: ps.Count})
	}
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].Count != paths[j].Count {
			return paths[i].Count > paths[j].Count
		}
		return paths[i].Path < paths[j].Path
	})
	if n > 0 && len(paths) > n {
		paths = paths[:n]
	}
	out.TopPaths = paths
	return out
}
