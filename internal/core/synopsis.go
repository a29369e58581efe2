package core

// synopsis.go — the DB side of the statistics synopsis (internal/stats)
// and the cost-based planner (internal/planner): loading the committed
// synopsis (rebuilding it from the tree when its file was lost or
// damaged), the plan cache, and the Access→Strategy mapping the evaluator
// uses to execute a plan.

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
	mSynopsisLoadErrs = obs.Default.Counter("nok_synopsis_load_errors_total", "synopsis files missing, corrupt or inconsistent at open, rebuilt from the tree")
	mPlanCacheHits    = obs.Default.Counter("nok_plan_cache_hits_total", "query plans served from the per-store plan cache")
	mPlanCacheMisses  = obs.Default.Counter("nok_plan_cache_misses_total", "query plans built by the cost-based planner")
)

// loadSynopsis reads the committed synopsis of the snapshot Open is
// building. A synopsis file that is missing, does not decode, belongs to
// another epoch or counts a different number of nodes than the tree was
// lost or damaged outside the program: it is rebuilt from the tree with
// one scan (counted in nok_synopsis_load_errors_total), and the next
// commit persists the rebuilt one. Pruning and the §6.2 heuristic trust
// the synopsis counts, so a wrong one must never be installed.
func (db *DB) loadSynopsis() (*stats.Synopsis, error) {
	if rec, ok := db.manifest.Files[roleSynopsis]; ok {
		raw, err := vfs.ReadFile(db.fsys, filepath.Join(db.dir, rec.Name))
		if err == nil {
			syn, err := stats.Decode(raw)
			if err == nil && syn.Epoch == db.epoch && syn.TotalNodes == db.Tree.NodeCount() {
				return syn, nil
			}
		}
	}
	mSynopsisLoadErrs.Inc()
	return db.scanSynopsis()
}

// scanSynopsis builds the snapshot's synopsis from a full scan of its tree
// and value store — the same statistics a bulk load collects.
func (db *Snapshot) scanSynopsis() (*stats.Synopsis, error) {
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
		return nil, fmt.Errorf("core: rebuilding synopsis: %w", err)
	}
	return sb.Finish(db.epoch, uint64(db.Tree.NumPages())), nil
}

// Synopsis returns the snapshot's statistics synopsis, built at its epoch.
func (db *Snapshot) Synopsis() *stats.Synopsis { return db.syn }

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

// planFor returns the cost-based plan for a parsed query. Plans are
// cached per canonical expression; the cache lives on the snapshot, so a
// cached plan always belongs to the snapshot's epoch.
func (db *Snapshot) planFor(t *pattern.Tree, parts []*pattern.NoKTree, anchor *pattern.Node, chain []string) *planner.Plan {
	key := t.String()
	db.planMu.Lock()
	if p, ok := db.planCache[key]; ok {
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
	}, db.syn, db.Tags, db.shape())
	db.planMu.Lock()
	if db.planCache == nil {
		db.planCache = make(map[string]*planner.Plan)
	}
	db.planCache[key] = p
	db.planMu.Unlock()
	return p
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
// executing it.
func (db *Snapshot) Plan(expr string) (*planner.Plan, error) {
	t, err := pattern.Parse(expr)
	if err != nil {
		return nil, err
	}
	parts := pattern.Partition(t)
	anchor, chain := topAnchor(parts[0], t)
	return db.planFor(t, parts, anchor, chain), nil
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
	Present    bool   // false only when a remote shard reported none
	Epoch      uint64 // synopsis epoch, the store epoch (0 when absent)
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
	syn := db.syn
	out := SynopsisInfo{Present: true, Epoch: syn.Epoch}
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
