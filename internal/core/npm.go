package core

import (
	"context"
	"sort"
	"time"

	"nok/internal/dewey"
	"nok/internal/pattern"
	"nok/internal/planner"
	"nok/internal/stree"
	"nok/internal/symtab"
)

// This file implements the paper's Algorithm 1 (NoK pattern matching) at
// the physical level: the subject tree is only touched through the
// FIRST-CHILD and FOLLOWING-SIBLING primitives of Algorithm 2, so subject
// nodes are visited in document order and every page is read at most once
// per matched region (Proposition 1).
//
// Two refinements over the paper's pseudocode:
//
//   - The paper keeps the returning node in the frontier after it matches
//     ("a matched frontier should be deleted (if it is not the returning
//     node)") so all of its matches are collected. We generalize "returning
//     node" to the *output spine*: every pattern node that is an output
//     node (returning node or a structural-join link source) or has one in
//     its local subtree. Without this, /a/b/c would return only the first
//     b's c children.
//
//   - Sibling-order (⊲) arcs need the set of match ordinals, not just the
//     first match, to decide feasibility exactly (a successor must match at
//     a strictly larger child ordinal than its predecessor's *assigned*
//     ordinal). Children involved in arcs therefore record all ordinals,
//     and feasibility is decided by a greedy assignment in topological
//     order, mirroring the oracle evaluator in internal/domnav.
type matcher struct {
	db *Snapshot

	// syms resolves each pattern node's tag test: wild[n] means any tag;
	// otherwise syms[n] is the symbol, with 0 meaning the tag does not
	// occur in the document at all (the node can never match).
	syms map[*pattern.Node]symtab.Sym
	wild map[*pattern.Node]bool

	// collect accumulates matches for output nodes.
	collect map[*pattern.Node]*[]Match

	// linkPred holds structural-join predicates installed on link-source
	// nodes by the evaluator (bottom-up phase).
	linkPred map[*pattern.Node]func(Match) (bool, error)

	// sticky marks the output spine (computed per NoK tree by newMatcher).
	sticky map[*pattern.Node]bool

	// noSkip disables the (st,lo,hi) page-skip optimization — the
	// ablation knob for the header-skipping benchmark.
	noSkip bool

	// nc attributes page-level navigation work to the owning query
	// (PagesScanned/PagesSkipped in QueryStats).
	nc *stree.NavCounters

	// ctx, when non-nil, is polled every cancelStride subject-node visits
	// so a long navigational match can be abandoned mid-flight.
	ctx     context.Context
	ctxTick int

	stats *QueryStats
}

// cancelStride is how many subject-node visits pass between context polls:
// frequent enough that cancellation lands within microseconds of work,
// cheap enough (one atomic load per stride) to vanish in the noise.
const cancelStride = 64

// checkCancel polls the matcher's context every cancelStride visits.
func (m *matcher) checkCancel() error {
	if m.ctx == nil {
		return nil
	}
	m.ctxTick++
	if m.ctxTick%cancelStride != 0 {
		return nil
	}
	return m.ctx.Err()
}

// Match is one subject-node match: its physical position and Dewey ID.
type Match struct {
	Pos stree.Pos
	ID  dewey.ID
}

// DocPos orders matches in document order.
func (m Match) DocPos() uint64 { return m.Pos.DocPos() }

// QueryStats reports work done by one query evaluation.
type QueryStats struct {
	// Partitions is the number of NoK pattern trees.
	Partitions int
	// StartingPoints is the total number of NoK starting points tried.
	StartingPoints int
	// NPMCalls counts recursive NPM invocations.
	NPMCalls int
	// NodesVisited counts subject-child visits during matching.
	NodesVisited int
	// StrategyUsed records the starting-point strategy that actually ran
	// for each partition — when a requested or planned strategy cannot
	// apply (no usable constraint, wildcard chain) this shows the fallback
	// it silently degraded to, and StrategySkipped marks partitions the
	// evaluator never matched because a linked child partition was empty.
	StrategyUsed []Strategy
	// Requested is the strategy the caller asked for (StrategyAuto unless
	// forced); comparing it with StrategyUsed exposes silent degradation.
	Requested Strategy
	// Planned reports whether the cost-based planner chose the strategies
	// (StrategyAuto with a fresh statistics synopsis); PlanEpoch is the
	// synopsis epoch the plan was costed against, and EstRows/EstPages are
	// the plan's result-cardinality and page-I/O estimates — comparing them
	// with the actual result count and PagesScanned is what the telemetry
	// pipeline's q-error feedback is built from. Both are zero when the
	// §6.2 heuristic ran.
	Planned   bool
	PlanEpoch uint64
	EstRows   float64
	EstPages  float64
	// QueryID is the process-unique ID the telemetry pipeline assigned to
	// this evaluation (0 when telemetry is disabled). The server echoes it
	// in the X-Nok-Query-Id header; /debug/queries and the slow-query log
	// key their records by it.
	QueryID uint64
	// plan retains the chosen plan for lazy rendering in telemetry records
	// (plans are immutable and shared with the plan cache).
	plan *planner.Plan
	// JoinInputs counts match-list elements fed into structural joins.
	JoinInputs int
	// PagesScanned counts pages examined by this query's navigation
	// (FOLLOWING-SIBLING and subtree-end scans); PagesSkipped counts pages
	// those scans excluded through the (st,lo,hi) header bounds — the
	// per-query view of the paper's Algorithm 2 page-skip optimization.
	PagesScanned uint64
	PagesSkipped uint64
	// Parallel reports that the bottom-up phase ran its independent
	// partitions on concurrent workers (plan-gated; see eval.go), and
	// PartitionTimings carries the per-partition wall-clock attribution
	// that /debug/queries exposes as the intra-query fan-out. Timings are
	// only collected on the parallel path — the sequential path's phase
	// trace already times partitions when asked.
	Parallel         bool
	PartitionTimings []PartitionTiming
	// Shards carries per-shard wall-clock attribution when the query ran
	// through the scatter-gather executor (internal/shard): which shards
	// participated, which were pruned from statistics alone and why. Empty
	// for single-store queries.
	Shards []ShardTiming
	// Degraded reports that one or more shards were unavailable and the
	// results are a correct but possibly incomplete subset of the full
	// answer; MissingShards lists them in ascending order. Only the
	// scatter-gather executor sets these, and only when the caller opted
	// into partial results — without the opt-in an unavailable shard fails
	// the query with ErrShardUnavailable instead.
	Degraded      bool
	MissingShards []int
}

// ShardTiming is one shard's contribution to a scatter-gather query.
type ShardTiming struct {
	Shard      int
	Duration   time.Duration
	Results    int
	Skipped    bool
	SkipReason string
	// Unavailable marks a shard that could not be reached; its results are
	// missing from a degraded answer.
	Unavailable bool
}

// ShardHealth is one shard's availability as the scatter-gather executor
// sees it: local shards are always healthy; remote shards report the
// transport's circuit-breaker state and last observed committed epoch.
type ShardHealth struct {
	Shard   int    `json:"shard"`
	Addr    string `json:"addr,omitempty"` // empty for local shards
	Remote  bool   `json:"remote"`
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker,omitempty"` // closed, half-open or open
	Epoch   uint64 `json:"epoch"`
}

// PartitionTiming is one partition's contribution to a parallel bottom-up
// phase: which partition, what ran it, how long it took, and what it found.
type PartitionTiming struct {
	Partition int
	Strategy  Strategy
	Duration  time.Duration
	Matches   int
}

// newMatcher prepares a matcher for the pattern nodes of one NoK tree.
func newMatcher(db *Snapshot, nt *pattern.NoKTree, outputs []*pattern.Node, stats *QueryStats) *matcher {
	m := &matcher{
		db:       db,
		syms:     make(map[*pattern.Node]symtab.Sym),
		wild:     make(map[*pattern.Node]bool),
		collect:  make(map[*pattern.Node]*[]Match),
		linkPred: make(map[*pattern.Node]func(Match) (bool, error)),
		sticky:   make(map[*pattern.Node]bool),
		stats:    stats,
	}
	for _, n := range nt.Nodes() {
		if n.Test == "*" {
			m.wild[n] = true
			continue
		}
		if n.IsVirtualRoot() {
			continue
		}
		if sym, ok := db.Tags.Lookup(n.Test); ok {
			m.syms[n] = sym
		} // else syms[n] stays 0: impossible test
	}
	for _, o := range outputs {
		var list []Match
		m.collect[o] = &list
		// Mark the spine: o and its ancestors within the NoK tree.
		m.markSpine(nt, o)
	}
	return m
}

// markSpine marks every node on the local path from nt.Root to o.
func (m *matcher) markSpine(nt *pattern.NoKTree, o *pattern.Node) {
	var path []*pattern.Node
	var rec func(n *pattern.Node) bool
	rec = func(n *pattern.Node) bool {
		path = append(path, n)
		if n == o {
			for _, p := range path {
				m.sticky[p] = true
			}
			return true
		}
		for _, c := range pattern.LocalChildren(n) {
			if rec(c) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	rec(nt.Root)
}

// results returns the collected matches for an output node, sorted in
// document order and deduplicated.
func (m *matcher) results(o *pattern.Node) []Match {
	list := *m.collect[o]
	sort.Slice(list, func(i, j int) bool { return list[i].DocPos() < list[j].DocPos() })
	out := list[:0]
	var last uint64
	for i, mt := range list {
		if dp := mt.DocPos(); i == 0 || dp != last {
			out = append(out, mt)
			last = dp
		}
	}
	return out
}

// nodeMatches checks the node-local constraints of p against subject node
// u: tag test, value constraint, and any installed link predicate.
func (m *matcher) nodeMatches(p *pattern.Node, u Match, uSym symtab.Sym) (bool, error) {
	if !m.wild[p] {
		sym, ok := m.syms[p]
		if !ok || sym != uSym {
			return false, nil
		}
	}
	if p.HasValueConstraint() {
		val, _, err := m.db.NodeValue(u.ID)
		if err != nil {
			return false, err
		}
		if !p.Cmp.Eval(val, p.Literal) {
			return false, nil
		}
	}
	if pred := m.linkPred[p]; pred != nil {
		ok, err := pred(u)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// collectorMarks snapshots all collector lengths for rollback.
func (m *matcher) collectorMarks() map[*pattern.Node]int {
	if len(m.collect) == 0 {
		return nil
	}
	marks := make(map[*pattern.Node]int, len(m.collect))
	for n, l := range m.collect {
		marks[n] = len(*l)
	}
	return marks
}

func (m *matcher) rollback(marks map[*pattern.Node]int) {
	for n, l := range m.collect {
		*l = (*l)[:marks[n]]
	}
}

// collectorRange records the collector span appended by one sticky-child
// match (used to splice out matches invalidated by ⊲ feasibility).
type collectorRange struct {
	ord    int
	from   map[*pattern.Node]int
	to     map[*pattern.Node]int
	picked bool
}

// childState tracks one pattern child during the children loop.
type childState struct {
	node *pattern.Node
	// preds are the local ⊲ predecessors among the same sibling set.
	preds []*childState
	// ords lists child ordinals where the subtree matched.
	ords []int
	// ranges are per-match collector spans (sticky children only).
	ranges []*collectorRange
	// hasArcs is true when the node participates in any ⊲ arc.
	hasArcs bool
}

func (cs *childState) firstOrd() int {
	if len(cs.ords) == 0 {
		return -1
	}
	return cs.ords[0]
}

// npm is Algorithm 1: does the NoK pattern subtree rooted at p match the
// subject subtree rooted at u? The caller has already verified p's
// node-local constraints against u. Collector entries appended during a
// failed invocation are rolled back before returning.
func (m *matcher) npm(p *pattern.Node, u Match) (bool, error) {
	m.stats.NPMCalls++
	entryMarks := m.collectorMarks()

	if list, ok := m.collect[p]; ok {
		*list = append(*list, u)
	}

	children := pattern.LocalChildren(p)
	if len(children) == 0 {
		return true, nil
	}

	states := make([]*childState, len(children))
	byNode := make(map[*pattern.Node]*childState, len(children))
	for i, c := range children {
		states[i] = &childState{node: c}
		byNode[c] = states[i]
	}
	for _, cs := range states {
		for _, pred := range cs.node.PrecededBy {
			if ps, ok := byNode[pred]; ok {
				cs.preds = append(cs.preds, ps)
				cs.hasArcs = true
				ps.hasArcs = true
			}
		}
	}

	// The children loop: FIRST-CHILD then FOLLOWING-SIBLING, in document
	// order, exactly Algorithm 1's lines 4 and 13.
	uc, ok, err := m.firstChild(p, u)
	if err != nil {
		return false, err
	}
	ord := 0
	for ok {
		ord++
		m.stats.NodesVisited++
		if err := m.checkCancel(); err != nil {
			return false, err
		}
		var childID dewey.ID
		if p.IsVirtualRoot() {
			childID = dewey.Root()
		} else {
			childID = u.ID.Child(uint32(ord))
		}
		child := Match{Pos: uc, ID: childID}
		var childSym symtab.Sym
		symKnown := false

		for _, cs := range states {
			if !m.needsScan(cs) {
				continue
			}
			if !m.eligibleAt(cs, ord) {
				continue
			}
			if !symKnown {
				childSym, err = m.db.Tree.SymAt(uc)
				if err != nil {
					return false, err
				}
				symKnown = true
			}
			okNode, err := m.nodeMatches(cs.node, child, childSym)
			if err != nil {
				return false, err
			}
			if !okNode {
				continue
			}
			marks := m.collectorMarks()
			matched, err := m.npm(cs.node, child)
			if err != nil {
				return false, err
			}
			if matched {
				cs.ords = append(cs.ords, ord)
				if m.sticky[cs.node] {
					cs.ranges = append(cs.ranges, &collectorRange{
						ord: ord, from: marks, to: m.collectorMarks(),
					})
				}
			} else {
				m.rollback(marks)
			}
		}

		if m.allDone(states) {
			break
		}
		uc, ok, err = m.db.Tree.FollowingSibling(uc, !m.noSkip, m.nc)
		if err != nil {
			return false, err
		}
	}

	// Feasibility: a joint assignment must exist.
	if !feasibleAssignment(states, nil, -1) {
		m.rollback(entryMarks)
		return false, nil
	}
	// Splice out sticky matches that no assignment can pin.
	m.filterPinned(states)
	return true, nil
}

// needsScan reports whether child cs still needs to be tried against
// further subject children. Pure existential children stop after their
// first match; sticky children (output spine) and arc-involved children
// record every match.
func (m *matcher) needsScan(cs *childState) bool {
	if len(cs.ords) == 0 {
		return true
	}
	return m.sticky[cs.node] || cs.hasArcs
}

// eligibleAt reports whether cs may match at the given ordinal: all its ⊲
// predecessors must already have a match at a strictly smaller ordinal.
func (m *matcher) eligibleAt(cs *childState, ord int) bool {
	for _, pred := range cs.preds {
		f := pred.firstOrd()
		if f < 0 || f >= ord {
			return false
		}
	}
	return true
}

// allDone reports whether scanning further subject children cannot change
// the outcome: every child has matched and none needs more matches.
func (m *matcher) allDone(states []*childState) bool {
	for _, cs := range states {
		if m.needsScan(cs) {
			return false
		}
	}
	return true
}

// feasibleAssignment decides whether the recorded match ordinals admit an
// assignment respecting the ⊲ partial order; with pin non-nil, the pinned
// child must be assigned exactly pinOrd. Greedy in topological order is
// exact (see internal/domnav.assignLocal for the argument).
func feasibleAssignment(states []*childState, pin *childState, pinOrd int) bool {
	order := topoStates(states)
	if order == nil {
		return false
	}
	assigned := make(map[*childState]int, len(states))
	for _, cs := range order {
		lower := -1
		for _, pred := range cs.preds {
			if a := assigned[pred]; a > lower {
				lower = a
			}
		}
		if cs == pin {
			if pinOrd <= lower || !containsOrd(cs.ords, pinOrd) {
				return false
			}
			assigned[cs] = pinOrd
			continue
		}
		found := -1
		for _, o := range cs.ords {
			if o > lower {
				found = o
				break
			}
		}
		if found < 0 {
			return false
		}
		assigned[cs] = found
	}
	return true
}

func containsOrd(ords []int, ord int) bool {
	i := sort.SearchInts(ords, ord)
	return i < len(ords) && ords[i] == ord
}

func topoStates(states []*childState) []*childState {
	indeg := make(map[*childState]int, len(states))
	succs := make(map[*childState][]*childState, len(states))
	for _, cs := range states {
		for _, p := range cs.preds {
			indeg[cs]++
			succs[p] = append(succs[p], cs)
		}
	}
	var queue, out []*childState
	for _, cs := range states {
		if indeg[cs] == 0 {
			queue = append(queue, cs)
		}
	}
	for len(queue) > 0 {
		cs := queue[0]
		queue = queue[1:]
		out = append(out, cs)
		for _, s := range succs[cs] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(out) != len(states) {
		return nil
	}
	return out
}

// filterPinned removes collector spans of sticky-child matches that cannot
// participate in any valid assignment. Spans from different children
// interleave in collector offset space, so all invalid spans are gathered
// first and spliced from the highest offsets down.
func (m *matcher) filterPinned(states []*childState) {
	type span struct {
		list     *[]Match
		from, to int
	}
	var spans []span
	for _, cs := range states {
		if len(cs.ranges) == 0 || !cs.hasArcs {
			continue // unconstrained: every match is valid
		}
		for _, r := range cs.ranges {
			if feasibleAssignment(states, cs, r.ord) {
				continue
			}
			for n, list := range m.collect {
				from, to := r.from[n], r.to[n]
				if from != to {
					spans = append(spans, span{list, from, to})
				}
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].from > spans[j].from })
	for _, s := range spans {
		*s.list = append((*s.list)[:s.from], (*s.list)[s.to:]...)
	}
}

// firstChild returns the first subject child for the children loop. The
// virtual pattern root's only "child" is the document root element.
func (m *matcher) firstChild(p *pattern.Node, u Match) (stree.Pos, bool, error) {
	if p.IsVirtualRoot() {
		root, err := m.db.Tree.Root()
		if err == stree.ErrEmptyStore {
			return stree.Pos{}, false, nil
		}
		return root, err == nil, err
	}
	return m.db.Tree.FirstChild(u.Pos)
}

// matchAt verifies node-local constraints and runs npm — the entry point
// used by the evaluator for each starting point.
func (m *matcher) matchAt(p *pattern.Node, u Match) (bool, error) {
	if p.IsVirtualRoot() {
		return m.npm(p, u)
	}
	sym, err := m.db.Tree.SymAt(u.Pos)
	if err != nil {
		return false, err
	}
	ok, err := m.nodeMatches(p, u, sym)
	if err != nil || !ok {
		return false, err
	}
	return m.npm(p, u)
}
