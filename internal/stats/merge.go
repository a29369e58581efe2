package stats

import "nok/internal/symtab"

// This file makes the synopsis incrementally maintainable: every component
// (per-tag summaries, path cardinalities, the count-min sketch) is a sum,
// a max, or a mergeable sketch, so a delta collected over just the nodes a
// batch appends can be folded into the previous epoch's synopsis without
// rescanning the store. The ingest pipeline (internal/ingest) relies on
// this to keep the planner's statistics fresh under a continuous append
// stream — the alternative, a full-tree rebuild per commit, is exactly the
// cost group commit exists to amortize.

// NewDeltaBuilder returns a Builder whose path stack is pre-seeded with the
// ancestor chain of an insertion point: ancestors[0] is the document root's
// tag and the last element is the parent the new subtrees attach under.
// The seeded frames are NOT counted — only subsequent Node/Value calls
// accumulate into the delta — but they make path hashes and the parent's
// fan-out accounting come out exactly as a full rebuild would: the first
// Node call at level len(ancestors)+1 extends the parent's path hash and
// increments the parent tag's SumChildren.
func NewDeltaBuilder(ancestors []symtab.Sym) *Builder {
	b := NewBuilder()
	h := PathSeed
	for _, sym := range ancestors {
		h = ExtendPath(h, sym)
		b.stack = append(b.stack, frame{sym: sym, hash: h})
	}
	return b
}

// Delta returns the accumulated synopsis delta. Epoch and TreePages are
// left zero — Merge's caller stamps the merged result. The builder must
// not be reused afterwards.
func (b *Builder) Delta() *Synopsis {
	b.stack = nil
	return b.syn
}

// Merge folds a delta (from a DeltaBuilder over newly appended nodes) into
// prev, returning a fresh Synopsis; prev and delta are never mutated (prev
// is typically shared with live readers of the previous epoch). Epoch and
// TreePages of the result are zero — the caller stamps them at commit.
//
// Merge returns nil when the sketches are incompatible (missing or
// different widths); the caller must then fall back to a full rebuild.
// When prev covers every store node at the pre-append epoch, the merged
// result is element-for-element what a full rebuild would produce, with
// one caveat: if the combined path summary overflows MaxPaths, the set of
// retained paths may differ from a rebuild's document-order prefix (both
// set PathsTruncated, which is what the planner keys on).
func Merge(prev, delta *Synopsis) *Synopsis {
	values := mergeSketches(prev.Values, delta.Values)
	if values == nil {
		return nil
	}
	out := &Synopsis{
		TotalNodes:     prev.TotalNodes + delta.TotalNodes,
		MaxDepth:       max32(prev.MaxDepth, delta.MaxDepth),
		ValueNodes:     prev.ValueNodes + delta.ValueNodes,
		Tags:           make(map[symtab.Sym]*TagStat, len(prev.Tags)+len(delta.Tags)),
		Paths:          make(map[uint64]*PathStat, len(prev.Paths)+len(delta.Paths)),
		PathsTruncated: prev.PathsTruncated || delta.PathsTruncated,
		Values:         values,
	}
	for sym, t := range prev.Tags {
		c := *t
		out.Tags[sym] = &c
	}
	for sym, d := range delta.Tags {
		t, ok := out.Tags[sym]
		if !ok {
			t = &TagStat{}
			out.Tags[sym] = t
		}
		t.Count += d.Count
		t.WithValue += d.WithValue
		t.SumDepth += d.SumDepth
		t.MaxDepth = max32(t.MaxDepth, d.MaxDepth)
		t.SumChildren += d.SumChildren
	}
	for h, p := range prev.Paths {
		// Syms slices are immutable once built; sharing them is safe.
		c := *p
		out.Paths[h] = &c
	}
	for h, d := range delta.Paths {
		if p, ok := out.Paths[h]; ok {
			p.Count += d.Count
		} else if len(out.Paths) < MaxPaths {
			c := *d
			out.Paths[h] = &c
		} else {
			out.PathsTruncated = true
		}
	}
	return out
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// Clone returns a deep copy of the sketch.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{width: s.width}
	for i := range s.rows {
		c.rows[i] = make([]uint32, len(s.rows[i]))
		copy(c.rows[i], s.rows[i])
	}
	return c
}

// mergeSketches returns a fresh sketch holding the cell-wise saturating sum
// of a and b, or nil when they cannot be merged (either missing, or the
// widths differ so the index functions disagree). Because Add increments
// the same cells deterministically, the merged sketch is identical to one
// fed both input streams.
func mergeSketches(a, b *Sketch) *Sketch {
	if a == nil || b == nil || a.width != b.width {
		return nil
	}
	out := a.Clone()
	for i := range out.rows {
		row, add := out.rows[i], b.rows[i]
		for j := range row {
			if c := uint64(row[j]) + uint64(add[j]); c > uint64(^uint32(0)) {
				row[j] = ^uint32(0)
			} else {
				row[j] = uint32(c)
			}
		}
	}
	return out
}
