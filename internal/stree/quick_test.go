package stree

import (
	"testing"
	"testing/quick"

	"nok/internal/symtab"
)

// scriptFromBytes shapes arbitrary bytes into a well-formed token script:
// each byte decides open-vs-close (biased to keep some depth); the result
// always balances.
func scriptFromBytes(raw []byte) []symtab.Sym {
	var script []symtab.Sym
	depth := 0
	script = append(script, 1) // root
	depth = 1
	for _, b := range raw {
		if depth > 1 && b%3 == 0 {
			script = append(script, 0)
			depth--
			continue
		}
		if depth < 30 {
			script = append(script, symtab.Sym(1+b%7))
			depth++
		}
	}
	for depth > 0 {
		script = append(script, 0)
		depth--
	}
	return script
}

// TestQuickNavigationInvariants checks, for arbitrary generated trees and
// small pages, the structural invariants every consumer relies on:
// FirstChild/FollowingSibling walk visits exactly the Scan sequence, and
// intervals properly nest.
func TestQuickNavigationInvariants(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		script := scriptFromBytes(raw)
		s, _ := buildStore(t, script, 128, 20)

		// Walk the tree with the primitives; collect preorder positions.
		var walk func(p Pos, out *[]Pos) bool
		walk = func(p Pos, out *[]Pos) bool {
			*out = append(*out, p)
			c, ok, err := s.FirstChild(p)
			if err != nil {
				return false
			}
			for ok {
				if !walk(c, out) {
					return false
				}
				c, ok, err = s.FollowingSibling(c, true, nil)
				if err != nil {
					return false
				}
			}
			return true
		}
		root, err := s.Root()
		if err != nil {
			return false
		}
		var navOrder []Pos
		if !walk(root, &navOrder) {
			return false
		}
		scanOrder := scanPositions(t, s)
		if len(navOrder) != len(scanOrder) {
			t.Logf("nav %d nodes, scan %d", len(navOrder), len(scanOrder))
			return false
		}
		for i := range navOrder {
			if navOrder[i] != scanOrder[i] {
				t.Logf("order diverges at %d: %v vs %v", i, navOrder[i], scanOrder[i])
				return false
			}
		}
		// Intervals of consecutive preorder nodes either nest or are
		// disjoint, and each interval is non-empty.
		for _, p := range navOrder {
			iv, err := s.Interval(p, nil)
			if err != nil || iv.End <= iv.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickLevelArrays cross-checks computeLevels/boundsOf/runningLevelAfter
// agreement on arbitrary balanced chunks.
func TestQuickLevelArrays(t *testing.T) {
	f := func(raw []byte, stRaw uint8) bool {
		st := int16(stRaw % 40)
		// Build a token byte string from raw (possibly unbalanced —
		// these helpers must handle page fragments).
		var cont []byte
		lvl := st
		for _, b := range raw {
			if lvl > 0 && b%3 == 0 {
				cont = append(cont, CloseByte)
				lvl--
			} else {
				sym := symtab.Sym(1 + b%200)
				cont = append(cont, byte(sym>>8), byte(sym))
				lvl++
			}
		}
		levels := computeLevels(cont, st)
		lo, hi := boundsOf(cont, st)
		after := runningLevelAfter(cont, st)

		// Walk manually and verify all three.
		wantLo, wantHi := st, st
		cur := st
		for i := 0; i < len(cont); {
			var tok int
			if cont[i] == CloseByte {
				cur--
				tok = CloseTokenSize
			} else {
				cur++
				tok = OpenTokenSize
			}
			if levels[i] != cur {
				return false
			}
			if cur < wantLo {
				wantLo = cur
			}
			if cur > wantHi {
				wantHi = cur
			}
			i += tok
		}
		return lo == wantLo && hi == wantHi && after == cur
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
