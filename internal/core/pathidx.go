package core

import (
	"encoding/binary"

	"nok/internal/dewey"
	"nok/internal/pattern"
	"nok/internal/stats"
	"nok/internal/stree"
	"nok/internal/symtab"
)

// This file implements the paper's §8 future-work extension: "use path
// index instead of tag-name index. This is particularly efficient when the
// selectivity of individual tag names are low but the selectivity of a
// path is high."
//
// The path index is a fourth B+ tree keyed by hash(root-to-node tag path)
// ‖ Dewey ID, valued with the node position — the same layout as the
// other multi-valued indexes, so a prefix scan yields all nodes reachable
// by one concrete root path, in document order. Hash collisions cannot
// produce wrong answers: candidates are verified against the actual tag
// chain through Dewey-prefix lookups before matching starts.

const filePathIdx = "pathidx.pg"

// The path hash is shared with the statistics synopsis's path summary
// (internal/stats holds the canonical FNV-1a definition): the planner can
// estimate a path's cardinality with the same hash the index probes with.
const pathHashSeed = stats.PathSeed

// extendPathHash folds one more tag symbol into a path hash.
func extendPathHash(h uint64, sym symtab.Sym) uint64 {
	return stats.ExtendPath(h, sym)
}

// pathKey composes the path-index key hash ‖ dewey.
func pathKey(hash uint64, id dewey.ID) []byte {
	key := make([]byte, 8, 8+len(id)*2)
	binary.BigEndian.PutUint64(key, hash)
	return append(key, id.Bytes()...)
}

// chainPathHash hashes a concrete tag chain (depth-1 tag first, anchor
// last). ok is false when any test is a wildcard or an unknown tag (the
// path cannot be in the index).
func (db *Snapshot) chainPathHash(chainTests []string, anchorTest string) (uint64, bool) {
	h := pathHashSeed
	for _, test := range chainTests {
		if test == "*" {
			return 0, false
		}
		sym, found := db.Tags.Lookup(test)
		if !found {
			return 0, false
		}
		h = extendPathHash(h, sym)
	}
	if anchorTest == "*" {
		return 0, false
	}
	sym, found := db.Tags.Lookup(anchorTest)
	if !found {
		return 0, false
	}
	return extendPathHash(h, sym), true
}

// startsByPath locates anchor candidates through the path index: all nodes
// whose root-to-node tag path equals the anchored chain. Ancestors are
// still verified (hash collisions must not surface), but unlike the tag
// strategy no depth filtering or lifted ancestors are needed — the index
// key *is* the whole path.
func (db *Snapshot) startsByPath(anchor *pattern.Node, chainTests []string, nc *stree.NavCounters) ([]Match, bool, error) {
	if db.PathIdx == nil {
		return nil, false, nil
	}
	h, ok := db.chainPathHash(chainTests, anchor.Test)
	if !ok {
		return nil, false, nil
	}
	var prefix [8]byte
	binary.BigEndian.PutUint64(prefix[:], h)
	depth := len(chainTests) + 1
	var out []Match
	var scanErr error
	err := db.PathIdx.ScanPrefix(prefix[:], func(key, value []byte) bool {
		id, err := dewey.FromBytes(key[8:])
		if err != nil || len(id) != depth {
			return true
		}
		pos, err := decodePos(value)
		if err != nil {
			return true
		}
		// Verify against collisions: the anchor tag plus ancestors.
		nc.AddExamined(1) // SymAt touches one tree page
		sym, err := db.Tree.SymAt(pos)
		if err != nil {
			scanErr = err
			return false
		}
		want, found := db.Tags.Lookup(anchor.Test)
		if !found || sym != want {
			return true
		}
		okAnc, err := db.ancestorsMatch(id, chainTests, nc)
		if err != nil {
			scanErr = err
			return false
		}
		if okAnc {
			out = append(out, Match{Pos: pos, ID: id.Clone()})
		}
		return true
	}, btPages(nc))
	if scanErr != nil {
		return nil, false, scanErr
	}
	return out, true, err
}
