package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"nok/internal/btree"
	"nok/internal/dewey"
	"nok/internal/pager"
	"nok/internal/stats"
	"nok/internal/stree"
	"nok/internal/symtab"
	"nok/internal/vfs"
	"nok/internal/vstore"
)

// This file implements document updates at the database level. The string
// tree itself updates locally (§4.2), but both multi-valued indexes and
// the Dewey index carry physical positions, which shift wholesale when
// tokens move; as the paper concedes, "due to the nature of Dewey IDs, the
// node ID B+ tree may need to be reconstructed if many IDs have been
// updated". We reconstruct the three B+ trees after every fragment-level
// update: value data stays in place (the data file is append-only), the
// dewey→value association is carried over in memory, and a single scan of
// the updated string tree rebuilds the position-bearing entries.
//
// Every update is one atomic commit that never blocks readers (MVCC via
// shadow paging, see internal/pager/versions.go and snapshot.go):
//
//  1. A copy-on-write transaction opens on tree.pg; the first write to a
//     committed page relocates it to a fresh physical page, so every page
//     the current epoch references stays byte-identical on disk.
//  2. The mutation runs against a writer clone of the current snapshot's
//     tree; concurrent readers keep evaluating on their pinned views.
//  3. The indexes, symbols, statistics and synopsis are rebuilt into
//     fresh epoch-named files; the previous epoch's files are untouched.
//  4. Commit: fsync everything, write the new epoch's page-table sidecar
//     (treemap), then atomically replace the MANIFEST — the commit point.
//     A crash anywhere before it leaves the old epoch fully intact.
//  5. The new Snapshot is published with one pointer swap; the previous
//     view is garbage-collected when its last reader releases it (its
//     private tree pages recycle, its superseded files are deleted).
//
// An in-process failure before the commit point aborts cleanly — the
// copy-on-write pages are recycled and the store stays usable. Only a
// failure *after* the manifest switch marks the DB broken
// (ErrNeedsRecovery): disk is committed but memory may not match; reopen
// to roll forward.

// ErrNeedsRecovery is returned by mutations after a previous update
// failed at (or beyond) its commit point; reopen the store to recover.
var ErrNeedsRecovery = errors.New("core: store needs recovery (a previous update failed); reopen to recover")

// InsertFragment parses an XML fragment and appends it as the last
// child(ren) of the node identified by parent. The fragment must contain
// exactly one root element. Indexes are rebuilt afterwards. It is the
// single-fragment case of InsertFragmentBatch (append.go).
func (db *DB) InsertFragment(parent dewey.ID, r io.Reader) error {
	err := db.InsertFragmentBatch(parent, []io.Reader{r})
	var fe *FragmentError
	if errors.As(err, &fe) {
		return fe.Err // a one-fragment batch has only one possible offender
	}
	return err
}

// DeleteSubtree removes the node with the given ID and its descendants.
// Following siblings are renumbered (their Dewey ordinals shift down by
// one), and indexes are rebuilt.
func (db *DB) DeleteSubtree(id dewey.ID) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if db.broken {
		return ErrNeedsRecovery
	}
	pos, _, found, err := db.NodeAt(id)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("core: no node with ID %s", id)
	}
	carried, err := db.valueAssociations(id, id[len(id)-1])
	if err != nil {
		return err
	}
	// A delete interns nothing, so the new epoch shares the committed
	// symbol table (tables are immutable once committed). Tag counts and
	// total are re-derived by the rebuild scan (a delete's synopsis delta
	// is not collectible from the parse, so no precomputed synopsis).
	return db.applyUpdate(db.Tags, carried, nil, func(t *stree.Store) error {
		return t.DeleteSubtree(pos)
	})
}

// applyUpdate runs mutate (the string-tree change) against a writer clone
// of the current snapshot inside a copy-on-write transaction, rebuilds the
// derived files into a new Snapshot, and commits by switching the manifest
// to the new epoch. Readers keep evaluating on their pinned views
// throughout. preSyn, when non-nil, is an incrementally merged synopsis
// (stats.Merge of the committed synopsis and the mutation's delta) that
// replaces the rebuild scan's statistics collection; it must not be shared
// with readers, as the commit stamps it. Caller holds wmu.
func (db *DB) applyUpdate(newTags *symtab.Table, carried map[string]uint64, preSyn *stats.Synopsis, mutate func(t *stree.Store) error) error {
	cur := db.Snapshot
	newEpoch := cur.epoch + 1
	if err := db.treeFile.BeginCOW(newEpoch); err != nil {
		return err
	}
	wtree := cur.Tree.WriterClone(db.treeFile)
	if err := mutate(wtree); err != nil {
		return db.abortUpdate(newEpoch, err)
	}
	next := &Snapshot{
		db:       db,
		epoch:    newEpoch,
		Tags:     newTags,
		Values:   db.Values,
		tagCount: make(map[symtab.Sym]uint64),
	}
	if err := db.rebuildIndexes(next, wtree, carried, preSyn); err != nil {
		next.closeFiles()
		return db.abortUpdate(newEpoch, err)
	}
	committed, err := db.commitEpoch(next, wtree)
	if err != nil {
		if !committed {
			next.closeFiles()
			return db.abortUpdate(newEpoch, err)
		}
		// Disk holds the new epoch but memory no longer matches it.
		db.broken = true
		return err
	}
	return nil
}

// abortUpdate rolls an uncommitted update back: the copy-on-write pages
// recycle, the fresh epoch-named files are deleted, and the store stays
// fully usable on the old epoch. Only an abort failure (the transaction's
// state can no longer be trusted) marks the DB broken.
func (db *DB) abortUpdate(newEpoch uint64, cause error) error {
	for _, role := range []string{roleTags, roleStats, roleSynopsis, roleTagIdx, roleValIdx, roleDewIdx, rolePathIdx, roleTreeMap} {
		_ = db.fsys.Remove(db.join(epochFileName(role, newEpoch)))
	}
	if err := db.treeFile.AbortCOW(); err != nil {
		db.broken = true
		return errors.Join(cause, fmt.Errorf("core: aborting update: %w", err))
	}
	return cause
}

// commitEpoch makes every file durable, writes the new epoch's page-table
// sidecar, switches the MANIFEST (the commit point), and publishes the new
// Snapshot. The previous view is retired: it keeps serving its pinned
// readers and is destroyed — files deleted, pages recycled — when the last
// one releases. committed reports whether the commit point was passed;
// when false the caller can still abort cleanly.
func (db *DB) commitEpoch(next *Snapshot, wtree *stree.Store) (committed bool, err error) {
	newEpoch := next.epoch
	names := map[string]string{
		roleTree:     fileTree,
		roleValues:   fileValues,
		roleTreeMap:  epochFileName(roleTreeMap, newEpoch),
		roleTags:     epochFileName(roleTags, newEpoch),
		roleStats:    epochFileName(roleStats, newEpoch),
		roleSynopsis: epochFileName(roleSynopsis, newEpoch),
		roleTagIdx:   epochFileName(roleTagIdx, newEpoch),
		roleValIdx:   epochFileName(roleValIdx, newEpoch),
		roleDewIdx:   epochFileName(roleDewIdx, newEpoch),
		rolePathIdx:  epochFileName(rolePathIdx, newEpoch),
	}
	if err := db.Values.Flush(); err != nil {
		return false, err
	}
	// Seal flushes and fsyncs every copy-on-write page, then serializes
	// the new logical→physical table.
	side, err := db.treeFile.SealCOW()
	if err != nil {
		return false, err
	}
	if err := vfs.WriteFileAtomic(db.fsys, db.join(names[roleTreeMap]), side, 0o644); err != nil {
		return false, err
	}
	m, err := buildManifest(db.fsys, db.dir, newEpoch, names)
	if err != nil {
		return false, err
	}
	if err := writeManifest(db.fsys, db.dir, m); err != nil {
		return false, err
	}
	// Committed on disk. Publish the page-table version and pin it for
	// the new snapshot; failures past this point leave disk ahead of
	// memory (the caller marks the DB broken).
	if _, err := db.treeFile.Publish(); err != nil {
		return true, err
	}
	psn, err := db.treeFile.Acquire()
	if err != nil {
		return true, err
	}
	next.psn = psn
	next.Tree = wtree.Snapshot(psn)

	// Hand the set of superseded files to the retiring view; they are
	// deleted when its last reader drains, not before.
	prev := db.Snapshot
	for role, newName := range names {
		if old := db.manifest.Files[role].Name; old != "" && old != newName {
			prev.obsolete = append(prev.obsolete, old)
		}
	}
	db.Snapshot = next
	db.manifest = m
	next.publish()
	prev.Release() // drop the DB's "current" reference on the old view
	return true, nil
}

// countChildren counts the children of the node at pos via navigation.
func (db *DB) countChildren(pos stree.Pos) (uint32, error) {
	c, ok, err := db.Tree.FirstChild(pos)
	if err != nil {
		return 0, err
	}
	var n uint32
	for ok {
		n++
		c, ok, err = db.Tree.FollowingSibling(c, true, nil)
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// valueAssociations snapshots dewey→valueOffset for every node, applying
// the delete remapping when deletedID is non-nil: nodes inside the deleted
// subtree are dropped, and siblings after it (and their descendants) shift
// one ordinal down at the deleted depth.
func (db *DB) valueAssociations(deletedID dewey.ID, deletedOrd uint32) (map[string]uint64, error) {
	out := map[string]uint64{}
	it := db.DeweyIdx.First()
	for it.Next() {
		id, err := dewey.FromBytes(it.Key())
		if err != nil {
			return nil, err
		}
		if len(it.Value()) != 14 {
			return nil, errors.New("core: corrupt dewey index entry")
		}
		valOff := binary.BigEndian.Uint64(it.Value()[6:14])
		if valOff == NoValue {
			continue
		}
		if deletedID != nil {
			if deletedID.IsAncestorOf(id) || dewey.Compare(deletedID, id) == 0 {
				continue // inside the deleted subtree
			}
			// Shift siblings after the deleted node (prefix-preserving).
			d := len(deletedID) - 1
			if len(id) > d && prefixEq(id, deletedID, d) && id[d] > deletedOrd {
				id = id.Clone()
				id[d]--
			}
		}
		out[id.String()] = valOff
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func prefixEq(id, other dewey.ID, n int) bool {
	for i := 0; i < n; i++ {
		if id[i] != other[i] {
			return false
		}
	}
	return true
}

// rebuildIndexes recreates the four B+ trees (and the symbol/statistics/
// synopsis files) from a scan of the already-mutated writer tree into
// fresh files named for next.epoch, filling next's in-memory state. The
// previous epoch's files and open handles are untouched — they remain the
// committed state readers are using. valOffByDewey carries the value
// associations. When preSyn is non-nil it is stamped with the new epoch
// and committed as the synopsis, and the scan skips statistics
// collection; otherwise the synopsis is rebuilt from the scan.
func (db *DB) rebuildIndexes(next *Snapshot, wtree *stree.Store, valOffByDewey map[string]uint64, preSyn *stats.Synopsis) error {
	newEpoch := next.epoch
	pageSize := db.treeFile.PageSize()
	if pageSize < 1024 {
		pageSize = pager.DefaultPageSize
	}
	idxOpts := func() *pager.Options { return &pager.Options{PageSize: pageSize, FS: db.fsys} }
	var err error
	if next.tagIdxFile, err = pager.Create(db.join(epochFileName(roleTagIdx, newEpoch)), idxOpts()); err != nil {
		return err
	}
	if next.TagIdx, err = btree.Create(next.tagIdxFile); err != nil {
		return err
	}
	if next.valIdxFile, err = pager.Create(db.join(epochFileName(roleValIdx, newEpoch)), idxOpts()); err != nil {
		return err
	}
	if next.ValIdx, err = btree.Create(next.valIdxFile); err != nil {
		return err
	}
	if next.dewIdxFile, err = pager.Create(db.join(epochFileName(roleDewIdx, newEpoch)), idxOpts()); err != nil {
		return err
	}
	if next.DeweyIdx, err = btree.Create(next.dewIdxFile); err != nil {
		return err
	}
	if next.pathIdxFile, err = pager.Create(db.join(epochFileName(rolePathIdx, newEpoch)), idxOpts()); err != nil {
		return err
	}
	if next.PathIdx, err = btree.Create(next.pathIdxFile); err != nil {
		return err
	}

	var sb *stats.Builder
	if preSyn == nil {
		sb = stats.NewBuilder()
	}
	// hashStack[d] is the path hash of the current open element at depth d
	// (root depth 1); hashStack[0] is the seed.
	hashStack := []uint64{pathHashSeed}
	var scanErr error
	err = wtree.Scan(func(pos stree.Pos, sym symtab.Sym, level int, id dewey.ID) bool {
		next.tagCount[sym]++
		next.total++
		if sb != nil {
			sb.Node(sym, level)
		}
		h := extendPathHash(hashStack[level-1], sym)
		hashStack = append(hashStack[:level], h)
		if err := next.PathIdx.Insert(pathKey(h, id), encodePos(pos)); err != nil {
			scanErr = err
			return false
		}
		if err := next.TagIdx.Insert(tagKey(sym, id), encodePos(pos)); err != nil {
			scanErr = err
			return false
		}
		valOff := NoValue
		if off, ok := valOffByDewey[id.String()]; ok {
			valOff = off
			v, err := db.Values.Get(int64(off))
			if err != nil {
				scanErr = err
				return false
			}
			if sb != nil {
				sb.Value(level, vstore.Hash(v))
			}
			if err := next.ValIdx.Insert(valKey(vstore.Hash(v), id), encodePos(pos)); err != nil {
				scanErr = err
				return false
			}
		}
		if err := next.DeweyIdx.Insert(id.Bytes(), deweyVal(pos, valOff)); err != nil {
			scanErr = err
			return false
		}
		return true
	}, nil)
	if err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}
	if err := saveStatsFile(db.fsys, filepath.Join(db.dir, epochFileName(roleStats, newEpoch)), next.Tags, next.tagCount, next.total); err != nil {
		return err
	}
	if err := next.Tags.SaveFS(db.fsys, filepath.Join(db.dir, epochFileName(roleTags, newEpoch))); err != nil {
		return err
	}
	var syn *stats.Synopsis
	if preSyn != nil {
		preSyn.Epoch = newEpoch
		preSyn.TreePages = uint64(wtree.NumPages())
		syn = preSyn
	} else {
		syn = sb.Finish(newEpoch, uint64(wtree.NumPages()))
	}
	if err := vfs.WriteFileAtomic(db.fsys,
		filepath.Join(db.dir, epochFileName(roleSynopsis, newEpoch)), stats.Encode(syn), 0o644); err != nil {
		return err
	}
	next.syn.Store(syn)
	for _, t := range []*btree.Tree{next.TagIdx, next.ValIdx, next.DeweyIdx, next.PathIdx} {
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return db.Values.Flush()
}
