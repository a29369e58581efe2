package btree

import (
	"bytes"

	"nok/internal/pager"
)

// Iterator walks keys in ascending order via the leaf chain. Obtain one
// with Seek or First. An Iterator must not be used concurrently with tree
// modifications: splits and frees invalidate its position.
type Iterator struct {
	t    *Tree
	leaf pager.PageID
	idx  int
	key  []byte
	val  []byte
	err  error
	done bool
}

// Seek returns an iterator positioned at the first key >= lo.
func (t *Tree) Seek(lo []byte) *Iterator {
	mSeeks.Inc()
	t.mu.Lock()
	defer t.mu.Unlock()
	it := &Iterator{t: t}
	id := t.root
	for level := t.height; level > 1; level-- {
		p, err := t.pf.Get(id)
		if err != nil {
			it.err = err
			it.done = true
			return it
		}
		ci := childIndexFor(p.Data(), lo)
		id = childAt(p.Data(), ci)
		t.pf.Unpin(p)
	}
	it.leaf = id
	p, err := t.pf.Get(id)
	if err != nil {
		it.err = err
		it.done = true
		return it
	}
	i, _ := search(p.Data(), lo)
	it.idx = i
	t.pf.Unpin(p)
	return it
}

// First returns an iterator positioned at the smallest key.
func (t *Tree) First() *Iterator {
	return t.Seek(nil)
}

// Next advances to the next item, reporting false at the end or on error
// (check Err). Key and Value are valid until the following Next call.
func (it *Iterator) Next() bool {
	if it.done {
		return false
	}
	t := it.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if it.leaf == pager.InvalidPage {
			it.done = true
			return false
		}
		p, err := t.pf.Get(it.leaf)
		if err != nil {
			it.err = err
			it.done = true
			return false
		}
		d := p.Data()
		if it.idx < nCells(d) {
			k, v, _ := cellAt(d, slot(d, it.idx), leafType)
			it.key = append(it.key[:0], k...)
			it.val = append(it.val[:0], v...)
			it.idx++
			t.pf.Unpin(p)
			return true
		}
		next := nextPtr(d)
		t.pf.Unpin(p)
		it.leaf = next
		it.idx = 0
	}
}

// Key returns the current key; valid after a true Next.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value; valid after a true Next.
func (it *Iterator) Value() []byte { return it.val }

// Err returns the first error the iterator encountered.
func (it *Iterator) Err() error { return it.err }

// ScanPrefix calls fn for every (key, value) whose key begins with prefix,
// in ascending key order, stopping early when fn returns false. This is the
// multi-valued index access path: the tag-name and value indexes compose
// keys as prefix‖payload.
//
// When pages is non-nil the scan charges it the pages it touches: the
// root-to-leaf descent (Height pages) plus one per leaf-chain advance. The
// planner's cost model (internal/planner) prices index accesses in those
// pages, so QueryStats.PagesScanned reflects starting-point location work.
func (t *Tree) ScanPrefix(prefix []byte, fn func(key, value []byte) bool, pages *uint64) error {
	it := t.Seek(prefix)
	if pages != nil {
		*pages += uint64(t.Height())
	}
	last := it.leaf
	for it.Next() {
		if pages != nil && it.leaf != last && it.leaf != pager.InvalidPage {
			*pages++
			last = it.leaf
		}
		if !bytes.HasPrefix(it.Key(), prefix) {
			break
		}
		if !fn(it.Key(), it.Value()) {
			break
		}
	}
	return it.Err()
}

// ScanRange calls fn for every (key, value) with lo <= key < hi (hi nil
// means unbounded), stopping early when fn returns false.
func (t *Tree) ScanRange(lo, hi []byte, fn func(key, value []byte) bool) error {
	it := t.Seek(lo)
	for it.Next() {
		if hi != nil && bytes.Compare(it.Key(), hi) >= 0 {
			break
		}
		if !fn(it.Key(), it.Value()) {
			break
		}
	}
	return it.Err()
}
