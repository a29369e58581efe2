// Package stree implements the paper's succinct physical storage scheme for
// XML structure (§4.2) and the physical tree primitives of Algorithm 2.
//
// The subject tree is materialized as a string: each element contributes one
// 2-byte character from the alphabet Σ (see internal/symtab) when it opens
// and one 1-byte ')' marker when it closes — exactly the shape of a SAX
// event stream. The string is split across fixed-size pages; tokens never
// straddle a page boundary.
//
// Every page carries the paper's (st, lo, hi) vector: st is the running
// level after the last token of the *previous* page, and [lo, hi] bounds the
// running level within the page. Unlike the paper's prose, lo/hi here also
// cover st itself; that closes a corner case in the FOLLOWING-SIBLING page
// skip (a page that begins exactly at the parent's close token would
// otherwise be skippable even though it ends the sibling scan).
//
// Page headers are tiny and the store keeps them all in memory (§4.2 sizes
// this at ≤70MB per terabyte of XML), which is what allows the navigation
// primitives to skip pages wholesale.
//
// Levels follow the paper's Figure 4 convention: the running level starts
// at 0, an open token sets it to parent+1 (the node's level; the root is at
// level 1), a close token decrements it.
package stree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nok/internal/obs"
	"nok/internal/pager"
	"nok/internal/symtab"
)

// Process-wide navigation counters (all stores), exposed through the
// default obs registry. These are the direct measure of the paper's
// (st,lo,hi) page-skip optimization.
var (
	mPagesExamined = obs.Default.Counter("nok_stree_pages_examined_total", "pages examined by FOLLOWING-SIBLING / SubtreeEnd scans")
	mPagesSkipped  = obs.Default.Counter("nok_stree_pages_skipped_total", "pages skipped via (st,lo,hi) header bounds")
)

// CloseByte marks a close token in the string representation. Open tokens
// are 2-byte big-endian symbols whose high byte is < 0xFF (see
// symtab.MaxSym), so the two cannot be confused when scanning forward.
const CloseByte = 0xFF

// Token sizes in bytes.
const (
	OpenTokenSize  = 2
	CloseTokenSize = 1
)

// in-page header layout (16 bytes):
//
//	0:2   used u16 — content bytes in this page
//	2:4   st int16 — running level entering this page
//	4:6   lo int16 — min running level (including st)
//	6:8   hi int16 — max running level (including st)
//	8:12  next u32 — next page in chain
//	12:16 prev u32 — previous page in chain
const pageHeaderSize = 16

// store meta layout in the pager meta area:
//
//	magic "ST1" | head u32 | tail u32 | nodeCount u64 | tokenBytes u64 |
//	maxLevel u16 | reservePct u8
const (
	metaMagic = "ST1"
	metaLen   = 3 + 4 + 4 + 8 + 8 + 2 + 1
)

// Errors.
var (
	ErrNotStore   = errors.New("stree: pager file does not contain a string tree")
	ErrBadPos     = errors.New("stree: invalid position")
	ErrEmptyStore = errors.New("stree: store holds no document")
)

// Pos addresses a token: Chain is the index of its page in the page chain
// (not the physical page id), Off the byte offset of the token within the
// page's content area. Positions compare in document order via DocPos.
type Pos struct {
	Chain int
	Off   int
}

// DocPos is a single integer that orders positions in document order.
// Offsets fit in 16 bits because pages are at most 64KB.
func (p Pos) DocPos() uint64 { return uint64(p.Chain)<<16 | uint64(p.Off) }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Chain, p.Off) }

// Interval is the paper's join condition surrogate (§5): Start is the
// DocPos of a node's open token and End the DocPos of its matching close.
// Node a contains node b iff a.Start < b.Start && b.End < a.End.
type Interval struct {
	Start, End uint64
}

// Contains reports whether iv properly contains other.
func (iv Interval) Contains(other Interval) bool {
	return iv.Start < other.Start && other.End < iv.End
}

// Before reports whether iv ends before other starts (the following /
// preceding axis condition).
func (iv Interval) Before(other Interval) bool {
	return iv.End < other.Start
}

// header is the in-RAM copy of a page header, kept for every page in chain
// order. This is the "feather-weight index" of §4.2.
type header struct {
	page pager.PageID
	used uint16
	st   int16
	lo   int16
	hi   int16
}

// Store is an opened string-tree store. Navigation methods are safe for
// concurrent use with each other but not with updates.
//
// A Store reads pages through pf, a pager.Source that is either the live
// writer view of a pager file or a pinned version snapshot. Mutation
// methods go through file, the underlying *pager.File; a Store produced by
// Snapshot has file == nil and is read-only.
type Store struct {
	pf   pager.Source
	file *pager.File // nil for read-only snapshot views
	// statsFile carries the underlying pager file on snapshot views so
	// Pager() can still report I/O statistics; never used for writes.
	statsFile *pager.File
	headers   []header // chain order

	nodeCount  uint64
	tokenBytes uint64
	maxLevel   int
	reservePct int

	levels *levelCache

	navExamined atomic.Uint64
	navSkipped  atomic.Uint64
}

// NavStats counts page-level work of the navigation primitives — the
// direct measure of the (st,lo,hi) page-skip optimization: pages whose
// header excluded them (skipped) versus pages actually examined.
type NavStats struct {
	PagesExamined uint64
	PagesSkipped  uint64
}

// NavCounters accumulates per-caller navigation counts. A query evaluation
// owns one and passes it to the navigation calls, giving
// per-query PagesScanned/PagesSkipped numbers that the store-global
// (concurrently shared) NavStats cannot provide. A NavCounters is owned by
// one goroutine; it is deliberately not synchronized.
type NavCounters struct {
	Examined uint64
	Skipped  uint64
}

// add is nil-safe so navigation can thread an optional collector.
func (nc *NavCounters) add(examined, skipped uint64) {
	if nc != nil {
		nc.Examined += examined
		nc.Skipped += skipped
	}
}

// AddExamined records n examined pages; nil-safe. Callers outside the
// package use it to attribute non-navigation page reads (index probes,
// point lookups) to the same per-query counter.
func (nc *NavCounters) AddExamined(n uint64) { nc.add(n, 0) }

// NavStats returns the accumulated navigation counters.
func (s *Store) NavStats() NavStats {
	return NavStats{
		PagesExamined: s.navExamined.Load(),
		PagesSkipped:  s.navSkipped.Load(),
	}
}

// ResetNavStats zeroes the navigation counters.
func (s *Store) ResetNavStats() {
	s.navExamined.Store(0)
	s.navSkipped.Store(0)
}

// NodeCount returns the number of element nodes stored.
func (s *Store) NodeCount() uint64 { return s.nodeCount }

// TokenBytes returns the total size of the string representation in bytes
// (the |tree| column of the paper's Table 1).
func (s *Store) TokenBytes() uint64 { return s.tokenBytes }

// MaxLevel returns the maximum node level (document depth; root = 1).
func (s *Store) MaxLevel() int { return s.maxLevel }

// NumPages returns the number of pages in the chain.
func (s *Store) NumPages() int { return len(s.headers) }

// HeaderBytes returns the in-memory footprint of the header table in bytes,
// for the §4.2 "headers of 1TB fit in RAM" experiment. Each header carries
// the paper's 7 logical bytes plus alignment.
func (s *Store) HeaderBytes() int { return len(s.headers) * 16 }

// Pager exposes the underlying pager (for I/O statistics). It is nil for
// snapshot views.
func (s *Store) Pager() *pager.File {
	if s.file != nil {
		return s.file
	}
	return s.statsFile
}

// Snapshot returns a read-only view of the store that navigates through
// src — typically a pinned pager version — with its own level cache. The
// view shares no mutable state with s: the header table is copied, so
// later updates to s (or the store it was cloned from) never disturb it.
func (s *Store) Snapshot(src pager.Source) *Store {
	return &Store{
		pf:         src,
		statsFile:  s.Pager(),
		headers:    append([]header(nil), s.headers...),
		nodeCount:  s.nodeCount,
		tokenBytes: s.tokenBytes,
		maxLevel:   s.maxLevel,
		reservePct: s.reservePct,
		levels:     newLevelCache(defaultLevelCacheSize),
	}
}

// WriterClone returns a mutable clone of the store bound to file: the
// in-RAM header table is copied so mutations never disturb s (which may be
// the read view of a committed epoch). Used by the copy-on-write update
// path, where the pager file must have an open transaction before the
// clone is mutated.
func (s *Store) WriterClone(file *pager.File) *Store {
	return &Store{
		pf:         file,
		file:       file,
		headers:    append([]header(nil), s.headers...),
		nodeCount:  s.nodeCount,
		tokenBytes: s.tokenBytes,
		maxLevel:   s.maxLevel,
		reservePct: s.reservePct,
		levels:     newLevelCache(defaultLevelCacheSize),
	}
}

// Open attaches to a store previously built in pf and loads the page header
// table into memory by walking the page chain.
func Open(pf *pager.File) (*Store, error) {
	meta := pf.Meta()
	if len(meta) != metaLen || string(meta[:3]) != metaMagic {
		return nil, ErrNotStore
	}
	s := &Store{pf: pf, file: pf, levels: newLevelCache(defaultLevelCacheSize)}
	head := pager.PageID(binary.BigEndian.Uint32(meta[3:7]))
	s.nodeCount = binary.BigEndian.Uint64(meta[11:19])
	s.tokenBytes = binary.BigEndian.Uint64(meta[19:27])
	s.maxLevel = int(binary.BigEndian.Uint16(meta[27:29]))
	s.reservePct = int(meta[29])
	for id := head; id != pager.InvalidPage; {
		p, err := pf.Get(id)
		if err != nil {
			return nil, err
		}
		d := p.Data()
		s.headers = append(s.headers, header{
			page: id,
			used: binary.BigEndian.Uint16(d[0:2]),
			st:   int16(binary.BigEndian.Uint16(d[2:4])),
			lo:   int16(binary.BigEndian.Uint16(d[4:6])),
			hi:   int16(binary.BigEndian.Uint16(d[6:8])),
		})
		next := pager.PageID(binary.BigEndian.Uint32(d[8:12]))
		pf.Unpin(p)
		id = next
	}
	if len(s.headers) == 0 {
		return nil, ErrEmptyStore
	}
	return s, nil
}

func (s *Store) writeMeta() error {
	var meta [metaLen]byte
	copy(meta[:3], metaMagic)
	var head, tail pager.PageID
	if len(s.headers) > 0 {
		head = s.headers[0].page
		tail = s.headers[len(s.headers)-1].page
	}
	binary.BigEndian.PutUint32(meta[3:7], uint32(head))
	binary.BigEndian.PutUint32(meta[7:11], uint32(tail))
	binary.BigEndian.PutUint64(meta[11:19], s.nodeCount)
	binary.BigEndian.PutUint64(meta[19:27], s.tokenBytes)
	binary.BigEndian.PutUint16(meta[27:29], uint16(s.maxLevel))
	meta[29] = byte(s.reservePct)
	return s.file.SetMeta(meta[:])
}

// writePageHeader flushes the in-RAM header of chain index ci into its page.
func (s *Store) writePageHeader(ci int, d []byte) {
	h := s.headers[ci]
	binary.BigEndian.PutUint16(d[0:2], h.used)
	binary.BigEndian.PutUint16(d[2:4], uint16(h.st))
	binary.BigEndian.PutUint16(d[4:6], uint16(h.lo))
	binary.BigEndian.PutUint16(d[6:8], uint16(h.hi))
	var next, prev pager.PageID
	if ci+1 < len(s.headers) {
		next = s.headers[ci+1].page
	}
	if ci > 0 {
		prev = s.headers[ci-1].page
	}
	binary.BigEndian.PutUint32(d[8:12], uint32(next))
	binary.BigEndian.PutUint32(d[12:16], uint32(prev))
}

// contentCapacity is the maximum content bytes a page can hold.
func (s *Store) contentCapacity() int { return s.pf.PageSize() - pageHeaderSize }

// Capacity returns the paper's page capacity C in *nodes*: how many
// (open, close) token pairs fit in one page's content area at full fill.
func (s *Store) Capacity() int {
	return s.contentCapacity() / (OpenTokenSize + CloseTokenSize)
}

// content returns the content area of a pinned page.
func content(d []byte, used int) []byte { return d[pageHeaderSize : pageHeaderSize+used] }

// validPos reports whether p addresses a token start in the current store.
func (s *Store) validPos(p Pos) bool {
	return p.Chain >= 0 && p.Chain < len(s.headers) && p.Off >= 0 && p.Off < int(s.headers[p.Chain].used)
}

// ---- level arrays ----------------------------------------------------------

const defaultLevelCacheSize = 1024

// levelCache caches per-page running-level arrays, the L[p] of the paper's
// READ-PAGE subroutine. Entries are invalidated wholesale on update.
// Safe for concurrent readers (queries run concurrently; updates are
// exclusive at the store level).
type levelCache struct {
	mu  sync.Mutex
	max int
	m   map[pager.PageID][]int16
}

func newLevelCache(max int) *levelCache {
	return &levelCache{max: max, m: make(map[pager.PageID][]int16)}
}

func (c *levelCache) get(id pager.PageID) ([]int16, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.m[id]
	return l, ok
}

func (c *levelCache) put(id pager.PageID, l []int16) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= c.max {
		// Drop an arbitrary entry; recomputing a level array is one linear
		// scan of a page, so eviction policy hardly matters.
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[id] = l
}

func (c *levelCache) invalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
}

// computeLevels builds the running-level array for page content: levels[i]
// is the running level *after* processing the token starting at byte i (for
// byte positions that are token starts; other entries hold the level of the
// token they belong to). st is the level entering the page.
func computeLevels(cont []byte, st int16) []int16 {
	levels := make([]int16, len(cont))
	lvl := st
	for i := 0; i < len(cont); {
		if cont[i] == CloseByte {
			lvl--
			levels[i] = lvl
			i += CloseTokenSize
		} else {
			lvl++
			levels[i] = lvl
			if i+1 < len(cont) {
				levels[i+1] = lvl
			}
			i += OpenTokenSize
		}
	}
	return levels
}

// pageLevels returns the level array for the page at chain index ci, using
// the cache. The page is read through the buffer pool.
func (s *Store) pageLevels(ci int) ([]int16, error) {
	h := s.headers[ci]
	if l, ok := s.levels.get(h.page); ok {
		return l, nil
	}
	p, err := s.pf.Get(h.page)
	if err != nil {
		return nil, err
	}
	l := computeLevels(content(p.Data(), int(h.used)), h.st)
	s.pf.Unpin(p)
	s.levels.put(h.page, l)
	return l, nil
}

// SymAt returns the symbol of the open token at p.
func (s *Store) SymAt(p Pos) (symtab.Sym, error) {
	if !s.validPos(p) {
		return 0, fmt.Errorf("%w: %v", ErrBadPos, p)
	}
	h := s.headers[p.Chain]
	pg, err := s.pf.Get(h.page)
	if err != nil {
		return 0, err
	}
	defer s.pf.Unpin(pg)
	cont := content(pg.Data(), int(h.used))
	if cont[p.Off] == CloseByte {
		return 0, fmt.Errorf("%w: %v is a close token", ErrBadPos, p)
	}
	if p.Off+1 >= len(cont) {
		return 0, fmt.Errorf("%w: truncated token at %v", ErrBadPos, p)
	}
	return symtab.Sym(binary.BigEndian.Uint16(cont[p.Off : p.Off+2])), nil
}

// LevelAt returns the node level of the open token at p (root = 1).
func (s *Store) LevelAt(p Pos) (int, error) {
	if !s.validPos(p) {
		return 0, fmt.Errorf("%w: %v", ErrBadPos, p)
	}
	levels, err := s.pageLevels(p.Chain)
	if err != nil {
		return 0, err
	}
	return int(levels[p.Off]), nil
}
